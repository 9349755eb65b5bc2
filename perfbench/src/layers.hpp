// Outside-in per-layer probes: each one times calls into a module's public
// functions from the benchmark's own code, so the library needs no
// instrumentation. Only public surface that the planned library changes
// keep is used (see README.md, "Stable surface").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "report.hpp"

namespace perfbench {

/// Kernel executions seen through the App seam, split by whether the
/// context traced. Shared by a TimedApp and all its clones.
struct RunTally {
    std::atomic<std::uint64_t> traced_runs{0};
    std::atomic<std::uint64_t> untraced_runs{0};
    std::atomic<std::int64_t> traced_ns{0};
    std::atomic<std::int64_t> untraced_ns{0};

    struct Snapshot {
        std::uint64_t traced_runs = 0;
        std::uint64_t untraced_runs = 0;
        double traced_s = 0.0;
        double untraced_s = 0.0;
        Snapshot operator-(const Snapshot& o) const {
            return {traced_runs - o.traced_runs, untraced_runs - o.untraced_runs,
                    traced_s - o.traced_s, untraced_s - o.untraced_s};
        }
    };
    [[nodiscard]] Snapshot snapshot() const;
};

/// An App that forwards to a registered kernel and books every run()
/// (count and wall time) into a RunTally. The tuning engine clones its
/// prototype, so this is how the benchmark sees kernel runs inside a
/// search without touching the library. Results are those of the wrapped
/// kernel, bit for bit.
class TimedApp final : public tp::apps::App {
public:
    TimedApp(std::unique_ptr<tp::apps::App> inner, std::shared_ptr<RunTally> tally);
    [[nodiscard]] std::string_view name() const override { return inner_->name(); }
    [[nodiscard]] std::unique_ptr<tp::apps::App> clone() const override;
    void prepare(unsigned input_set) override { inner_->prepare(input_set); }
    std::vector<double> run(tp::sim::TpContext& ctx,
                            const tp::apps::TypeConfig& config) override;

private:
    TimedApp(const TimedApp& other);

    std::unique_ptr<tp::apps::App> inner_;
    std::shared_ptr<RunTally> tally_;
};

/// What the probes run on: the workload's input sets, its epsilon, and the
/// per-signal bindings the workload tuned for each app (several per app
/// allowed; an app without any gets the binding a plain search at
/// `epsilon` finds).
struct LayerInputs {
    std::vector<unsigned> input_sets;
    double epsilon = 1e-2;
    std::map<std::string, std::vector<tp::apps::TypeConfig>> configs;
};

/// Per-app unit costs, each a mean per run over the app's configs and the
/// input sets.
struct AppUnitCosts {
    double untraced_us = 0.0;  // App::run on an untraced context
    double trace_us = 0.0;     // App::run on a tracing context + take_program
    double vectorize_us = 0.0; // sim::vectorize
    double pipeline_us = 0.0;  // sim::run_pipeline on the vectorized program
    double simulate_us = 0.0;  // sim::simulate (pipeline + energy model)
    double instrs = 0.0;       // instructions in the captured program
    double ops = 0.0;          // FP ops + casts counted by thread_stats()
    double derive_ms = 0.0;    // analysis::derive_warm_start
};

/// The search-then-cast-aware span pair for one app (see probe_cast_split).
/// The refinement's kernel runs are counted and timed through TimedApp.
struct CastSplit {
    double search_s = 0.0;
    double refine_s = 0.0;
    std::uint64_t refine_kernel_runs = 0; // EvalStats delta of the refinement
    RunTally::Snapshot refine_runs;       // every App::run of it, split and timed
    int moves_accepted = 0;
};

struct LayerReport {
    std::map<std::string, AppUnitCosts> units; // by app name
    std::map<std::string, CastSplit> cast;     // by app name
};

/// Runs every probe on every registered app, recording one span per call
/// into `log` (may be null) under `parent`. Correctness problems found on
/// the way (e.g. a cast-aware base that differs from the plain search) go
/// to `out`.
[[nodiscard]] LayerReport probe_layers(const LayerInputs& inputs, SpanLog* log,
                                       int parent, RunOutcome& out);

/// Adds the per-layer metrics derived from the probes (kernel.untraced_us.*,
/// flexfloat.*, sim.*, analysis.*, search.*, cast.*) to `out`, plus the
/// per-app table as notes.
void emit_layer_metrics(const LayerReport& report, RunOutcome& out);

} // namespace perfbench
