#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "analysis/derive_bounds.hpp"
#include "flexfloat/stats.hpp"
#include "sim/context.hpp"
#include "sim/pipeline.hpp"
#include "sim/platform.hpp"
#include "sim/vectorize.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"

namespace perfbench {

using tp::apps::App;
using tp::apps::TypeConfig;

RunTally::Snapshot RunTally::snapshot() const {
    return {traced_runs.load(), untraced_runs.load(), static_cast<double>(traced_ns.load()) * 1e-9,
            static_cast<double>(untraced_ns.load()) * 1e-9};
}

TimedApp::TimedApp(std::unique_ptr<App> inner, std::shared_ptr<RunTally> tally)
    : App(inner->signals()), inner_(std::move(inner)), tally_(std::move(tally)) {}

TimedApp::TimedApp(const TimedApp& other)
    : App(other), inner_(other.inner_->clone()), tally_(other.tally_) {}

std::unique_ptr<App> TimedApp::clone() const {
    return std::unique_ptr<App>(new TimedApp(*this));
}

std::vector<double> TimedApp::run(tp::sim::TpContext& ctx, const TypeConfig& config) {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> output = inner_->run(ctx, config);
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    if (ctx.tracing()) {
        ++tally_->traced_runs;
        tally_->traced_ns += ns;
    } else {
        ++tally_->untraced_runs;
        tally_->untraced_ns += ns;
    }
    return output;
}

namespace {

/// Enough repetitions that one probe measures about `budget_s`, at least
/// three and at most 200.
int repetitions(double one_run_s, double budget_s) {
    if (one_run_s <= 0.0) return 200;
    return std::clamp(static_cast<int>(budget_s / one_run_s), 3, 200);
}

// Every run re-prepares its input set first (untimed): the engine does the
// same, so no kernel may rely on state a previous run left behind.
double untraced_run_us(App& app, unsigned set, const TypeConfig& config) {
    const auto run_once = [&app, set, &config] {
        app.prepare(set);
        tp::sim::TpContext ctx{tp::sim::TpContext::Config{.trace = false}};
        const Clock::time_point t0 = Clock::now();
        const std::vector<double> output = app.run(ctx, config);
        const double s = seconds_between(t0, Clock::now());
        if (output.empty()) throw std::runtime_error("kernel produced no output");
        return s;
    };
    const int reps = repetitions(run_once(), 0.01);
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) samples.push_back(run_once());
    return median(samples) * 1e6;
}

std::uint64_t counted_ops(App& app, unsigned set, const TypeConfig& config) {
    app.prepare(set);
    tp::StatsRegistry& stats = tp::thread_stats();
    stats.reset();
    stats.set_enabled(true);
    tp::sim::TpContext ctx{tp::sim::TpContext::Config{.trace = false}};
    (void)app.run(ctx, config);
    stats.set_enabled(false);
    std::uint64_t ops = stats.total_casts();
    for (const auto& [format, counts] : stats.ops()) {
        for (std::size_t i = 0; i < tp::kFpOpCount; ++i) {
            ops += counts.scalar[i] + counts.vectorial[i];
        }
    }
    stats.reset();
    return ops;
}

/// One traced execution taken apart: capture, vectorize, pipeline, full
/// simulation (the cast-aware pass's cost oracle does all four per probe).
struct TracedSample {
    double trace_s = 0.0;
    double vectorize_s = 0.0;
    double pipeline_s = 0.0;
    double simulate_s = 0.0;
    std::size_t instrs = 0;
};

TracedSample traced_run(App& app, unsigned set, const TypeConfig& config) {
    app.prepare(set);
    TracedSample s;
    tp::sim::TpContext ctx;
    Clock::time_point t = Clock::now();
    (void)app.run(ctx, config);
    tp::sim::TraceProgram program = ctx.take_program(false);
    Clock::time_point u = Clock::now();
    s.trace_s = seconds_between(t, u);
    s.instrs = program.instrs.size();
    t = Clock::now();
    tp::sim::vectorize(program);
    u = Clock::now();
    s.vectorize_s = seconds_between(t, u);
    t = Clock::now();
    const tp::sim::PipelineResult pipe = tp::sim::run_pipeline(program);
    u = Clock::now();
    s.pipeline_s = seconds_between(t, u);
    t = Clock::now();
    const tp::sim::RunReport report = tp::sim::simulate(program);
    u = Clock::now();
    s.simulate_s = seconds_between(t, u);
    if (report.cycles != pipe.cycles) {
        throw std::runtime_error("simulate() and run_pipeline() disagree on cycles");
    }
    return s;
}

AppUnitCosts probe_units(App& app, const std::vector<TypeConfig>& configs,
                         const LayerInputs& inputs, SpanLog* log, int parent) {
    AppUnitCosts u;
    double n = 0.0;
    for (const TypeConfig& config : configs) {
        for (const unsigned set : inputs.input_sets) {
            {
                const ScopedSpan span{log, "apps.run_untraced", parent};
                u.untraced_us += untraced_run_us(app, set, config);
            }
            u.ops += static_cast<double>(counted_ops(app, set, config));
            const ScopedSpan span{log, "sim.traced_run", parent};
            TracedSample first = traced_run(app, set, config);
            const int reps = repetitions(first.trace_s + first.vectorize_s + first.simulate_s, 0.02);
            std::vector<double> trace, vec, pipe, simulate;
            for (int r = 0; r < reps; ++r) {
                const TracedSample s = r == 0 ? first : traced_run(app, set, config);
                trace.push_back(s.trace_s);
                vec.push_back(s.vectorize_s);
                pipe.push_back(s.pipeline_s);
                simulate.push_back(s.simulate_s);
            }
            u.trace_us += median(trace) * 1e6;
            u.vectorize_us += median(vec) * 1e6;
            u.pipeline_us += median(pipe) * 1e6;
            u.simulate_us += median(simulate) * 1e6;
            u.instrs += static_cast<double>(first.instrs);
            n += 1.0;
        }
    }
    for (double* field : {&u.untraced_us, &u.trace_us, &u.vectorize_us, &u.pipeline_us,
                          &u.simulate_us, &u.instrs, &u.ops}) {
        *field /= n;
    }
    std::vector<double> derive;
    for (int r = 0; r < 3; ++r) {
        const ScopedSpan span{log, "analysis.derive_warm_start", parent};
        const Clock::time_point t0 = Clock::now();
        const tp::tuning::WarmStart ws =
            tp::analysis::derive_warm_start(app, inputs.epsilon, inputs.input_sets);
        derive.push_back(seconds_between(t0, Clock::now()) * 1e3);
        if (ws.lower_bounds.size() != app.signals().size()) {
            throw std::runtime_error("derive_warm_start returned a malformed warm start");
        }
    }
    u.derive_ms = median(derive);
    return u;
}

/// Plain search on a fresh engine, then cast_aware_search on the same
/// engine: the second call's base search is all cache hits, so its span is
/// the refinement, and its counter delta counts the refinement's runs. The
/// engine's prototype is a TimedApp, which splits those runs into traced
/// cost probes and untraced quality checks and times each kind.
CastSplit probe_cast_split(const App& app, const LayerInputs& inputs, SpanLog* log, int parent,
                           RunOutcome& out) {
    CastSplit split;
    const auto tally = std::make_shared<RunTally>();
    const TimedApp timed{app.clone(), tally};
    tp::tuning::EvalEngine engine{timed, tp::tuning::EvalEngine::Options{}};
    tp::tuning::SearchOptions search;
    search.epsilon = inputs.epsilon;
    search.input_sets = inputs.input_sets;
    search.static_bounds = true;
    Clock::time_point t0 = Clock::now();
    tp::tuning::TuningResult plain;
    {
        const ScopedSpan span{log, "tuning.distributed_search", parent};
        plain = tp::tuning::distributed_search(engine, search);
    }
    split.search_s = seconds_between(t0, Clock::now());
    const tp::tuning::EvalStats before = engine.stats();
    const RunTally::Snapshot runs_before = tally->snapshot();
    tp::tuning::CastAwareOptions options;
    options.search = search;
    t0 = Clock::now();
    tp::tuning::CastAwareResult cast;
    {
        const ScopedSpan span{log, "tuning.cast_aware_refine", parent};
        cast = tp::tuning::cast_aware_search(engine, options);
    }
    split.refine_s = seconds_between(t0, Clock::now());
    split.refine_runs = tally->snapshot() - runs_before;
    split.refine_kernel_runs = (engine.stats() - before).kernel_runs;
    split.moves_accepted = cast.moves_accepted;
    if (!(cast.base == plain)) {
        out.fail(std::string(app.name()) +
                 ": cast-aware base search differs from the plain search on the same engine");
    }
    return split;
}

} // namespace

LayerReport probe_layers(const LayerInputs& inputs, SpanLog* log, int parent,
                         RunOutcome& out) {
    LayerReport report;
    for (const std::string& name : tp::apps::app_names()) {
        const ScopedSpan app_span{log, "probe." + name, parent};
        std::unique_ptr<App> app = tp::apps::make_app(name);
        std::vector<TypeConfig> configs;
        if (const auto it = inputs.configs.find(name); it != inputs.configs.end()) {
            configs = it->second;
        }
        if (configs.empty()) {
            tp::tuning::SearchOptions search;
            search.epsilon = inputs.epsilon;
            search.input_sets = inputs.input_sets;
            configs.push_back(tp::tuning::distributed_search(*app, search).type_config());
        }
        report.units[name] = probe_units(*app, configs, inputs, log, app_span.index());
        report.cast[name] = probe_cast_split(*app, inputs, log, app_span.index(), out);
    }
    return report;
}

void emit_layer_metrics(const LayerReport& report, RunOutcome& out) {
    double untraced_us = 0.0, trace_us = 0.0, ops = 0.0, instrs = 0.0;
    double vectorize_us = 0.0, pipeline_us = 0.0, simulate_us = 0.0;
    for (const auto& [name, u] : report.units) {
        out.set("kernel.untraced_us." + name, u.untraced_us, "us");
        out.set("sim.trace_us." + name, u.trace_us, "us");
        out.set("sim.instrs." + name, u.instrs, "count");
        out.set("analysis.derive_ms." + name, u.derive_ms, "ms");
        untraced_us += u.untraced_us;
        trace_us += u.trace_us;
        ops += u.ops;
        instrs += u.instrs;
        vectorize_us += u.vectorize_us;
        pipeline_us += u.pipeline_us;
        simulate_us += u.simulate_us;
    }
    out.set("flexfloat.ns_per_op", untraced_us * 1e3 / ops, "ns");
    out.set("sim.trace_ratio", trace_us / untraced_us, "ratio");
    out.set("sim.vectorize_ns_per_instr", vectorize_us * 1e3 / instrs, "ns");
    out.set("sim.pipeline_ns_per_instr", pipeline_us * 1e3 / instrs, "ns");
    out.set("sim.energy_ns_per_instr", (simulate_us - pipeline_us) * 1e3 / instrs, "ns");
    out.set("sim.minstr_per_s", instrs / (trace_us + vectorize_us + simulate_us), "Minstr/s");

    // Capture and the untraced quality checks are measured through TimedApp.
    // The seam also sees traced runs the engine does not count as kernel
    // runs (captures for its own analyses), so only the engine-counted
    // traced runs — kernel runs minus untraced ones — are priced: vectorize
    // and simulate book each at the unit costs probed on the workload's
    // tuned bindings. That part is an estimate (the refinement prices other
    // bindings, and delta costing may simulate less than a full pass);
    // `rest` absorbs its error along with search bookkeeping and cache
    // lookups, and can come out negative.
    double search_s = 0.0, refine_s = 0.0, capture_s = 0.0, vec_s = 0.0, sim_s = 0.0;
    double checks_s = 0.0, moves = 0.0, refine_runs = 0.0, traced_runs = 0.0;
    char line[256];
    out.notes.push_back("per-app layer probes (unit costs per run in us; cast-aware split in s):");
    std::snprintf(line, sizeof line,
                  "  %-7s %9s %9s %9s %9s %8s %8s %8s | %8s %8s %8s %8s %8s %8s %5s %5s", "app",
                  "untraced", "trace", "vectorize", "simulate", "instrs", "derive_ms", "search",
                  "refine", "capture", "vector", "simulate", "checks", "rest", "runs", "traced");
    out.notes.emplace_back(line);
    for (const auto& [name, c] : report.cast) {
        const AppUnitCosts& u = report.units.at(name);
        const double traced = static_cast<double>(c.refine_runs.traced_runs);
        const double priced = static_cast<double>(
            c.refine_kernel_runs - std::min(c.refine_kernel_runs, c.refine_runs.untraced_runs));
        const double cap = c.refine_runs.traced_s;
        const double vec = priced * u.vectorize_us * 1e-6;
        const double sim = priced * u.simulate_us * 1e-6;
        const double checks = c.refine_runs.untraced_s;
        const double rest = c.refine_s - cap - vec - sim - checks;
        std::snprintf(line, sizeof line,
                      "  %-7s %9.1f %9.1f %9.1f %9.1f %8.0f %8.2f %8.4f | %8.4f %8.4f %8.4f %8.4f "
                      "%8.4f %8.4f %5llu %5.0f",
                      name.c_str(), u.untraced_us, u.trace_us, u.vectorize_us, u.simulate_us,
                      u.instrs, u.derive_ms, c.search_s, c.refine_s, cap, vec, sim, checks, rest,
                      static_cast<unsigned long long>(c.refine_kernel_runs), traced);
        out.notes.emplace_back(line);
        search_s += c.search_s;
        refine_s += c.refine_s;
        capture_s += cap;
        vec_s += vec;
        sim_s += sim;
        checks_s += checks;
        moves += c.moves_accepted;
        refine_runs += static_cast<double>(c.refine_kernel_runs);
        traced_runs += traced;
    }
    out.set("search.s", search_s, "s");
    out.set("cast.refine_s", refine_s, "s");
    out.set("cast.refine_kernel_runs", refine_runs, "count");
    out.set("cast.refine_traced_runs", traced_runs, "count");
    out.set("cast.moves_accepted", moves, "count");
    out.set("cast.report_share", (capture_s + vec_s + sim_s) / refine_s, "frac");
    out.set("cast.refine_capture_s", capture_s, "s");
    out.set("cast.refine_vectorize_s", vec_s, "s");
    out.set("cast.refine_simulate_s", sim_s, "s");
    out.set("cast.refine_checks_s", checks_s, "s");
    out.set("cast.refine_rest_s", refine_s - capture_s - vec_s - sim_s - checks_s, "s");
}

} // namespace perfbench
