// App-conformance battery: the shared, parameterized test suite every
// registered apps::App must pass.
//
// Before this harness each app-facing property lived as a hand-copied
// check in test_apps.cpp (kernel behaviour) or test_eval_engine.cpp
// (engine determinism, run only for pca and dwt). Registering a new app
// meant remembering to extend both files. Now the whole battery is
// parameterized over the app name: include this header from a test binary
// and instantiate with TP_INSTANTIATE_APP_CONFORMANCE — every app listed
// gets, for free,
//
//   * kernel conformance — well-formed signal declarations, deterministic
//     golden outputs that differ across input sets, a near-exact binary32
//     baseline, bit-identical outputs and FlexFloat statistics from the
//     traced and plain instantiations, a simulatable trace, engine reports
//     (priced while the kernel runs) equal to the replay of a stored
//     trace, no FP->FP casts under a uniform binding, and graceful
//     degradation at the narrowest formats;
//   * clone independence — a clone shares the immutable SignalTable but
//     carries its own workload, so re-preparing one never disturbs the
//     other (what the engine's worker-private clone pool relies on);
//   * engine conformance — config-size validation, golden caching, each
//     memoized trial error equal to a direct run's, and
//     the cache-coherent determinism contract (tuning/search.hpp): cold,
//     warm, memoization-disabled, and threads=4 searches return
//     bit-identical TuningResults with exact EvalStats counters.
//
// The battery is a header (not a library) because gtest's TEST_P
// registration must live in the binary that instantiates it; each test
// executable includes it at most once.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/derive_bounds.hpp"
#include "analysis/error_model.hpp"
#include "analysis/signal_flow.hpp"
#include "app_bindings.hpp"
#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "flexfloat/stats.hpp"
#include "shadow_recorder.hpp"
#include "sim/platform.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/quality.hpp"
#include "tuning/search.hpp"

namespace tp::testing {

/// Search options small enough to run the full determinism battery over
/// every registered app in one test binary: two input sets, two greedy
/// passes, the paper's V2 type system.
[[nodiscard]] inline tuning::SearchOptions conformance_search_options() {
    tuning::SearchOptions options;
    options.epsilon = 1e-2;
    options.type_system = TypeSystem{TypeSystemKind::V2};
    options.input_sets = {0, 1};
    options.max_passes = 2;
    return options;
}

/// Memberwise TuningResult equality with per-field messages first, so a
/// regression names the diverging signal instead of "a != b".
inline void expect_identical_results(const tuning::TuningResult& a,
                                     const tuning::TuningResult& b,
                                     const std::string& label) {
    EXPECT_EQ(a.program_runs, b.program_runs) << label;
    ASSERT_EQ(a.signals.size(), b.signals.size()) << label;
    for (std::size_t i = 0; i < a.signals.size(); ++i) {
        EXPECT_EQ(a.signals[i].name, b.signals[i].name) << label;
        EXPECT_EQ(a.signals[i].precision_bits, b.signals[i].precision_bits)
            << label << " signal " << a.signals[i].name;
        EXPECT_EQ(a.signals[i].bound, b.signals[i].bound)
            << label << " signal " << a.signals[i].name;
    }
    // The full memberwise predicate covers fields added later.
    EXPECT_TRUE(a == b) << label;
}

class AppConformanceTest : public ::testing::TestWithParam<std::string> {
protected:
    [[nodiscard]] static std::unique_ptr<apps::App> app() {
        return apps::make_app(GetParam());
    }
};

// --- kernel conformance ------------------------------------------------------

TEST_P(AppConformanceTest, SignalsAreWellFormed) {
    const auto app = this->app();
    const auto& signals = app->signals();
    EXPECT_GE(signals.size(), 3u);
    std::set<std::string> names;
    for (const auto& spec : signals) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GE(spec.elements, 1u);
        EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
    }
}

TEST_P(AppConformanceTest, SignalTableMatchesDeclarations) {
    const auto app = this->app();
    const apps::SignalTable& table = app->signal_table();
    const auto& specs = app->signals();
    ASSERT_EQ(table.size(), specs.size());
    for (apps::SignalId id = 0; id < specs.size(); ++id) {
        EXPECT_EQ(table.id(specs[id].name), id);
        EXPECT_EQ(table.name(id), specs[id].name);
    }
    EXPECT_EQ(app->uniform_config(kBinary32).size(), table.size());
}

TEST_P(AppConformanceTest, GoldenIsDeterministic) {
    const auto app = this->app();
    const auto out1 = app->golden(0);
    const auto out2 = app->golden(0);
    ASSERT_EQ(out1.size(), out2.size());
    for (std::size_t i = 0; i < out1.size(); ++i) {
        EXPECT_EQ(out1[i], out2[i]) << i;
    }
    EXPECT_GE(out1.size(), 8u); // enough samples for a stable SQNR
}

TEST_P(AppConformanceTest, InputSetsDiffer) {
    const auto app = this->app();
    const auto out0 = app->golden(0);
    const auto out1 = app->golden(1);
    ASSERT_EQ(out0.size(), out1.size());
    bool any_different = false;
    for (std::size_t i = 0; i < out0.size(); ++i) {
        any_different = any_different || out0[i] != out1[i];
    }
    EXPECT_TRUE(any_different);
}

TEST_P(AppConformanceTest, OutputsAreFinite) {
    const auto app = this->app();
    for (unsigned set = 0; set < 3; ++set) {
        for (const double v : app->golden(set)) {
            EXPECT_TRUE(std::isfinite(v));
        }
    }
}

TEST_P(AppConformanceTest, Binary32RunIsCloseToGolden) {
    const auto app = this->app();
    const auto golden = app->golden(0);
    app->prepare(0);
    sim::TpContext ctx{sim::TpContext::Config{.trace = false}};
    const auto out = app->run(ctx, app->uniform_config(kBinary32));
    ASSERT_EQ(out.size(), golden.size());
    EXPECT_LE(tuning::output_error(golden, out), 1e-3)
        << "binary32 should be a near-exact baseline";
}

/// One App::run with the calling thread's FlexFloat statistics collected
/// — the step-4 report of the paper's programming flow.
struct CountedRun {
    std::vector<double> output;
    std::map<FpFormat, OpCounts> ops;
    std::map<StatsRegistry::CastKey, std::array<std::uint64_t, 2>> casts;
    std::size_t instrs = 0; // traced runs only
};

[[nodiscard]] inline CountedRun counted_run(apps::App& app, unsigned set,
                                            const apps::TypeConfig& config,
                                            bool trace) {
    app.prepare(set);
    StatsRegistry& stats = thread_stats();
    stats.reset();
    stats.set_enabled(true);
    sim::TpContext ctx{sim::TpContext::Config{.trace = trace}};
    CountedRun run;
    run.output = app.run(ctx, config);
    stats.set_enabled(false);
    run.ops = stats.ops();
    run.casts = stats.casts();
    stats.reset();
    if (trace) run.instrs = ctx.take_program(false).instrs.size();
    return run;
}

// The kernel's two instantiations (apps/app.hpp KernelApp): traced on the
// TpContext, plain when App::run gets an untraced one. They must agree bit
// for bit — compared as bit patterns, since EXPECT_EQ on doubles accepts
// +0 against -0 and rejects equal NaNs — and book identical FlexFloat
// operation and cast counts, which perfbench's ns-per-op figure and the
// examples' operation reports read. The "shadow" binding is the static
// analysis' capture run: the tagging config under arith::ScopedBinary64,
// where no value is rounded.
TEST_P(AppConformanceTest, TracedAndUntracedRunsAgree) {
    const auto app = this->app();
    auto bindings = conformance_bindings(*app);
    bindings.emplace_back("shadow", analysis::tagging_config(app->signals().size()));

    for (const auto& [binding, config] : bindings) {
        const arith::ScopedBinary64 shadow{binding == "shadow"};
        for (unsigned set = 0; set < 3; ++set) {
            const std::string label =
                GetParam() + " " + binding + " set " + std::to_string(set);
            const CountedRun traced = counted_run(*app, set, config, true);
            const CountedRun plain = counted_run(*app, set, config, false);
            EXPECT_GT(traced.instrs, 0u) << label;
            ASSERT_EQ(traced.output.size(), plain.output.size()) << label;
            for (std::size_t i = 0; i < traced.output.size(); ++i) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(traced.output[i]),
                          std::bit_cast<std::uint64_t>(plain.output[i]))
                    << label << " output " << i << ": " << traced.output[i]
                    << " vs " << plain.output[i];
            }
            EXPECT_FALSE(traced.ops.empty()) << label;
            EXPECT_TRUE(traced.ops == plain.ops) << label << " op counts";
            EXPECT_TRUE(traced.casts == plain.casts) << label << " cast counts";
        }
    }
}

TEST_P(AppConformanceTest, TraceSimulates) {
    const auto app = this->app();
    app->prepare(0);
    sim::TpContext ctx;
    (void)app->run(ctx, app->uniform_config(kBinary32));
    const auto report = sim::simulate(ctx.take_program(true));
    EXPECT_GT(report.cycles, 0u);
    EXPECT_GT(report.fp_ops + report.fp_simd_lane_ops, 0u);
    EXPECT_GT(report.mem_accesses, 0u);
    EXPECT_GT(report.energy.total(), 0.0);
}

// EvalEngine::report prices its run while the kernel executes (TpContext's
// cost mode) and stores no trace. Its report must equal the replay of a
// separate traced run's stored program, vectorized when simd is on.
TEST_P(AppConformanceTest, EngineReportMatchesReplayedTrace) {
    const auto app = this->app();
    tuning::EvalEngine engine{*app, tuning::EvalEngine::Options{}};
    for (const auto& [binding, config] : conformance_bindings(*app)) {
        for (unsigned set = 0; set < 3; ++set) {
            for (const bool simd : {false, true}) {
                app->prepare(set);
                sim::TpContext ctx;
                (void)app->run(ctx, config);
                EXPECT_TRUE(engine.report(set, config, simd) ==
                            sim::simulate(ctx.take_program(simd)))
                    << GetParam() << " " << binding << " set " << set
                    << (simd ? " simd" : " scalar");
            }
        }
    }
}

TEST_P(AppConformanceTest, UniformBinary32HasNoCasts) {
    const auto app = this->app();
    app->prepare(0);
    sim::TpContext ctx;
    (void)app->run(ctx, app->uniform_config(kBinary32));
    std::uint64_t fp_casts = 0;
    for (const auto& instr : ctx.take_program(false).instrs) {
        if (instr.kind == sim::InstrKind::FpCast && instr.op != FpOp::FromInt &&
            instr.op != FpOp::ToInt && !(instr.fmt == instr.fmt2)) {
            ++fp_casts;
        }
    }
    EXPECT_EQ(fp_casts, 0u);
}

TEST_P(AppConformanceTest, NarrowFormatsDegradeGracefully) {
    // The narrowest member format may be arbitrarily inaccurate but must
    // not crash, and the wide-range binary16alt run must not saturate to
    // infinity (its dynamic range equals binary32's).
    const auto app = this->app();
    const auto golden = app->golden(0);
    app->prepare(0);
    sim::TpContext ctx8{sim::TpContext::Config{.trace = false}};
    const auto out8 = app->run(ctx8, app->uniform_config(kBinary8));
    EXPECT_EQ(out8.size(), golden.size());
    app->prepare(0);
    sim::TpContext ctx_alt{sim::TpContext::Config{.trace = false}};
    const auto out_alt = app->run(ctx_alt, app->uniform_config(kBinary16Alt));
    ASSERT_EQ(out_alt.size(), golden.size());
    for (const double v : out_alt) EXPECT_TRUE(std::isfinite(v));
}

// --- clone independence ------------------------------------------------------

TEST_P(AppConformanceTest, CloneSharesTableButNotWorkload) {
    const auto app = this->app();
    app->prepare(0);
    const auto clone = app->clone();
    EXPECT_EQ(app->name(), clone->name());
    // One immutable table instance serves the app and every clone.
    EXPECT_EQ(&app->signal_table(), &clone->signal_table());

    // The clone carries the prepared workload...
    const auto config = app->uniform_config(kBinary32);
    sim::TpContext c1{sim::TpContext::Config{.trace = false}};
    const auto original = app->run(c1, config);
    sim::TpContext c2{sim::TpContext::Config{.trace = false}};
    const auto copied = clone->run(c2, config);
    EXPECT_EQ(original, copied);

    // ...but re-preparing it never disturbs the original (the property the
    // engine's worker-private clone pool relies on).
    clone->prepare(1);
    sim::TpContext c3{sim::TpContext::Config{.trace = false}};
    EXPECT_EQ(app->run(c3, config), original);
    sim::TpContext c4{sim::TpContext::Config{.trace = false}};
    const auto reprepared = clone->run(c4, config);
    EXPECT_NE(reprepared, original);
    app->prepare(1);
    sim::TpContext c5{sim::TpContext::Config{.trace = false}};
    EXPECT_EQ(app->run(c5, config), reprepared);
}

// --- engine conformance ------------------------------------------------------

TEST_P(AppConformanceTest, EngineValidatesConfigSize) {
    const auto app = this->app();
    tuning::EvalEngine engine{*app, tuning::EvalEngine::Options{}};
    EXPECT_THROW((void)engine.output_error(0, apps::TypeConfig{}),
                 std::invalid_argument);
    EXPECT_THROW((void)engine.meets(
                     0, apps::TypeConfig{app->signals().size() + 1, kBinary32},
                     1e-1),
                 std::invalid_argument);
    EXPECT_THROW((void)engine.report(0, apps::TypeConfig{1}, false),
                 std::invalid_argument);
    // Rejected configs leave the counters untouched.
    EXPECT_EQ(engine.stats(), tuning::EvalStats{});
    EXPECT_NO_THROW((void)engine.output_error(0, app->uniform_config(kBinary32)));
}

// The engine memoizes each trial's relative error, not its output. That
// error must be bit for bit output_error of the app's golden against a
// plain App::run, cached or not, and meets() must give the span
// predicate's verdict, err^2 <= epsilon, at epsilon = err^2 and its two
// neighbours: the points where a reformulation of the predicate, in the
// engine or in quality.cpp (err <= sqrt(epsilon), say), would flip a
// verdict.
TEST_P(AppConformanceTest, EngineErrorMatchesDirectRun) {
    const auto app = this->app();
    for (const bool memoize : {true, false}) {
        tuning::EvalEngine engine{
            *app, tuning::EvalEngine::Options{.threads = 1, .memoize = memoize}};
        for (const auto& [binding, config] : conformance_bindings(*app)) {
            for (unsigned set = 0; set < 3; ++set) {
                const std::string label = GetParam() + " " + binding + " set " +
                                          std::to_string(set) +
                                          (memoize ? " memoized" : " uncached");
                const std::vector<double> golden = app->golden(set);
                app->prepare(set);
                sim::TpContext ctx{sim::TpContext::Config{.trace = false}};
                const std::vector<double> out = app->run(ctx, config);
                const double expected = tuning::output_error(golden, out);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.output_error(set, config)),
                          std::bit_cast<std::uint64_t>(expected))
                    << label << ": " << expected;

                const double square = expected * expected;
                for (const double epsilon :
                     {square, std::nextafter(square, 0.0),
                      std::nextafter(square, std::numeric_limits<double>::infinity())}) {
                    const bool verdict = engine.meets(set, config, epsilon);
                    EXPECT_EQ(verdict, tuning::meets_requirement(golden, out, epsilon))
                        << label << " epsilon " << epsilon;
                    EXPECT_EQ(verdict, square <= epsilon)
                        << label << " epsilon " << epsilon;
                }
            }
        }
    }
}

TEST_P(AppConformanceTest, EngineGoldenMatchesAppGoldenAndIsPinned) {
    const auto app = this->app();
    tuning::EvalEngine engine{*app, tuning::EvalEngine::Options{}};
    const auto expected = apps::make_app(GetParam())->golden(1);
    const auto& actual = engine.golden(1);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << i;
    }
    // The second request is a cache hit on pinned storage.
    EXPECT_EQ(&engine.golden(1), &actual);
    EXPECT_EQ(engine.stats().golden_runs, 1u);
}

// Cold cache, warm cache, disabled cache and the threads=4 path must all
// yield bit-identical TuningResults, program_runs included, with exact
// EvalStats at any thread count (the cache-coherent determinism contract,
// tuning/search.hpp); the warm and disabled caches also agree at the
// paper's other two epsilons.
TEST_P(AppConformanceTest, SearchIsCacheCoherentAndThreadCountInvariant) {
    const auto app = this->app();
    const auto options = conformance_search_options();

    tuning::EvalEngine cached{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const tuning::TuningResult cold = distributed_search(cached, options);
    const std::size_t cold_runs = cached.stats().kernel_runs;
    const tuning::TuningResult warm = distributed_search(cached, options);
    expect_identical_results(cold, warm, GetParam() + ": warm vs cold");
    // The warm search re-ran nothing.
    EXPECT_EQ(cached.stats().kernel_runs, cold_runs);
    EXPECT_GT(cached.stats().cache_hits, 0u);

    tuning::EvalEngine uncached{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = false}};
    const tuning::TuningResult reference = distributed_search(uncached, options);
    expect_identical_results(cold, reference, GetParam() + ": cold vs uncached");
    EXPECT_EQ(uncached.stats().cache_hits, 0u);

    tuning::EvalEngine parallel{
        *app, tuning::EvalEngine::Options{.threads = 4, .memoize = true}};
    const tuning::TuningResult threaded_cold = distributed_search(parallel, options);
    const tuning::TuningResult threaded_warm = distributed_search(parallel, options);
    expect_identical_results(cold, threaded_cold, GetParam() + ": threads=4 cold");
    expect_identical_results(cold, threaded_warm, GetParam() + ": threads=4 warm");

    // Counters are EXACT at any thread count (single-flight execution).
    EXPECT_EQ(parallel.stats(), cached.stats());

    // The paper's other two requirements, on the engine warmed by the
    // searches above: a cached error serves every epsilon.
    for (const double epsilon : {1e-3, 1e-1}) {
        auto at = options;
        at.epsilon = epsilon;
        expect_identical_results(distributed_search(cached, at),
                                 distributed_search(uncached, at),
                                 GetParam() + ": warm vs uncached at epsilon " +
                                     std::to_string(epsilon));
    }
}

// Cross-epsilon warm-starting (tuning/search.hpp): the chained sweep's
// per-signal tuned minima are ordered across 1e-3/1e-2/1e-1 and never
// above the independent searches', every result meets its requirement
// end-to-end under the bound formats, the chain submits strictly fewer
// trials than the independent sweep (the cut visible in
// trials_skipped_by_bounds), and the chained results are bit-identical
// at threads=4 — the warm-start axis of the determinism contract.
TEST_P(AppConformanceTest, WarmChainedSweepIsMonotoneFrugalAndFeasible) {
    const auto app = this->app();
    const auto base = conformance_search_options();
    const std::vector<double> epsilons{1e-3, 1e-2, 1e-1};

    tuning::EvalEngine independent_engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const auto independent = tuning::sweep_search(independent_engine, base,
                                                  epsilons,
                                                  /*warm_start_chain=*/false);
    tuning::EvalEngine warm_engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const auto warm =
        tuning::sweep_search(warm_engine, base, epsilons,
                             /*warm_start_chain=*/true);
    ASSERT_EQ(independent.size(), epsilons.size());
    ASSERT_EQ(warm.size(), epsilons.size());

    std::size_t independent_trials = 0;
    std::size_t warm_trials = 0;
    for (std::size_t e = 0; e < epsilons.size(); ++e) {
        independent_trials += independent[e].program_runs;
        warm_trials += warm[e].program_runs;
    }
    EXPECT_LT(warm_trials, independent_trials);
    EXPECT_GT(warm_engine.stats().trials_skipped_by_bounds, 0u);
    // An unchained sweep clamps nothing.
    EXPECT_EQ(independent_engine.stats().trials_skipped_by_bounds, 0u);

    for (std::size_t e = 0; e < epsilons.size(); ++e) {
        for (const unsigned set : base.input_sets) {
            EXPECT_TRUE(warm_engine.meets(set, warm[e].type_config(),
                                          epsilons[e]))
                << GetParam() << ": epsilon " << epsilons[e] << " set " << set;
        }
        for (std::size_t i = 0; i < warm[e].signals.size(); ++i) {
            EXPECT_LE(warm[e].signals[i].precision_bits,
                      independent[e].signals[i].precision_bits)
                << GetParam() << ": epsilon " << epsilons[e] << " signal "
                << warm[e].signals[i].name;
            if (e > 0) {
                EXPECT_LE(warm[e].signals[i].precision_bits,
                          warm[e - 1].signals[i].precision_bits)
                    << GetParam() << ": minima not ordered at epsilon "
                    << epsilons[e] << " signal " << warm[e].signals[i].name;
            }
        }
    }

    // Warm-started results are thread-count invariant like everything else.
    tuning::EvalEngine parallel{
        *app, tuning::EvalEngine::Options{.threads = 4, .memoize = true}};
    const auto threaded =
        tuning::sweep_search(parallel, base, epsilons, /*warm_start_chain=*/true);
    ASSERT_EQ(threaded.size(), warm.size());
    for (std::size_t e = 0; e < warm.size(); ++e) {
        expect_identical_results(warm[e], threaded[e],
                                 GetParam() + ": threads=4 chained sweep");
    }
    EXPECT_EQ(parallel.stats().trials_skipped_by_bounds,
              warm_engine.stats().trials_skipped_by_bounds);
}

// --- static-analysis soundness -----------------------------------------------

// The soundness contract of src/analysis/ (derive_bounds.hpp), checked
// dynamically on every app:
//
//   (a) enclosure — every value a genuinely rounded execution defines
//       sits inside the static range of its producing signal, with the
//       ranges evaluated at that execution's per-signal rounding steps;
//   (b) bound validity — the tuned per-signal minimum the full search
//       finds is never below the analysis lower bound, at threads=1 and
//       threads=4;
//   (c) result identity — a static_bounds search returns the cold
//       search's result bit-identically, in no more trials, and books
//       its savings in trials_skipped_by_bounds.
TEST_P(AppConformanceTest, StaticAnalysisBoundsAreSound) {
    const auto app = this->app();
    const auto options = conformance_search_options();
    const std::size_t S = app->signals().size();

    for (const unsigned set : options.input_sets) {
        // (a) A real rounded run under the staircase config (pairwise
        // distinct formats, so it aligns with the shadow run), recorded
        // through the sink seam, against the ranges a shadow run folds at
        // that config's per-signal rounding steps.
        const apps::TypeConfig probe = analysis::staircase_config(S);
        analysis::ShadowOptions shadow_options;
        shadow_options.drift_steps.assign(S, 0.0);
        for (std::size_t s = 0; s < S; ++s) {
            shadow_options.drift_steps[s] = std::ldexp(
                1.0, -(static_cast<int>(
                           probe[static_cast<apps::SignalId>(s)].mant_bits) +
                       1));
        }
        shadow_options.inflation = 4.0;
        const auto ranges =
            analysis::shadow_run(*app, set, shadow_options).ranges;
        const RecordedRun shadow = record_shadow_run(*app, set);
        const RecordedRun observed =
            record_run(*app, set, probe, /*shadow=*/false);

        // Positional attribution when the instruction streams match; when a
        // rounded compare flipped a data-dependent branch, stream-level
        // attribution (stream ids are run-invariant).
        const auto mapped = attribute_values(observed, shadow, S);
        ASSERT_EQ(mapped.size(), observed.values.size());
        for (std::size_t id = 0; id < observed.values.size(); ++id) {
            const std::int32_t sig = mapped[id];
            if (sig < 0) continue;
            const analysis::StaticRange& range =
                ranges[static_cast<std::size_t>(sig)];
            if (!range.populated) continue;
            const double v = observed.values[id].value;
            if (!std::isfinite(v)) continue; // overflowed formats are lint's job
            EXPECT_GE(v, range.lo) << GetParam() << ": set " << set
                                   << " value " << id << " signal " << sig;
            EXPECT_LE(v, range.hi) << GetParam() << ": set " << set
                                   << " value " << id << " signal " << sig;
        }
    }

    // (b) Tuned minima never undercut the static lower bounds.
    const tuning::WarmStart warm = analysis::derive_warm_start(
        *app, options.epsilon, options.input_sets, options.type_system);
    ASSERT_EQ(warm.lower_bounds.size(), S);
    for (const unsigned threads : {1u, 4u}) {
        tuning::EvalEngine engine{
            *app,
            tuning::EvalEngine::Options{.threads = threads, .memoize = true}};
        const tuning::TuningResult tuned = distributed_search(engine, options);
        ASSERT_EQ(tuned.signals.size(), S);
        for (std::size_t s = 0; s < S; ++s) {
            EXPECT_GE(tuned.signals[s].precision_bits, warm.lower_bounds[s])
                << GetParam() << ": threads " << threads << " signal "
                << tuned.signals[s].name;
        }
    }

    // (c) static_bounds reproduces the cold result exactly, cheaper.
    tuning::EvalEngine cold_engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const tuning::TuningResult cold = distributed_search(cold_engine, options);
    auto bounded_options = options;
    bounded_options.static_bounds = true;
    tuning::EvalEngine bounded_engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const tuning::TuningResult bounded =
        distributed_search(bounded_engine, bounded_options);
    ASSERT_EQ(bounded.signals.size(), cold.signals.size());
    for (std::size_t s = 0; s < S; ++s) {
        EXPECT_EQ(bounded.signals[s].precision_bits,
                  cold.signals[s].precision_bits)
            << GetParam() << ": signal " << cold.signals[s].name;
        EXPECT_EQ(bounded.signals[s].bound, cold.signals[s].bound)
            << GetParam() << ": signal " << cold.signals[s].name;
    }
    EXPECT_LE(bounded.program_runs, cold.program_runs) << GetParam();
    EXPECT_EQ(cold_engine.stats().trials_skipped_by_bounds, 0u);
}

// --- cast-aware determinism -------------------------------------------------

// The determinism contract (search.hpp) extended to the cast-aware pass:
// its candidate-cost probes and quality checks fan out on the engine's
// pool, and reductions are by candidate index, so threads=1 and threads=4
// return the same base search, binding, energies, cast counts, and moves.
// EvalStats are deliberately not compared: the serial quality check stops
// at the first failing input set and the pooled one checks every set, so
// the trial counts differ by design.
TEST_P(AppConformanceTest, CastAwareIsThreadCountInvariant) {
    tuning::CastAwareOptions options;
    options.search = conformance_search_options();
    options.max_rounds = 2;

    const auto run = [&](unsigned threads) {
        options.search.threads = threads;
        const auto app = this->app();
        tuning::EvalEngine engine{
            *app,
            tuning::EvalEngine::Options{.threads = threads, .memoize = true}};
        return cast_aware_search(engine, options);
    };
    const tuning::CastAwareResult serial = run(1);
    const tuning::CastAwareResult pooled = run(4);

    const std::string label = GetParam() + ": threads=1 vs threads=4";
    expect_identical_results(serial.base, pooled.base, label + " base search");
    ASSERT_EQ(serial.config.size(), pooled.config.size()) << label;
    for (apps::SignalId id = 0; id < serial.config.size(); ++id) {
        EXPECT_EQ(serial.config.at(id), pooled.config.at(id))
            << label << " signal " << id;
    }
    EXPECT_EQ(serial.base_energy_pj, pooled.base_energy_pj) << label;
    EXPECT_EQ(serial.tuned_energy_pj, pooled.tuned_energy_pj) << label;
    EXPECT_EQ(serial.base_casts, pooled.base_casts) << label;
    EXPECT_EQ(serial.tuned_casts, pooled.tuned_casts) << label;
    EXPECT_EQ(serial.moves_accepted, pooled.moves_accepted) << label;
}

} // namespace tp::testing

/// Instantiates the battery for a list of app names. `suite_prefix` keys
/// the gtest instantiation; the name generator keeps parameters readable
/// in ctest output ('-' is not a valid test-name character). The
/// using-declaration is what lets INSTANTIATE_TEST_SUITE_P see the fixture
/// from the caller's namespace (repeating it is legal).
#define TP_INSTANTIATE_APP_CONFORMANCE(suite_prefix, ...)                      \
    using tp::testing::AppConformanceTest;                                     \
    INSTANTIATE_TEST_SUITE_P(                                                  \
        suite_prefix, AppConformanceTest, __VA_ARGS__,                         \
        [](const ::testing::TestParamInfo<std::string>& info) {                \
            std::string name = info.param;                                     \
            for (char& c : name) {                                             \
                if (c == '-') c = '_';                                         \
            }                                                                  \
            return name;                                                       \
        })
