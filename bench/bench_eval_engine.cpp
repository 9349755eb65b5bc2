// EvalEngine memoization under a realistic tuning session
// (tuning/eval_engine.hpp).
//
// The paper's evaluation tunes every application at three quality
// requirements (epsilon 1e-3 / 1e-2 / 1e-1). The engine's trial cache is
// epsilon-independent by construction — it memoizes each output's ERROR
// against the golden, keyed by (input_set, config), and the requirement is
// applied to the cached error — so an epsilon sweep over one app on a
// shared engine reuses every overlapping probe. This bench runs that
// sweep over every registered workload (the paper's six kernels plus
// fft / iir / mlp), per app twice:
//
//   * shared engine, memoization on  — counts kernel runs vs cache hits;
//   * fresh engine, memoization off  — the pre-cache reference: same
//     results (verified bit-exact), every trial a kernel execution.
//
// Results (per-app counters, aggregate elimination, wall times) go to
// BENCH_eval_engine.json, the one place the per-app eliminated fractions
// are reported.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "harness.hpp"
#include "json.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using tp::bench::identical_results;
using tp::bench::seconds_since;

tp::tuning::SearchOptions options_for(double epsilon) {
    return tp::bench::bench_search_options(epsilon, tp::TypeSystemKind::V2);
}

/// One full (uncached) epsilon sweep on a fresh engine with the arithmetic
/// backend pinned via Options::force_emulated. Returns the wall time and
/// fills `results` with the three per-epsilon tuning results.
double timed_sweep(tp::apps::App& app, bool force_emulated,
                   std::vector<tp::tuning::TuningResult>& results) {
    tp::tuning::EvalEngine engine{
        app, tp::tuning::EvalEngine::Options{.threads = 1,
                                             .memoize = false,
                                             .force_emulated = force_emulated}};
    results.clear();
    const auto start = Clock::now();
    for (const double epsilon : tp::bench::kEpsilons) {
        results.push_back(
            tp::tuning::distributed_search(engine, options_for(epsilon)));
    }
    return seconds_since(start);
}

/// Repeated uncached trials at a uniform binary32 config — the scenario
/// where every routed op maps onto the native fast path. Search sweeps
/// dilute the backend effect (most V2 candidates are binary8/16/16alt,
/// emulated on every backend); this isolates the hardware-mappable case
/// end-to-end through the engine. `last_error` receives the last trial's
/// error (input set 0).
double timed_uniform_trials(tp::apps::App& app, bool force_emulated, int trials,
                            double& last_error) {
    tp::tuning::EvalEngine engine{
        app, tp::tuning::EvalEngine::Options{.threads = 1,
                                             .memoize = false,
                                             .force_emulated = force_emulated}};
    const auto config = app.uniform_config(tp::kBinary32);
    // A trial is judged against its set's golden: pin the three outside
    // the timed loop.
    for (unsigned set = 0; set < 3; ++set) (void)engine.golden(set);
    const auto start = Clock::now();
    for (int i = 0; i < trials; ++i) {
        last_error = engine.output_error(static_cast<unsigned>(i % 3), config);
    }
    return seconds_since(start);
}

/// The uniform-binary32 output on input set 0, run directly under the
/// backend pin: the engine keeps only each trial's error.
std::vector<double> uniform_output(tp::apps::App& app, bool force_emulated) {
    const tp::arith::ScopedForceEmulated backend{force_emulated};
    app.prepare(0);
    tp::sim::TpContext ctx{tp::sim::TpContext::Config{.trace = false}};
    return app.run(ctx, app.uniform_config(tp::kBinary32));
}

} // namespace

int main() {
    std::printf("# EvalEngine memoization — epsilon sweep (1e-3, 1e-2, 1e-1), "
                "V2, serial engine\n\n");
    std::printf("%-8s %-8s %-8s %-8s %-12s %-10s %-10s %s\n", "app", "trials",
                "runs", "hits", "eliminated", "cached_s", "uncached_s",
                "identical");

    bool all_identical = true;
    auto apps_json = tp::bench::Json::array();

    for (const std::string& app_name : tp::apps::app_names()) {
        auto app = tp::apps::make_app(app_name);

        tp::tuning::EvalEngine cached{
            *app,
            tp::tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
        tp::tuning::EvalEngine uncached{
            *app,
            tp::tuning::EvalEngine::Options{.threads = 1, .memoize = false}};

        bool matches = true;
        auto sweep_json = tp::bench::Json::array();

        const auto cached_start = Clock::now();
        std::vector<tp::tuning::TuningResult> cached_results;
        for (const double epsilon : tp::bench::kEpsilons) {
            cached_results.push_back(
                tp::tuning::distributed_search(cached, options_for(epsilon)));
        }
        const double cached_seconds = seconds_since(cached_start);

        const auto uncached_start = Clock::now();
        for (std::size_t e = 0; e < tp::bench::kEpsilons.size(); ++e) {
            const auto reference = tp::tuning::distributed_search(
                uncached, options_for(tp::bench::kEpsilons[e]));
            const bool step_matches = identical_results(cached_results[e], reference);
            matches = matches && step_matches;
            sweep_json.item_raw(
                tp::bench::Json::object()
                    .field("epsilon", tp::bench::kEpsilons[e])
                    .field("program_runs", reference.program_runs)
                    .field("bit_identical", step_matches)
                    .str(4));
        }
        const double uncached_seconds = seconds_since(uncached_start);

        const auto stats = cached.stats();
        all_identical = all_identical && matches;
        std::printf("%-8s %-8zu %-8zu %-8zu %-12.1f %-10.3f %-10.3f %s\n",
                    app_name.c_str(), stats.trials, stats.kernel_runs, stats.cache_hits,
                    100.0 * stats.hit_rate(), cached_seconds, uncached_seconds,
                    matches ? "yes" : "NO");

        apps_json.item_raw(
            tp::bench::Json::object()
                .field("app", app_name)
                .field("trials", stats.trials)
                .field("kernel_runs", stats.kernel_runs)
                .field("cache_hits", stats.cache_hits)
                .field("eliminated_fraction", stats.hit_rate())
                .field("golden_runs", stats.golden_runs)
                .field("cached_wall_seconds", cached_seconds)
                .field("uncached_wall_seconds", uncached_seconds)
                .field("bit_identical", matches)
                .raw("per_epsilon", sweep_json.str(4))
                .str(2));
    }

    // --- Cross-epsilon warm-starting -------------------------------------
    // The algorithmic cut memoization cannot reach: sweep_search chains the
    // three epsilons (tight to loose), seeding each search from the
    // previous result and clamping probe ranges by monotonicity, so trials
    // are never SUBMITTED rather than merely served from cache. Both sides
    // run on a fresh shared memoized engine so the wall-time comparison is
    // engine-for-engine fair. Gates: on every app the warm sweep submits
    // fewer trials than the independent one, books skipped bisection
    // steps, and meets each epsilon at per-signal precision <= the
    // independent search's; >= 25% fewer trials on >= 7 of 9 apps.
    std::printf("\n# warm-started sweep vs independent searches "
                "(sweep_search, shared memoized engine)\n\n");
    std::printf("%-8s %-9s %-9s %-7s %-9s %-9s %-8s %-7s %s\n", "app",
                "ind_tr", "warm_tr", "cut%", "ind_runs", "warm_runs",
                "skipped", "<=ind", "meets");

    int apps_with_headline_cut = 0;
    bool all_cut_trials = true;
    bool all_skipped_steps = true;
    bool all_meet_epsilon = true;
    bool all_le_independent = true;
    auto warm_json = tp::bench::Json::array();
    for (const std::string& app_name : tp::apps::app_names()) {
        auto app = tp::apps::make_app(app_name);
        const auto base = options_for(tp::bench::kEpsilons.front());

        tp::tuning::EvalEngine independent_engine{
            *app,
            tp::tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
        const auto independent_start = Clock::now();
        const auto independent =
            tp::tuning::sweep_search(independent_engine, base,
                                     tp::bench::kEpsilons,
                                     /*warm_start_chain=*/false);
        const double independent_seconds = seconds_since(independent_start);
        const auto independent_stats = independent_engine.stats();

        tp::tuning::EvalEngine warm_engine{
            *app,
            tp::tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
        const auto warm_start = Clock::now();
        const auto warm =
            tp::tuning::sweep_search(warm_engine, base, tp::bench::kEpsilons,
                                     /*warm_start_chain=*/true);
        const double warm_seconds = seconds_since(warm_start);
        const auto warm_stats = warm_engine.stats();

        std::size_t independent_trials = 0;
        std::size_t warm_trials = 0;
        for (std::size_t e = 0; e < tp::bench::kEpsilons.size(); ++e) {
            independent_trials += independent[e].program_runs;
            warm_trials += warm[e].program_runs;
        }

        // Gate trials run AFTER the stats snapshots so they do not pollute
        // the recorded series. meets() re-checks end-to-end under the
        // bound formats — the binding the program would actually ship.
        bool meets = true;
        bool le_independent = true;
        for (std::size_t e = 0; e < tp::bench::kEpsilons.size(); ++e) {
            for (const unsigned set : base.input_sets) {
                meets = meets && warm_engine.meets(set, warm[e].type_config(),
                                                   tp::bench::kEpsilons[e]);
            }
            for (std::size_t i = 0; i < warm[e].signals.size(); ++i) {
                le_independent =
                    le_independent && warm[e].signals[i].precision_bits <=
                                          independent[e].signals[i].precision_bits;
            }
        }
        all_cut_trials = all_cut_trials && warm_trials < independent_trials;
        all_skipped_steps =
            all_skipped_steps && warm_stats.trials_skipped_by_bounds > 0;
        all_meet_epsilon = all_meet_epsilon && meets;
        all_le_independent = all_le_independent && le_independent;

        const double cut =
            independent_trials > 0
                ? 1.0 - static_cast<double>(warm_trials) /
                            static_cast<double>(independent_trials)
                : 0.0;
        if (cut >= 0.25) ++apps_with_headline_cut;

        std::printf("%-8s %-9zu %-9zu %-7.1f %-9zu %-9zu %-8zu %-7s %s\n",
                    app_name.c_str(), independent_trials, warm_trials,
                    100.0 * cut, independent_stats.kernel_runs,
                    warm_stats.kernel_runs,
                    warm_stats.trials_skipped_by_bounds,
                    le_independent ? "yes" : "NO", meets ? "yes" : "NO");

        warm_json.item_raw(
            tp::bench::Json::object()
                .field("app", app_name)
                .field("independent_trials", independent_trials)
                .field("warm_trials", warm_trials)
                .field("trials_cut_fraction", cut)
                .field("independent_kernel_runs", independent_stats.kernel_runs)
                .field("warm_kernel_runs", warm_stats.kernel_runs)
                .field("trials_skipped_by_bounds",
                       warm_stats.trials_skipped_by_bounds)
                .field("independent_wall_seconds", independent_seconds)
                .field("warm_wall_seconds", warm_seconds)
                .field("meets_epsilon", meets)
                .field("precision_le_independent", le_independent)
                .str(2));
    }
    const bool headline_cut = apps_with_headline_cut >= 7;
    std::printf("\n%d/9 apps cut trials by >= 25%%\n", apps_with_headline_cut);

    // --- Static precision-dataflow bounds --------------------------------
    // The cut available BEFORE any trial history exists: a cold,
    // never-tuned app, one epsilon, and SearchOptions::static_bounds
    // resolving analysis::derive_warm_start from shadow reference
    // executions alone (analysis/derive_bounds.hpp). The soundness
    // contract makes the bounded search's signals bit-identical to the
    // cold search's — checked per app — while probe bisections clamp
    // against the derived lower bounds and book their savings in
    // EvalStats::trials_skipped_by_bounds. Gates: identical signals and
    // no more program runs than the cold search on 9/9 apps, skipped
    // trials > 0 on >= 7 of 9.
    std::printf("\n# static bounds — cold single-epsilon search, "
                "derive_warm_start vs unassisted (epsilon %g)\n\n",
                tp::bench::kEpsilons.front());
    std::printf("%-8s %-9s %-9s %-9s %-9s %-8s %s\n", "app", "cold_tr",
                "stat_tr", "cold_rn", "stat_rn", "skipped", "identical");

    int apps_with_skips = 0;
    bool all_static_identical = true;
    bool all_static_no_more_runs = true;
    auto static_json = tp::bench::Json::array();
    for (const std::string& app_name : tp::apps::app_names()) {
        auto app = tp::apps::make_app(app_name);
        const auto base = options_for(tp::bench::kEpsilons.front());

        tp::tuning::EvalEngine cold_engine{
            *app,
            tp::tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
        const auto cold_start = Clock::now();
        const auto cold = tp::tuning::distributed_search(cold_engine, base);
        const double cold_seconds = seconds_since(cold_start);
        const auto cold_stats = cold_engine.stats();

        auto bounded_options = base;
        bounded_options.static_bounds = true;
        tp::tuning::EvalEngine bounded_engine{
            *app,
            tp::tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
        const auto bounded_start = Clock::now();
        const auto bounded =
            tp::tuning::distributed_search(bounded_engine, bounded_options);
        const double bounded_seconds = seconds_since(bounded_start);
        const auto bounded_stats = bounded_engine.stats();

        // program_runs legitimately shrinks; the tuned signals must not.
        bool same_signals = cold.signals.size() == bounded.signals.size();
        for (std::size_t i = 0; same_signals && i < cold.signals.size(); ++i) {
            same_signals = cold.signals[i].name == bounded.signals[i].name &&
                           cold.signals[i].precision_bits ==
                               bounded.signals[i].precision_bits &&
                           cold.signals[i].bound == bounded.signals[i].bound;
        }
        all_static_identical = all_static_identical && same_signals;
        all_static_no_more_runs = all_static_no_more_runs &&
                                  bounded.program_runs <= cold.program_runs;
        if (bounded_stats.trials_skipped_by_bounds > 0) ++apps_with_skips;

        std::printf("%-8s %-9zu %-9zu %-9zu %-9zu %-8zu %s\n",
                    app_name.c_str(), cold_stats.trials, bounded_stats.trials,
                    cold.program_runs, bounded.program_runs,
                    bounded_stats.trials_skipped_by_bounds,
                    same_signals ? "yes" : "NO");

        static_json.item_raw(
            tp::bench::Json::object()
                .field("app", app_name)
                .field("cold_trials", cold_stats.trials)
                .field("static_trials", bounded_stats.trials)
                .field("cold_program_runs", cold.program_runs)
                .field("static_program_runs", bounded.program_runs)
                .field("trials_skipped_by_bounds",
                       bounded_stats.trials_skipped_by_bounds)
                .field("cold_wall_seconds", cold_seconds)
                .field("static_wall_seconds", bounded_seconds)
                .field("identical_signals", same_signals)
                .str(2));
    }
    const bool static_skips_gate = apps_with_skips >= 7;
    std::printf("\n%d/9 apps skipped trials via static bounds\n",
                apps_with_skips);

    // --- Arithmetic-backend A/B ------------------------------------------
    // Same uncached sweep with the backend pinned per engine through
    // Options::force_emulated: native fast path vs forced emulation,
    // interleaved in one process so machine drift hits both sides equally
    // (best-of-N per side). The searches must return byte-identical
    // results — the backend contract — which is re-checked here end-to-end.
    std::printf("\n# backend A/B — uncached sweep, native fast path vs "
                "Options::force_emulated\n\n");
    std::printf("%-8s %-10s %-12s %-9s %-10s %-12s %-9s %s\n", "app",
                "search_n", "search_e", "speedup", "b32_n", "b32_e", "speedup",
                "identical");

    constexpr int kBackendReps = 3;
    auto backend_json = tp::bench::Json::array();
    for (const std::string& app_name : {std::string{"jacobi"},
                                        std::string{"svm"},
                                        std::string{"conv"}}) {
        auto app = tp::apps::make_app(app_name);
        std::vector<tp::tuning::TuningResult> native_results;
        std::vector<tp::tuning::TuningResult> emulated_results;
        double native_best = 0.0;
        double emulated_best = 0.0;
        bool matches = true;
        for (int rep = 0; rep < kBackendReps; ++rep) {
            const double native_s = timed_sweep(*app, false, native_results);
            const double emulated_s = timed_sweep(*app, true, emulated_results);
            native_best = rep == 0 ? native_s : std::min(native_best, native_s);
            emulated_best =
                rep == 0 ? emulated_s : std::min(emulated_best, emulated_s);
            for (std::size_t e = 0; e < native_results.size(); ++e) {
                matches = matches && identical_results(native_results[e],
                                                       emulated_results[e]);
            }
        }
        // Uniform-binary32 trials: the all-native-format case.
        constexpr int kUniformTrials = 100;
        double native_error = 0.0;
        double emulated_error = 0.0;
        double trials_native_best = 0.0;
        double trials_emulated_best = 0.0;
        for (int rep = 0; rep < kBackendReps; ++rep) {
            const double native_s =
                timed_uniform_trials(*app, false, kUniformTrials, native_error);
            const double emulated_s =
                timed_uniform_trials(*app, true, kUniformTrials, emulated_error);
            trials_native_best =
                rep == 0 ? native_s : std::min(trials_native_best, native_s);
            trials_emulated_best =
                rep == 0 ? emulated_s : std::min(trials_emulated_best, emulated_s);
            matches = matches && std::bit_cast<std::uint64_t>(native_error) ==
                                     std::bit_cast<std::uint64_t>(emulated_error);
        }
        matches = matches && uniform_output(*app, false) == uniform_output(*app, true);

        const double speedup = native_best > 0.0 ? emulated_best / native_best : 0.0;
        const double trials_speedup = trials_native_best > 0.0
                                          ? trials_emulated_best / trials_native_best
                                          : 0.0;
        all_identical = all_identical && matches;
        std::printf("%-8s %-10.3f %-12.3f %-9.2f %-10.3f %-12.3f %-9.2f %s\n",
                    app_name.c_str(), native_best, emulated_best, speedup,
                    trials_native_best, trials_emulated_best, trials_speedup,
                    matches ? "yes" : "NO");
        backend_json.item_raw(
            tp::bench::Json::object()
                .field("app", app_name)
                .field("search_native_wall_seconds", native_best)
                .field("search_forced_emulated_wall_seconds", emulated_best)
                .field("search_speedup_native_vs_emulated", speedup)
                .field("uniform_b32_native_wall_seconds", trials_native_best)
                .field("uniform_b32_forced_emulated_wall_seconds", trials_emulated_best)
                .field("uniform_b32_speedup_native_vs_emulated", trials_speedup)
                .field("bit_identical", matches)
                .str(2));
    }

    const auto doc = tp::bench::Json::object()
                         .field("bench", "bench_eval_engine")
                         .field("scenario", "epsilon sweep 1e-3/1e-2/1e-1 on a shared engine")
                         .raw("apps", apps_json.str(2))
                         .field("apps_with_cut_ge_25pct", apps_with_headline_cut)
                         .raw("sweep_warm_start", warm_json.str(2))
                         .field("apps_with_static_skips", apps_with_skips)
                         .raw("static_bounds", static_json.str(2))
                         .raw("backend_ab", backend_json.str(2));
    std::ofstream out{"BENCH_eval_engine.json"};
    out << doc.str() << "\n";
    std::printf("\nwrote BENCH_eval_engine.json\n");

    if (!all_identical) {
        std::printf("FAIL: cached results diverged from the uncached path\n");
        return 1;
    }
    if (!all_meet_epsilon) {
        std::printf("FAIL: a warm-started result missed its epsilon\n");
        return 1;
    }
    if (!all_le_independent) {
        std::printf("FAIL: a warm-started result exceeded the independent "
                    "search's precision\n");
        return 1;
    }
    if (!all_cut_trials) {
        std::printf("FAIL: a warm-started sweep did not submit fewer trials "
                    "than the independent searches\n");
        return 1;
    }
    if (!all_skipped_steps) {
        std::printf("FAIL: a warm-started sweep skipped no bisection steps\n");
        return 1;
    }
    if (!headline_cut) {
        std::printf("FAIL: warm-started sweep cut trials by >= 25%% on only "
                    "%d/9 apps (need 7)\n", apps_with_headline_cut);
        return 1;
    }
    if (!all_static_identical) {
        std::printf("FAIL: a static-bounds search changed the tuned signals\n");
        return 1;
    }
    if (!all_static_no_more_runs) {
        std::printf("FAIL: a static-bounds search submitted more program runs "
                    "than the cold search\n");
        return 1;
    }
    if (!static_skips_gate) {
        std::printf("FAIL: static bounds skipped trials on only %d/9 apps "
                    "(need 7)\n", apps_with_skips);
        return 1;
    }
    std::printf("cached and uncached searches returned bit-identical results\n");
    return 0;
}
