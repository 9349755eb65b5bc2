// Signal interning, TypeConfig hashing, and the EvalEngine's
// cache-coherent determinism contract (see tuning/eval_engine.hpp and the
// contract block in tuning/search.hpp).
#include "tuning/eval_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "apps/signal_table.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/search.hpp"

namespace {

using tp::apps::SignalId;
using tp::apps::SignalSpec;
using tp::apps::SignalTable;
using tp::apps::TypeConfig;
using tp::tuning::distributed_search;
using tp::tuning::EvalEngine;
using tp::tuning::EvalStats;
using tp::tuning::SearchOptions;
using tp::tuning::TuningResult;

// --- SignalTable interning --------------------------------------------------

TEST(SignalTable, IdsFollowDeclarationOrder) {
    const SignalTable table{{{"grid", 16}, {"coeff", 1}, {"acc", 1}}};
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.id("grid"), 0u);
    EXPECT_EQ(table.id("coeff"), 1u);
    EXPECT_EQ(table.id("acc"), 2u);
    EXPECT_EQ(table.name(0), "grid");
    EXPECT_EQ(table.spec(1).elements, 1u);
    EXPECT_EQ(table.spec(0).elements, 16u);
}

TEST(SignalTable, UnknownNamesAreLoud) {
    const SignalTable table{{{"a", 1}, {"b", 1}}};
    EXPECT_FALSE(table.find("c").has_value());
    EXPECT_TRUE(table.contains("a"));
    EXPECT_FALSE(table.contains("ab"));
    EXPECT_THROW((void)table.id("c"), std::out_of_range);
    EXPECT_THROW((void)table.name(5), std::out_of_range);
}

TEST(SignalTable, RejectsDuplicateNames) {
    EXPECT_THROW(SignalTable({{"x", 1}, {"y", 1}, {"x", 2}}),
                 std::invalid_argument);
}

// Per-app table/clone conformance (declaration-order ids, table shared
// with clones) runs for every registered app in the shared battery —
// tests/app_conformance.hpp, instantiated by test_app_conformance.cpp.

// --- TypeConfig hashing and equality ----------------------------------------

TEST(TypeConfig, EqualityAndHashTrackContents) {
    TypeConfig a{3, tp::kBinary16};
    TypeConfig b{3, tp::kBinary16};
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());

    b.set(1, tp::kBinary32);
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    a.set(1, tp::kBinary32);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(TypeConfig, PositionMattersForHash) {
    // binary16 {5,10} vs binary16alt {8,7} swapped between two slots: same
    // multiset of formats, different binding.
    TypeConfig a{2, tp::kBinary16};
    a.set(1, tp::kBinary16Alt);
    TypeConfig b{2, tp::kBinary16Alt};
    b.set(1, tp::kBinary16);
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(TypeConfig, IndexedAccess) {
    TypeConfig config{4, tp::kBinary32};
    config.set(2, tp::kBinary8);
    EXPECT_EQ(config[2], tp::kBinary8);
    EXPECT_EQ(config.at(3), tp::kBinary32);
    EXPECT_THROW((void)config.at(4), std::out_of_range);
    EXPECT_THROW(config.set(4, tp::kBinary8), std::out_of_range);
    EXPECT_EQ(config.size(), 4u);
}

TEST(TypeConfig, UniformConfigCoversEverySignal) {
    const auto app = tp::apps::make_app("svm");
    const TypeConfig config = app->uniform_config(tp::kBinary16);
    ASSERT_EQ(config.size(), app->signals().size());
    for (SignalId id = 0; id < config.size(); ++id) {
        EXPECT_EQ(config[id], tp::kBinary16);
    }
}

// --- EvalEngine memoization -------------------------------------------------

// Golden caching against App::golden, and each cached error against a
// direct run, are covered per app by the battery
// (AppConformanceTest.EngineGoldenMatchesAppGoldenAndIsPinned and
// AppConformanceTest.EngineErrorMatchesDirectRun).

/// A double's bit pattern: EXPECT_EQ on doubles accepts +0 against -0 and
/// rejects equal NaNs, and a cached error must be the very bits a re-run
/// produces.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(EvalEngine, RepeatedTrialsHitTheCache) {
    const auto app = tp::apps::make_app("conv");
    EvalEngine engine{*app, EvalEngine::Options{}};
    const TypeConfig config = app->uniform_config(tp::kBinary16);

    const double first = engine.output_error(0, config);
    const double second = engine.output_error(0, config);
    EXPECT_EQ(bits(first), bits(second));
    auto stats = engine.stats();
    EXPECT_EQ(stats.trials, 2u);
    EXPECT_EQ(stats.kernel_runs, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.golden_runs, 1u); // the miss pinned set 0's golden

    // A different input set is a different trial.
    (void)engine.output_error(1, config);
    stats = engine.stats();
    EXPECT_EQ(stats.kernel_runs, 2u);
    EXPECT_EQ(stats.golden_runs, 2u);

    // meets() applies epsilon to the cached error: two requirements, one
    // kernel execution.
    (void)engine.meets(0, config, 1e-1);
    (void)engine.meets(0, config, 1e-6);
    stats = engine.stats();
    EXPECT_EQ(stats.trials, 5u);
    EXPECT_EQ(stats.kernel_runs, 2u);
    EXPECT_EQ(stats.cache_hits, 3u);
    EXPECT_EQ(stats.golden_runs, 2u);
}

TEST(EvalEngine, RejectsAnotherAppsConfig) {
    // Size validation itself runs per app in the battery
    // (AppConformanceTest.EngineValidatesConfigSize); this pins the
    // cross-app flavor — a config interned for one table must not flow
    // into another app's engine.
    const auto app = tp::apps::make_app("pca"); // 7 signals
    EvalEngine engine{*app, EvalEngine::Options{}};
    const auto other = tp::apps::make_app("jacobi"); // 4 signals
    EXPECT_THROW((void)engine.meets(0, other->uniform_config(tp::kBinary32), 1e-1),
                 std::invalid_argument);
    EXPECT_EQ(engine.stats().trials, 0u);
}

TEST(EvalEngine, MemoizationCanBeDisabled) {
    const auto app = tp::apps::make_app("knn");
    EvalEngine engine{*app, EvalEngine::Options{.threads = 1, .memoize = false}};
    const TypeConfig config = app->uniform_config(tp::kBinary16);
    const double first = engine.output_error(0, config);
    const double second = engine.output_error(0, config);
    EXPECT_EQ(bits(first), bits(second)); // determinism, not caching
    const auto stats = engine.stats();
    EXPECT_EQ(stats.trials, 2u);
    EXPECT_EQ(stats.kernel_runs, 2u);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.golden_runs, 1u); // goldens are pinned either way
}

TEST(EvalEngine, ReportCacheKeysOnSimd) {
    const auto app = tp::apps::make_app("dwt");
    EvalEngine engine{*app, EvalEngine::Options{}};
    const TypeConfig config = app->uniform_config(tp::kBinary16);
    const auto scalar = engine.report(0, config, /*simd=*/false);
    const auto simd = engine.report(0, config, /*simd=*/true);
    EXPECT_LT(simd.cycles, scalar.cycles); // DWT vectorizes
    const auto again = engine.report(0, config, /*simd=*/true);
    EXPECT_EQ(again.cycles, simd.cycles);
    EXPECT_EQ(again.energy.total(), simd.energy.total());
    const auto stats = engine.stats();
    EXPECT_EQ(stats.trials, 3u);
    EXPECT_EQ(stats.kernel_runs, 2u); // (simd=false), (simd=true); third hit
    EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(EvalEngine, ClearCacheForcesRerunsButKeepsGoldens) {
    const auto app = tp::apps::make_app("knn");
    EvalEngine engine{*app, EvalEngine::Options{}};
    const TypeConfig config = app->uniform_config(tp::kBinary8);
    const auto& golden = engine.golden(0);
    const double first = engine.output_error(0, config);
    engine.clear_cache();
    const double second = engine.output_error(0, config);
    EXPECT_EQ(bits(first), bits(second));
    EXPECT_EQ(engine.stats().kernel_runs, 2u);
    // The golden reference survives clear_cache (documented contract).
    EXPECT_EQ(&engine.golden(0), &golden);
    EXPECT_EQ(engine.stats().golden_runs, 1u);
}

// --- Single-flight execution -------------------------------------------------

// Concurrent first requests for one key execute the kernel exactly once:
// the counters are exact, not approximate, at any thread count. (Before
// single-flight both racers executed and kernel_runs was inflated.)
TEST(EvalEngine, ConcurrentFirstRequestsSingleFlight) {
    const auto app = tp::apps::make_app("dwt");
    EvalEngine engine{*app, EvalEngine::Options{}};
    const TypeConfig config = app->uniform_config(tp::kBinary16);

    constexpr unsigned kCallers = 8;
    const double expected = engine.output_error(5, config); // a warm sibling key
    std::latch start{kCallers};
    std::vector<std::thread> callers;
    std::vector<double> errors(kCallers);
    for (unsigned i = 0; i < kCallers; ++i) {
        callers.emplace_back([&engine, &config, &start, &errors, i] {
            start.arrive_and_wait(); // maximize the overlap window
            errors[i] = engine.output_error(0, config);
        });
    }
    for (std::thread& caller : callers) caller.join();

    for (const double error : errors) EXPECT_EQ(bits(error), bits(errors[0]));
    // Different input set, different data.
    EXPECT_NE(bits(errors[0]), bits(expected));

    const auto stats = engine.stats();
    EXPECT_EQ(stats.trials, kCallers + 1);
    EXPECT_EQ(stats.kernel_runs, 2u); // input set 5, then exactly one for 0
    EXPECT_EQ(stats.cache_hits, kCallers - 1);
    // The runner of set 0 pinned its golden; the waiters ran none.
    EXPECT_EQ(stats.golden_runs, 2u);
}

TEST(EvalEngine, ConcurrentGoldenRequestsComputeOnce) {
    const auto app = tp::apps::make_app("conv");
    EvalEngine engine{*app, EvalEngine::Options{}};
    constexpr unsigned kCallers = 8;
    std::latch start{kCallers};
    std::vector<std::thread> callers;
    std::vector<const std::vector<double>*> goldens(kCallers);
    for (unsigned i = 0; i < kCallers; ++i) {
        callers.emplace_back([&engine, &start, &goldens, i] {
            start.arrive_and_wait();
            goldens[i] = &engine.golden(2);
        });
    }
    for (std::thread& caller : callers) caller.join();
    for (const auto* golden : goldens) EXPECT_EQ(golden, goldens[0]);
    EXPECT_EQ(engine.stats().golden_runs, 1u);
}

/// A one-signal app whose prepare() throws on its first call. The failure
/// budget is shared by every clone, so it fails once per engine however
/// the engine clones it.
class FailsOnceApp final : public tp::apps::App {
public:
    FailsOnceApp() : App({{"x", 1}}) {}
    [[nodiscard]] std::string_view name() const override { return "fails_once"; }
    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<FailsOnceApp>(*this);
    }
    void prepare(unsigned input_set) override {
        if (failures_->fetch_sub(1) > 0) throw std::runtime_error{"prepare"};
        input_set_ = input_set;
    }
    std::vector<double> run(tp::sim::TpContext&, const TypeConfig&) override {
        return {1.0 + input_set_};
    }

private:
    std::shared_ptr<std::atomic<int>> failures_ =
        std::make_shared<std::atomic<int>>(1);
    unsigned input_set_ = 0;
};

// A golden run that throws pins nothing and counts nothing: the next
// request runs it again, and the result is then pinned like any other.
TEST(EvalEngine, FailedGoldenStoresNothingAndIsRetried) {
    const FailsOnceApp app;
    EvalEngine engine{app, EvalEngine::Options{}};
    EXPECT_THROW((void)engine.golden(0), std::runtime_error);
    EXPECT_EQ(engine.stats().golden_runs, 0u);

    const std::vector<double>& golden = engine.golden(0);
    EXPECT_EQ(golden, std::vector<double>{1.0});
    EXPECT_EQ(engine.stats().golden_runs, 1u);
    EXPECT_EQ(&engine.golden(0), &golden);
    EXPECT_EQ(engine.stats().golden_runs, 1u);
}

// --- LRU memory budget -------------------------------------------------------

TEST(EvalEngine, MemoryBudgetBoundsTheCache) {
    const auto app = tp::apps::make_app("knn");
    constexpr std::size_t kBudget = 4 * 1024;
    EvalEngine engine{*app, EvalEngine::Options{.threads = 1,
                                                .memoize = true,
                                                .cache_budget_bytes = kBudget}};
    // Many distinct configs: more payload than the budget can hold.
    std::vector<TypeConfig> configs;
    for (std::uint8_t mant = 1; mant <= 23; ++mant) {
        configs.push_back(app->uniform_config(tp::FpFormat{8, mant}));
        configs.push_back(app->uniform_config(tp::FpFormat{5, std::min<std::uint8_t>(mant, 10)}));
    }
    std::vector<double> first;
    for (const TypeConfig& config : configs) {
        first.push_back(engine.output_error(0, config));
        EXPECT_LE(engine.cache_bytes(), kBudget);
    }
    const auto churned = engine.stats();
    EXPECT_GT(churned.evictions, 0u);
    EXPECT_GT(engine.cache_bytes(), 0u); // bounded, not empty

    // Evicted trials re-run to identical bits (the determinism contract
    // extended to eviction state).
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(bits(engine.output_error(0, configs[i])), bits(first[i])) << i;
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.trials, stats.kernel_runs + stats.cache_hits);
}

TEST(EvalEngine, UnboundedBudgetNeverEvicts) {
    const auto app = tp::apps::make_app("knn");
    EvalEngine engine{*app, EvalEngine::Options{}};
    for (std::uint8_t mant = 1; mant <= 23; ++mant) {
        (void)engine.output_error(0, app->uniform_config(tp::FpFormat{8, mant}));
    }
    EXPECT_EQ(engine.stats().evictions, 0u);
    EXPECT_GT(engine.cache_bytes(), 0u);
}

TEST(EvalEngine, LeastRecentlyUsedEntryIsEvictedFirst) {
    const auto app = tp::apps::make_app("knn");
    // Budget sized to hold a few entries: touch A constantly while
    // inserting B, C, D... — A must survive longer than untouched peers.
    EvalEngine probe{*app, EvalEngine::Options{}};
    const TypeConfig a = app->uniform_config(tp::kBinary16);
    (void)probe.output_error(0, a);
    const std::size_t one_entry = probe.cache_bytes();
    ASSERT_GT(one_entry, 0u);

    EvalEngine engine{*app,
                      EvalEngine::Options{.threads = 1,
                                          .memoize = true,
                                          .cache_budget_bytes = 3 * one_entry}};
    (void)engine.output_error(0, a); // A resident
    for (std::uint8_t mant = 1; mant <= 8; ++mant) {
        (void)engine.output_error(0, app->uniform_config(tp::FpFormat{8, mant}));
        (void)engine.output_error(0, a); // touch A: most recently used again
    }
    const auto stats = engine.stats();
    EXPECT_GT(stats.evictions, 0u);
    // A was never evicted: its 9 requests were 1 run + 8 hits.
    const std::size_t runs_before = stats.kernel_runs;
    (void)engine.output_error(0, a);
    EXPECT_EQ(engine.stats().kernel_runs, runs_before);
}

// A cost probe's traced run yields the same output as the untraced one,
// so report() seeds the matching quality trial with that output's error,
// but only when the set's golden is already pinned: a report never runs a
// golden itself.
TEST(EvalEngine, ReportSeedsErrorOnlyForPinnedGolden) {
    const auto app = tp::apps::make_app("dwt");
    const TypeConfig config = app->uniform_config(tp::kBinary16);
    EvalEngine reference_engine{*app, EvalEngine::Options{}};
    const double reference = reference_engine.output_error(0, config);
    for (const bool simd : {false, true}) {
        EvalEngine cold{*app, EvalEngine::Options{}};
        (void)cold.report(0, config, simd);
        EXPECT_EQ(cold.stats(), (EvalStats{.trials = 1, .kernel_runs = 1}))
            << "simd " << simd;
        // No golden was pinned, so nothing was seeded: the trial runs the
        // kernel, and its golden.
        (void)cold.meets(0, config, 1e-1);
        EXPECT_EQ(cold.stats(),
                  (EvalStats{.trials = 2, .kernel_runs = 2, .golden_runs = 1}))
            << "simd " << simd;

        EvalEngine pinned{*app, EvalEngine::Options{}};
        (void)pinned.golden(0);
        (void)pinned.report(0, config, simd);
        EXPECT_EQ(pinned.stats(),
                  (EvalStats{.trials = 1, .kernel_runs = 1, .golden_runs = 1}))
            << "simd " << simd;
        // Seeded: the trial is a hit, and its error is the untraced run's.
        (void)pinned.meets(0, config, 1e-1);
        EXPECT_EQ(pinned.stats(), (EvalStats{.trials = 2,
                                             .kernel_runs = 1,
                                             .cache_hits = 1,
                                             .golden_runs = 1}))
            << "simd " << simd;
        EXPECT_EQ(bits(pinned.output_error(0, config)), bits(reference))
            << "simd " << simd;
        EXPECT_EQ(pinned.stats().kernel_runs, 1u) << "simd " << simd;
    }
}

// --- Cache-coherent determinism contract ------------------------------------

SearchOptions fast_options() {
    SearchOptions options;
    options.epsilon = 1e-2;
    options.type_system = tp::TypeSystem{tp::TypeSystemKind::V2};
    options.input_sets = {0, 1};
    options.max_passes = 2;
    return options;
}

// The cache-coherence battery (cold vs warm vs uncached vs threads=4 with
// exact counters) runs for EVERY registered app in the shared conformance
// harness — AppConformanceTest.SearchIsCacheCoherentAndThreadCountInvariant
// in tests/app_conformance.hpp (it used to run here, for pca and dwt only).

TEST(EvalEngine, SharedEngineAccountsAcrossSearches) {
    const auto app = tp::apps::make_app("dwt");
    EvalEngine engine{*app, EvalEngine::Options{}};
    const auto options = fast_options();
    (void)distributed_search(engine, options);
    (void)distributed_search(engine, options);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.trials, stats.kernel_runs + stats.cache_hits);
    // The second search was fully memoized, so at least half of all trials
    // were hits.
    EXPECT_GE(2 * stats.cache_hits, stats.trials);
}

TEST(EvalEngine, CastAwareReportsEngineStats) {
    auto app = tp::apps::make_app("knn");
    tp::tuning::CastAwareOptions options;
    options.search = fast_options();
    options.max_rounds = 1;
    const auto result = tp::tuning::cast_aware_search(*app, options);
    EXPECT_EQ(result.eval_stats.trials,
              result.eval_stats.kernel_runs + result.eval_stats.cache_hits);
    EXPECT_GT(result.eval_stats.trials, 0u);
    EXPECT_GT(result.eval_stats.cache_hits, 0u);
}

} // namespace
