// TuningService (tuning/service.hpp) under batches of overlapping
// requests, each batch submitted request by request and then awaited.
// The contract under test: results are bit-identical for any service
// thread count, priority mix and cache/eviction state, EvalStats
// counters are exact at any thread count (single-flight + per-ticket
// scopes), the LRU budget is respected, and goldens survive eviction.
// The scheduling surface (priorities, deadlines, cancellation, the
// scheduler) is covered by test_service_scheduler.cpp; both files carry
// the ctest label `service`.
#include "tuning/service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"

namespace {

using tp::tuning::CastAwareRequest;
using tp::tuning::distributed_search;
using tp::tuning::EvalEngine;
using tp::tuning::EvalStats;
using tp::tuning::Priority;
using tp::tuning::Request;
using tp::tuning::SearchOptions;
using tp::tuning::SweepRequest;
using tp::tuning::TicketHandle;
using tp::tuning::TuningRequest;
using tp::tuning::TuningResult;
using tp::tuning::TuningService;

SearchOptions fast_options() {
    SearchOptions options;
    options.type_system = tp::TypeSystem{tp::TypeSystemKind::V2};
    options.max_passes = 2;
    return options;
}

TuningRequest request_for(std::string app, double epsilon) {
    TuningRequest request;
    request.app = std::move(app);
    request.epsilon = epsilon;
    request.input_sets = {0, 1};
    request.options = fast_options();
    return request;
}

/// The overlapping batch the service exists for: two apps, the paper's
/// three requirements each, plus one exact repeat per app.
std::vector<TuningRequest> overlapping_batch() {
    std::vector<TuningRequest> batch;
    for (const char* app : {"pca", "dwt"}) {
        for (const double epsilon : {1e-3, 1e-2, 1e-1}) {
            batch.push_back(request_for(app, epsilon));
        }
        batch.push_back(request_for(app, 1e-2)); // repeat
    }
    return batch;
}

/// A batch's outcome: results in request order, and the exact sum of the
/// per-ticket counter deltas (foreign traffic on the engines excluded).
struct BatchOutcome {
    std::vector<TuningResult> results;
    EvalStats stats;
};

/// Submits every request of `batch`, then waits for each. With
/// `mixed_priorities` the requests alternate kSweep and kInteractive, so
/// the scheduler reorders them; otherwise all run at kNormal.
BatchOutcome submit_batch(TuningService& service,
                          const std::vector<TuningRequest>& batch,
                          bool mixed_priorities = false) {
    std::vector<TicketHandle> handles;
    handles.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Priority priority = Priority::kNormal;
        if (mixed_priorities) {
            priority = i % 2 == 0 ? Priority::kSweep : Priority::kInteractive;
        }
        handles.push_back(
            service.submit(Request{.work = batch[i], .priority = priority}));
    }
    BatchOutcome outcome;
    for (const TicketHandle& handle : handles) {
        outcome.results.push_back(handle.search_result());
        outcome.stats += handle.stats();
    }
    return outcome;
}

void expect_identical_batches(const BatchOutcome& a, const BatchOutcome& b,
                              const std::string& label) {
    ASSERT_EQ(a.results.size(), b.results.size()) << label;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_TRUE(a.results[i] == b.results[i])
            << label << ": request " << i;
    }
}

TEST(TuningService, MatchesDirectSearch) {
    TuningService service;
    const TicketHandle handle =
        service.submit(Request{.work = request_for("pca", 1e-2)});

    const auto app = tp::apps::make_app("pca");
    SearchOptions options = fast_options();
    options.epsilon = 1e-2;
    options.input_sets = {0, 1};
    const TuningResult direct = distributed_search(*app, options);
    EXPECT_TRUE(handle.search_result() == direct);
}

TEST(TuningService, ResultsInRequestOrderOneEnginePerApp) {
    TuningService service;
    const auto batch = std::vector<TuningRequest>{request_for("dwt", 1e-1),
                                                  request_for("pca", 1e-2),
                                                  request_for("dwt", 1e-1)};
    const auto result = submit_batch(service, batch);
    ASSERT_EQ(result.results.size(), 3u);
    // Identical requests produce identical results; distinct apps don't.
    EXPECT_TRUE(result.results[0] == result.results[2]);
    EXPECT_FALSE(result.results[0] == result.results[1]);
    EXPECT_EQ(result.results[1].epsilon, 1e-2);
    // dwt and pca each got one long-lived engine.
    EXPECT_EQ(service.engine_count(), 2u);
    EXPECT_EQ(&service.engine("dwt"), &service.engine("dwt"));
}

// A malformed request fails its own ticket with the search's typed error
// and nothing else: a valid request submitted beside it completes with
// the bits of a direct search. A sweep with no epsilons is malformed too.
TEST(TuningService, MalformedRequestFailsOnlyItsOwnTicket) {
    TuningService service{TuningService::Options{.threads = 2}};
    const TuningRequest valid = request_for("dwt", 1e-2);
    TuningRequest malformed = valid;
    malformed.epsilon = std::numeric_limits<double>::quiet_NaN();
    SweepRequest empty_sweep;
    empty_sweep.app = "dwt";
    empty_sweep.epsilons = {};

    const TicketHandle bad = service.submit(Request{.work = malformed});
    const TicketHandle bad_sweep = service.submit(Request{.work = empty_sweep});
    const TicketHandle good = service.submit(Request{.work = valid});

    EXPECT_THROW((void)bad.get(), std::invalid_argument);
    EXPECT_EQ(bad.status(), tp::tuning::RequestStatus::kFailed);
    EXPECT_THROW((void)bad_sweep.get(), std::invalid_argument);
    EXPECT_EQ(bad_sweep.status(), tp::tuning::RequestStatus::kFailed);
    EXPECT_EQ(bad_sweep.stats(), EvalStats{});

    const auto app = tp::apps::make_app("dwt");
    SearchOptions options = fast_options();
    options.epsilon = valid.epsilon;
    options.input_sets = valid.input_sets;
    EXPECT_TRUE(good.search_result() == distributed_search(*app, options));
}

// The exactness half of the single-flight contract: the same overlapping
// batch, serial vs four workers, must produce identical results AND
// identical counters — concurrent first requests for the same key execute
// once, so threads=4 cannot inflate kernel_runs (the pre-single-flight
// engine double-counted here).
TEST(TuningService, ThreadCountInvariantResultsAndExactCounters) {
    TuningService serial{TuningService::Options{.threads = 1}};
    TuningService threaded{TuningService::Options{.threads = 4}};
    const auto batch = overlapping_batch();

    const auto serial_result = submit_batch(serial, batch);
    const auto threaded_result = submit_batch(threaded, batch);
    expect_identical_batches(serial_result, threaded_result,
                             "threads=4 vs serial");

    const EvalStats s = serial_result.stats;
    const EvalStats t = threaded_result.stats;
    EXPECT_EQ(t.trials, s.trials);
    EXPECT_EQ(t.kernel_runs, s.kernel_runs);
    EXPECT_EQ(t.cache_hits, s.cache_hits);
    EXPECT_EQ(t.golden_runs, s.golden_runs);
    EXPECT_EQ(t, s);
    // The invariant the counters promise.
    EXPECT_EQ(t.trials, t.kernel_runs + t.cache_hits);
    // The batch overlaps, so the cache must have eliminated work.
    EXPECT_GT(t.cache_hits, 0u);
    EXPECT_GT(t.hit_rate(), 0.0);
}

// The repeat batch runs at alternating kSweep / kInteractive priorities,
// so the scheduler reorders it: the results must still be the cold
// batch's bits, all of it served from the cache the cold batch left.
TEST(TuningService, WarmServiceServesRepeatBatchFromCache) {
    TuningService service{TuningService::Options{.threads = 4}};
    const auto batch = overlapping_batch();
    const auto cold = submit_batch(service, batch);
    const auto warm = submit_batch(service, batch, /*mixed_priorities=*/true);
    expect_identical_batches(cold, warm, "warm mixed-priority vs cold batch");
    // Every trial of the repeat batch was a hit: no kernel ran.
    EXPECT_GT(warm.stats.trials, 0u);
    EXPECT_EQ(warm.stats.kernel_runs, 0u);
    EXPECT_EQ(warm.stats.golden_runs, 0u);
    EXPECT_EQ(warm.stats.cache_hits, warm.stats.trials);
    EXPECT_EQ(warm.stats.hit_rate(), 1.0);
    // The per-ticket deltas of both batches account for every engine bump.
    EXPECT_EQ(service.stats(), cold.stats + warm.stats);
}

// The eviction half of the determinism contract: cold, warm, and
// constantly-evicting caches return bit-identical batches; eviction only
// costs kernel re-runs.
TEST(TuningService, EvictingCacheReturnsIdenticalResults) {
    const auto batch = overlapping_batch();

    TuningService unbounded{TuningService::Options{.threads = 4}};
    const auto cold = submit_batch(unbounded, batch);
    const auto warm = submit_batch(unbounded, batch);

    // A budget far too small for these workloads, about two dozen error
    // entries: entries churn the whole time.
    TuningService evicting{TuningService::Options{
        .threads = 4, .cache_budget_bytes = 4 * 1024}};
    const auto evicted = submit_batch(evicting, batch);

    expect_identical_batches(cold, evicted, "evicting vs cold");
    expect_identical_batches(warm, evicted, "evicting vs warm");

    EXPECT_GT(evicted.stats.evictions, 0u);
    // Eviction forces re-runs the unbounded cache avoided.
    EXPECT_GT(evicted.stats.kernel_runs, cold.stats.kernel_runs);
    // Same trials were submitted either way; the invariant still holds.
    EXPECT_EQ(evicted.stats.trials, cold.stats.trials);
    EXPECT_EQ(evicted.stats.trials,
              evicted.stats.kernel_runs + evicted.stats.cache_hits);
}

TEST(TuningService, MemoryBudgetIsRespected) {
    constexpr std::size_t kBudget = 16 * 1024;
    TuningService service{
        TuningService::Options{.threads = 2, .cache_budget_bytes = kBudget}};
    (void)submit_batch(service, overlapping_batch());
    for (const char* app : {"pca", "dwt"}) {
        EXPECT_LE(service.engine(app).cache_bytes(), kBudget) << app;
    }
}

TEST(TuningService, GoldensSurviveEviction) {
    TuningService service{
        TuningService::Options{.threads = 2, .cache_budget_bytes = 16 * 1024}};
    EvalEngine& engine = service.engine("pca");
    const std::vector<double>& before = engine.golden(0);
    (void)submit_batch(service, overlapping_batch());
    EXPECT_GT(engine.stats().evictions, 0u);
    // Same pinned storage, no recomputation: the reference the service
    // handed out before the churn is still the live golden.
    EXPECT_EQ(&engine.golden(0), &before);
    const auto app = tp::apps::make_app("pca");
    EXPECT_EQ(before, app->golden(0));
}

// A heterogeneous batch mixing the paper's six kernels with the new fft /
// iir / mlp workloads: results come back in request order (each app's
// signal table proves which search produced a slot), one engine per
// distinct app, and the counters stay exact at threads=4.
TEST(TuningService, HeterogeneousBatchAcrossAllNineApps) {
    const auto& names = tp::apps::app_names();
    ASSERT_EQ(names.size(), 9u);
    std::vector<TuningRequest> batch;
    for (const std::string& name : names) {
        batch.push_back(request_for(name, 1e-1));
    }
    // Interleaved repeats: cross-request hits must span app boundaries
    // without mixing up engines.
    batch.push_back(request_for("fft", 1e-1));
    batch.push_back(request_for("jacobi", 1e-1));

    TuningService serial{TuningService::Options{.threads = 1}};
    TuningService threaded{TuningService::Options{.threads = 4}};
    const auto serial_result = submit_batch(serial, batch);
    const auto threaded_result = submit_batch(threaded, batch);

    ASSERT_EQ(serial_result.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        // Request order: slot i carries exactly request i's app (signal
        // names match that app's table) and epsilon.
        const auto app = tp::apps::make_app(batch[i].app);
        const auto& signals = serial_result.results[i].signals;
        ASSERT_EQ(signals.size(), app->signals().size()) << "request " << i;
        for (std::size_t s = 0; s < signals.size(); ++s) {
            EXPECT_EQ(signals[s].name, app->signals()[s].name)
                << "request " << i;
        }
        EXPECT_EQ(serial_result.results[i].epsilon, batch[i].epsilon);
    }
    // The repeats reproduced their originals bit-for-bit.
    EXPECT_TRUE(serial_result.results[9] == serial_result.results[6]);
    EXPECT_TRUE(serial_result.results[10] == serial_result.results[0]);

    expect_identical_batches(serial_result, threaded_result,
                             "nine-app batch, threads=4 vs serial");
    EXPECT_EQ(threaded_result.stats, serial_result.stats);
    EXPECT_EQ(threaded_result.stats.trials,
              threaded_result.stats.kernel_runs +
                  threaded_result.stats.cache_hits);
    // One engine per distinct app, not per request.
    EXPECT_EQ(serial.engine_count(), 9u);
    EXPECT_EQ(threaded.engine_count(), 9u);
    // The repeated requests were served from their apps' caches.
    EXPECT_GT(threaded_result.stats.cache_hits, 0u);
}

// Cast-aware requests routed through the service share the per-app engine
// caches with plain searches, both ways.
TEST(TuningService, CastAwareSharesTheServiceEngineCaches) {
    tp::tuning::CastAwareOptions options;
    options.search = fast_options();
    options.search.epsilon = 1e-2;
    options.search.input_sets = {0, 1};
    options.max_rounds = 1;

    // Reference: the same pass on a cold private engine.
    const auto app = tp::apps::make_app("knn");
    const auto reference = tp::tuning::cast_aware_search(*app, options);

    TuningService service;
    // A plain search first, at the same requirement, warms the app's
    // engine...
    service.submit(Request{.work = request_for("knn", 1e-2)}).wait();
    const auto warm_stats = service.stats();
    const auto shared =
        service.submit(Request{.work = CastAwareRequest{"knn", options}})
            .cast_aware_result();

    // ...and the cast-aware pass reuses it: same result bit-for-bit, with
    // the base search served from cache (fewer kernel runs than cold).
    EXPECT_EQ(shared.config, reference.config);
    EXPECT_TRUE(shared.base == reference.base);
    EXPECT_EQ(shared.tuned_energy_pj, reference.tuned_energy_pj);
    EXPECT_EQ(shared.moves_accepted, reference.moves_accepted);
    EXPECT_GT(shared.eval_stats.cache_hits, reference.eval_stats.cache_hits);
    EXPECT_LT(shared.eval_stats.kernel_runs, reference.eval_stats.kernel_runs);
    // eval_stats is the call's delta on the service engine.
    EXPECT_EQ(warm_stats + shared.eval_stats, service.stats());
    // Still one engine for the app; the pass created none of its own.
    EXPECT_EQ(service.engine_count(), 1u);

    // The sharing works both ways: a repeat of the plain request after the
    // cast-aware pass is still fully cached.
    const TicketHandle repeat =
        service.submit(Request{.work = request_for("knn", 1e-2)});
    repeat.wait();
    EXPECT_EQ(repeat.stats().kernel_runs, 0u);
}

TEST(TuningService, PerRequestOptionsAreHonored) {
    TuningService service;
    TuningRequest v1 = request_for("jacobi", 1e-2);
    v1.options.type_system = tp::TypeSystem{tp::TypeSystemKind::V1};
    const TuningRequest v2 = request_for("jacobi", 1e-2);
    const auto result = submit_batch(service, {v1, v2});
    EXPECT_EQ(result.results[0].type_system, tp::TypeSystemKind::V1);
    EXPECT_EQ(result.results[1].type_system, tp::TypeSystemKind::V2);
    // One app, one engine, even across type systems.
    EXPECT_EQ(service.engine_count(), 1u);
}

} // namespace
