// The async submission surface of TuningService (tuning/service.hpp) and
// the PriorityScheduler underneath it (util/priority_scheduler.hpp).
//
// The contracts under test: workers pop by (priority, admission order);
// cancel() takes effect on queued requests only and never runs a kernel
// for them; a queued request past its deadline is rejected with the typed
// DeadlineExpired instead of running; results are bit-identical to a
// direct distributed_search of the same request regardless of priority,
// cancellation of other requests, or worker count (the
// scheduling-independence half of the determinism contract); per-ticket
// EvalStats deltas are exact and sum to the engines' deltas; and the
// service destructor cancels queued work and drains running work without
// deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"
#include "tuning/service.hpp"
#include "util/priority_scheduler.hpp"

namespace {

using tp::tuning::CastAwareOptions;
using tp::tuning::CastAwareRequest;
using tp::tuning::DeadlineExpired;
using tp::tuning::distributed_search;
using tp::tuning::EvalStats;
using tp::tuning::Priority;
using tp::tuning::Request;
using tp::tuning::RequestCancelled;
using tp::tuning::RequestStatus;
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

TuningRequest plain(std::string app, double epsilon,
                    std::vector<unsigned> input_sets = {0, 1}) {
    TuningRequest request;
    request.app = std::move(app);
    request.epsilon = epsilon;
    request.input_sets = std::move(input_sets);
    request.options = fast_options();
    return request;
}

/// A request heavy enough to occupy a worker for a macroscopic time: a
/// three-epsilon sweep.
Request sweep(std::string app, Priority priority = Priority::kSweep) {
    SweepRequest work;
    work.app = std::move(app);
    work.epsilons = {1e-3, 1e-2, 1e-1};
    work.input_sets = {0, 1};
    work.options = fast_options();
    return Request{.work = std::move(work), .priority = priority};
}

/// The direct-search reference for one plain request.
TuningResult direct(const TuningRequest& request) {
    const auto app = tp::apps::make_app(request.app);
    SearchOptions options = request.options;
    options.epsilon = request.epsilon;
    options.input_sets = request.input_sets;
    return distributed_search(*app, options);
}

/// The chained-sweep reference a SweepRequest must reproduce
/// bit-for-bit: a standalone sweep_search over the same epsilons on a
/// private engine.
std::vector<TuningResult> direct_sweep(const std::string& app_name) {
    const auto app = tp::apps::make_app(app_name);
    SearchOptions base = fast_options();
    base.input_sets = {0, 1};
    return tp::tuning::sweep_search(*app, base, {1e-3, 1e-2, 1e-1},
                                    /*warm_start_chain=*/true);
}

/// Spins until `handle` leaves kQueued — i.e. a worker has picked it up
/// (or it completed). Used to pin "the only worker is busy" states.
void wait_until_started(const TicketHandle& handle) {
    while (handle.status() == RequestStatus::kQueued) {
        std::this_thread::yield();
    }
}

// --- PriorityScheduler (deterministic unit tests) ---------------------------

TEST(PriorityScheduler, PopsByPriorityThenAdmissionOrder) {
    tp::util::PriorityScheduler scheduler{1};

    // Gate the single worker so every subsequent submission queues; wait
    // until the worker has actually picked the gate up, or the first
    // submissions below could be popped ahead of it.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    scheduler.submit(0, [&started, open] {
        started.set_value();
        open.wait();
    });
    started.get_future().wait();

    std::mutex order_mutex;
    std::vector<int> order;
    std::atomic<int> remaining{6};
    const auto record = [&order_mutex, &order, &remaining](int tag) {
        const std::lock_guard<std::mutex> lock{order_mutex};
        order.push_back(tag);
        --remaining;
    };
    // Admitted in tag order; must pop by (priority desc, admission asc).
    scheduler.submit(0, [&record] { record(0); });
    scheduler.submit(2, [&record] { record(1); });
    scheduler.submit(1, [&record] { record(2); });
    scheduler.submit(2, [&record] { record(3); });
    scheduler.submit(0, [&record] { record(4); });
    scheduler.submit(1, [&record] { record(5); });
    EXPECT_EQ(scheduler.pending(), 6u);

    gate.set_value();
    while (remaining.load() != 0) std::this_thread::yield();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 5, 0, 4}));
}

TEST(PriorityScheduler, DestructionDrainsAdmittedTasks) {
    std::atomic<int> ran{0};
    {
        tp::util::PriorityScheduler scheduler{1};
        std::promise<void> gate;
        std::shared_future<void> open = gate.get_future().share();
        scheduler.submit(0, [open] { open.wait(); });
        for (int i = 0; i < 5; ++i) {
            scheduler.submit(i % 3, [&ran] { ++ran; });
        }
        gate.set_value();
        // Destructor runs with (most of) the queue still pending.
    }
    EXPECT_EQ(ran.load(), 5);
}

/// A fake time source over an atomic millisecond counter: aging and
/// expiry become fully deterministic — no sleeps, no real clock.
struct FakeClock {
    std::atomic<std::int64_t> ms{0};

    [[nodiscard]] std::function<tp::util::PriorityScheduler::Clock::time_point()>
    source() {
        return [this] {
            return tp::util::PriorityScheduler::Clock::time_point{} +
                   std::chrono::milliseconds(ms.load());
        };
    }
    [[nodiscard]] tp::util::PriorityScheduler::Clock::time_point at(
        std::int64_t when_ms) const {
        return tp::util::PriorityScheduler::Clock::time_point{} +
               std::chrono::milliseconds(when_ms);
    }
};

// Anti-starvation aging: with a quantum set, a queued task's effective
// priority is base + waited / quantum, so an old low-priority task
// overtakes fresh high-priority arrivals (ties break by admission order,
// which the aged task wins by being older). Strict priority would pop
// 1, 2, 0 here; aging pops 0 first.
TEST(PriorityScheduler, AgingPromotesStarvedClasses) {
    FakeClock clock;
    tp::util::PriorityScheduler scheduler{tp::util::PriorityScheduler::Options{
        .threads = 1,
        .aging_quantum = std::chrono::milliseconds(100),
        .now = clock.source()}};

    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    scheduler.submit(3, [&started, open] {
        started.set_value();
        open.wait();
    });
    started.get_future().wait();

    std::mutex order_mutex;
    std::vector<int> order;
    std::atomic<int> remaining{3};
    const auto record = [&order_mutex, &order, &remaining](int tag) {
        const std::lock_guard<std::mutex> lock{order_mutex};
        order.push_back(tag);
        --remaining;
    };
    // Admitted at t=0ms with base priority 0: by t=250ms it has aged
    // floor(250/100) = 2 steps, to effective 2.
    scheduler.submit(0, [&record] { record(0); });
    clock.ms = 250;
    // Fresh arrivals at t=250ms: effective 2 and 1. The aged task ties
    // the priority-2 arrival and wins on admission order.
    scheduler.submit(2, [&record] { record(1); });
    scheduler.submit(1, [&record] { record(2); });

    gate.set_value();
    while (remaining.load() != 0) std::this_thread::yield();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Regression for the submit/shutdown race: the old scheduler admitted a
// task after stop() had begun and enqueued it onto a queue no worker
// would ever drain — silently dropped, violating the drain guarantee.
// Post-stop submission must fail loudly instead. Deterministic: the
// gated worker pins stop() mid-flight, stopping() pins the window.
TEST(PriorityScheduler, SubmitDuringStopFailsLoudlyInsteadOfDropping) {
    tp::util::PriorityScheduler scheduler{1};
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    scheduler.submit(0, [&started, open] {
        started.set_value();
        open.wait();
    });
    started.get_future().wait();

    // stop() blocks joining the gated worker; the submit window is open
    // exactly once stopping() turns true.
    std::thread stopper{[&scheduler] { scheduler.stop(); }};
    while (!scheduler.stopping()) std::this_thread::yield();

    std::atomic<bool> dropped_task_ran{false};
    EXPECT_THROW(
        scheduler.submit(0, [&dropped_task_ran] { dropped_task_ran = true; }),
        tp::util::PriorityScheduler::Stopped);

    gate.set_value();
    stopper.join();
    // The refused task never ran — and was never admitted to be dropped.
    EXPECT_FALSE(dropped_task_ran.load());
    EXPECT_EQ(scheduler.pending(), 0u);
}

// Admission control: the per-class cap bounds LIVE queued tasks of one
// base-priority class; other classes are untouched, and discarding an
// entry frees its slot immediately.
TEST(PriorityScheduler, PerClassCapShedsLoadTyped) {
    tp::util::PriorityScheduler scheduler{tp::util::PriorityScheduler::Options{
        .threads = 1, .per_class_cap = 2}};
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    scheduler.submit(0, [&started, open] {
        started.set_value();
        open.wait();
    });
    started.get_future().wait();

    std::atomic<int> ran{0};
    scheduler.submit(1, [&ran] { ++ran; });
    const std::uint64_t second = scheduler.submit(1, [&ran] { ++ran; });
    EXPECT_EQ(scheduler.pending(1), 2u);
    try {
        scheduler.submit(1, [&ran] { ++ran; });
        FAIL() << "expected ClassFull";
    } catch (const tp::util::PriorityScheduler::ClassFull& full) {
        EXPECT_EQ(full.priority(), 1);
        EXPECT_EQ(full.cap(), 2u);
    }
    // The cap is per class: class 2 has room.
    scheduler.submit(2, [&ran] { ++ran; });
    // Discarding a live entry frees its class slot on the spot.
    EXPECT_TRUE(scheduler.discard(second));
    EXPECT_EQ(scheduler.pending(1), 1u);
    scheduler.submit(1, [&ran] { ++ran; });

    gate.set_value();
    scheduler.stop();
    // Admitted and not discarded: first, the class-2 task, the refill.
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(scheduler.discarded(), 1u);
}

// discard() erases the still-queued entry, releases its closure (and
// captured payload) immediately, runs on_discard, and stops counting it.
TEST(PriorityScheduler, DiscardReleasesEntryAndPayloadEagerly) {
    tp::util::PriorityScheduler scheduler{1};
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    scheduler.submit(0, [&started, open] {
        started.set_value();
        open.wait();
    });
    started.get_future().wait();

    auto payload = std::make_shared<int>(42);
    std::weak_ptr<int> watch = payload;
    std::atomic<bool> notified{false};
    const std::uint64_t id = scheduler.submit(
        0, [payload] { ADD_FAILURE() << "discarded task ran"; },
        tp::util::PriorityScheduler::TaskOptions{
            .expiry = {}, .on_discard = [&notified] { notified = true; }});
    payload.reset();
    EXPECT_FALSE(watch.expired()); // the queue entry holds the payload
    EXPECT_EQ(scheduler.pending(), 1u);

    EXPECT_TRUE(scheduler.discard(id));
    EXPECT_TRUE(watch.expired()); // released at discard, not at pop
    EXPECT_TRUE(notified.load());
    EXPECT_EQ(scheduler.pending(), 0u);
    EXPECT_FALSE(scheduler.discard(id)); // already gone
    EXPECT_FALSE(scheduler.discard(tp::util::PriorityScheduler::kNoTask));

    gate.set_value();
}

// Expired entries are purged at the next queue-lock acquisition — here a
// later submit — without a worker ever popping them: pending() reports
// live work only (the old scheduler counted such tombstones) and the
// captured payload is released on the spot.
TEST(PriorityScheduler, ExpiryPurgesWithoutAPopAndReleasesPayload) {
    FakeClock clock;
    tp::util::PriorityScheduler scheduler{tp::util::PriorityScheduler::Options{
        .threads = 1, .now = clock.source()}};
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::promise<void> started;
    scheduler.submit(0, [&started, open] {
        started.set_value();
        open.wait();
    });
    started.get_future().wait();

    auto payload = std::make_shared<int>(7);
    std::weak_ptr<int> watch = payload;
    std::atomic<bool> expired{false};
    scheduler.submit(0, [payload] { ADD_FAILURE() << "expired task ran"; },
                     tp::util::PriorityScheduler::TaskOptions{
                         .expiry = clock.at(100),
                         .on_discard = [&expired] { expired = true; }});
    payload.reset();
    EXPECT_EQ(scheduler.pending(), 1u);
    EXPECT_FALSE(watch.expired());

    clock.ms = 150;
    // The worker is still gated: only this submit can purge. By the time
    // it returns, the expired entry is gone, its payload freed, and its
    // owner notified — no pop involved.
    std::atomic<bool> live_ran{false};
    scheduler.submit(0, [&live_ran] { live_ran = true; });
    EXPECT_TRUE(expired.load());
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(scheduler.pending(), 1u); // the live trigger task only
    EXPECT_EQ(scheduler.discarded(), 1u);

    gate.set_value();
    scheduler.stop();
    EXPECT_TRUE(live_ran.load());
}

// --- Submission and variants ------------------------------------------------

TEST(ServiceScheduler, SubmitMatchesDirectSearchAndReportsExactStats) {
    TuningService service;
    const TuningRequest request = plain("pca", 1e-2);
    const TicketHandle handle = service.submit(Request{.work = request});
    ASSERT_TRUE(handle.valid());

    const TuningResult& result = handle.search_result();
    EXPECT_TRUE(result == direct(request));
    EXPECT_EQ(handle.status(), RequestStatus::kDone);
    EXPECT_LE(handle.submitted_at(), handle.completed_at());

    // The per-ticket delta is the engine's whole history here (one
    // request on a fresh service), and trials are exactly the trials the
    // search submitted.
    EXPECT_EQ(handle.stats(), service.stats());
    EXPECT_EQ(handle.stats().trials, result.program_runs);
}

TEST(ServiceScheduler, SweepVariantMatchesChainedSweepSearch) {
    TuningService service;
    const TicketHandle handle = service.submit(sweep("dwt"));
    const std::vector<TuningResult>& results = handle.sweep_results();
    ASSERT_EQ(results.size(), 3u);
    const std::vector<TuningResult> reference = direct_sweep("dwt");
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(results[i] == reference[i]) << "sweep step " << i;
    }
    // One engine serves the sweep; its overlap is served from cache, and
    // the warm-start chain skipped probe ranges outright.
    EXPECT_EQ(service.engine_count(), 1u);
    EXPECT_GT(handle.stats().cache_hits, 0u);
    EXPECT_GT(handle.stats().trials_skipped_by_bounds, 0u);
}

// The warm-start axis of the determinism contract, exercised through the
// service: a chained sweep returns the same bits on a one-worker service
// with a cold engine and on a four-worker service whose engine was warmed
// and raced by other queued requests on the same app.
TEST(ServiceScheduler, WarmSweepIsIndependentOfWorkersCacheAndNoise) {
    TuningService cold_service{TuningService::Options{.threads = 1}};
    const TicketHandle cold = cold_service.submit(sweep("dwt"));

    TuningService noisy_service{TuningService::Options{.threads = 4}};
    std::vector<TicketHandle> noise;
    noise.push_back(noisy_service.submit(
        Request{.work = plain("dwt", 1e-2),
                .priority = Priority::kInteractive}));
    noise.push_back(noisy_service.submit(Request{.work = plain("dwt", 1e-1)}));
    const TicketHandle warm = noisy_service.submit(sweep("dwt"));
    for (const TicketHandle& handle : noise) handle.wait();

    const std::vector<TuningResult>& cold_results = cold.sweep_results();
    const std::vector<TuningResult>& warm_results = warm.sweep_results();
    ASSERT_EQ(cold_results.size(), warm_results.size());
    for (std::size_t i = 0; i < cold_results.size(); ++i) {
        EXPECT_TRUE(cold_results[i] == warm_results[i]) << "sweep step " << i;
    }
    // Exact per-ticket attribution covers the skip counter too.
    EXPECT_EQ(cold.stats().trials_skipped_by_bounds,
              warm.stats().trials_skipped_by_bounds);
}

TEST(ServiceScheduler, CastAwareVariantMatchesDirectPass) {
    CastAwareOptions options;
    options.search = fast_options();
    options.search.epsilon = 1e-2;
    options.search.input_sets = {0, 1};
    options.max_rounds = 1;

    const auto app = tp::apps::make_app("knn");
    const auto reference = tp::tuning::cast_aware_search(*app, options);

    TuningService service;
    const TicketHandle handle =
        service.submit(Request{.work = CastAwareRequest{"knn", options}});
    const auto& result = handle.cast_aware_result();
    EXPECT_TRUE(result.base == reference.base);
    EXPECT_EQ(result.config, reference.config);
    EXPECT_EQ(result.tuned_energy_pj, reference.tuned_energy_pj);
    // Cold service engine, serial pass: the scoped delta equals the
    // private engine's lifetime delta — and equals the ticket's.
    EXPECT_EQ(result.eval_stats, reference.eval_stats);
    EXPECT_EQ(handle.stats(), result.eval_stats);
    // Accessing the wrong variant is a loud error, not garbage.
    EXPECT_THROW((void)handle.search_result(), std::bad_variant_access);
}

TEST(ServiceScheduler, UnknownAppIsRejectedAtAdmission) {
    TuningService service;
    EXPECT_THROW((void)service.submit(Request{.work = plain("nonesuch", 1e-2)}),
                 std::out_of_range);
    EXPECT_THROW((void)service.submit(Request{.work = CastAwareRequest{
                     "nonesuch", CastAwareOptions{}}}),
                 std::out_of_range);
    EXPECT_EQ(service.engine_count(), 0u);
    EXPECT_EQ(service.stats().trials, 0u);
}

// --- Cancellation and deadlines ---------------------------------------------

TEST(ServiceScheduler, CancelBeforeStartRunsNoKernel) {
    TuningService service{TuningService::Options{.threads = 1}};
    const TicketHandle blocker = service.submit(sweep("pca"));
    wait_until_started(blocker);

    // The only worker is now busy, so this request is pinned in the
    // queue when cancel() lands.
    const TicketHandle victim =
        service.submit(Request{.work = plain("svm", 1e-1)});
    EXPECT_EQ(victim.status(), RequestStatus::kQueued);
    EXPECT_TRUE(victim.cancel());
    EXPECT_EQ(victim.status(), RequestStatus::kCancelled);
    EXPECT_THROW((void)victim.get(), RequestCancelled);
    EXPECT_EQ(victim.stats(), EvalStats{});

    blocker.wait();
    // The victim's engine exists (admission resolved it) but never ran:
    // no golden, no trial, no kernel.
    EXPECT_EQ(service.engine("svm").stats(), EvalStats{});
    // Cancelling an already-cancelled ticket stays a no-op.
    EXPECT_FALSE(victim.cancel());
}

TEST(ServiceScheduler, CancelAfterCompletionIsANoOp) {
    TuningService service;
    const TicketHandle handle =
        service.submit(Request{.work = plain("jacobi", 1e-1)});
    const TuningResult result = handle.search_result(); // waits
    EXPECT_FALSE(handle.cancel());
    EXPECT_EQ(handle.status(), RequestStatus::kDone);
    // The result is still there, bit-identical.
    EXPECT_TRUE(handle.search_result() == result);
}

TEST(ServiceScheduler, ExpiredDeadlineIsATypedRejection) {
    TuningService service{TuningService::Options{.threads = 1}};
    // Already past when admitted: the worker pops it, rejects it, and
    // never runs a kernel.
    const TicketHandle expired = service.submit(
        Request{.work = plain("jacobi", 1e-1),
                .deadline = std::chrono::steady_clock::now() -
                            std::chrono::milliseconds(1)});
    expired.wait();
    EXPECT_EQ(expired.status(), RequestStatus::kExpired);
    EXPECT_THROW((void)expired.get(), DeadlineExpired);
    EXPECT_EQ(expired.stats(), EvalStats{});
    EXPECT_EQ(service.engine("jacobi").stats(), EvalStats{});

    // A generous deadline changes nothing about execution.
    const TuningRequest request = plain("jacobi", 1e-1);
    const TicketHandle met = service.submit(
        Request{.work = request,
                .deadline = std::chrono::steady_clock::now() +
                            std::chrono::hours(1)});
    EXPECT_TRUE(met.search_result() == direct(request));
}

// --- Priority ordering ------------------------------------------------------

// One worker: after the running blocker, the queued high-priority request
// must run before the earlier-admitted sweep. Fully deterministic — a
// single worker executes strictly in pop order.
TEST(ServiceScheduler, NoPriorityInversionWithOneWorker) {
    TuningService service{TuningService::Options{.threads = 1}};
    const TicketHandle blocker = service.submit(sweep("pca"));
    wait_until_started(blocker);

    const TicketHandle low = service.submit(sweep("dwt", Priority::kSweep));
    const TuningRequest small = plain("jacobi", 1e-1, {0});
    const TicketHandle high = service.submit(
        Request{.work = small, .priority = Priority::kInteractive});

    low.wait();
    high.wait();
    // The high-priority request overtook the sweep admitted before it...
    EXPECT_LT(high.completed_at(), low.completed_at());
    // ...and overtaking changed nothing about either result.
    EXPECT_TRUE(high.search_result() == direct(small));
    const std::vector<TuningResult>& sweep_results = low.sweep_results();
    EXPECT_TRUE(sweep_results[2] == direct_sweep("dwt")[2]);
}

// Four workers: saturate them, queue four sweeps and two interactive
// requests behind, and every interactive request must complete before the
// last sweep does — the QoS property the redesign exists for.
TEST(ServiceScheduler, NoPriorityInversionWithFourWorkers) {
    TuningService service{TuningService::Options{.threads = 4}};
    std::vector<TicketHandle> blockers;
    for (const char* app : {"pca", "dwt", "knn", "svm"}) {
        blockers.push_back(service.submit(sweep(app)));
    }
    for (const TicketHandle& blocker : blockers) wait_until_started(blocker);

    std::vector<TicketHandle> lows;
    for (const char* app : {"pca", "dwt", "knn", "svm"}) {
        lows.push_back(service.submit(sweep(app)));
    }
    const TuningRequest small_a = plain("jacobi", 1e-1, {0});
    const TuningRequest small_b = plain("conv", 1e-1, {0});
    const TicketHandle high_a = service.submit(
        Request{.work = small_a, .priority = Priority::kInteractive});
    const TicketHandle high_b = service.submit(
        Request{.work = small_b, .priority = Priority::kInteractive});

    for (const TicketHandle& low : lows) low.wait();
    auto last_low = lows.front().completed_at();
    for (const TicketHandle& low : lows) {
        last_low = std::max(last_low, low.completed_at());
    }
    EXPECT_LT(high_a.completed_at(), last_low);
    EXPECT_LT(high_b.completed_at(), last_low);
    // Identical results regardless of the scheduling pressure.
    EXPECT_TRUE(high_a.search_result() == direct(small_a));
    EXPECT_TRUE(high_b.search_result() == direct(small_b));
}

// --- Concurrency and teardown -----------------------------------------------

TEST(ServiceScheduler, ConcurrentSubmittersGetDeterministicResults) {
    TuningService service{TuningService::Options{.threads = 2}};
    constexpr int kSubmitters = 4;
    std::vector<std::vector<TicketHandle>> handles(kSubmitters);
    {
        std::vector<std::thread> submitters;
        submitters.reserve(kSubmitters);
        for (int s = 0; s < kSubmitters; ++s) {
            submitters.emplace_back([s, &service, &handles] {
                // Overlapping mixes at clashing priorities: the shared
                // caches and single-flight path get concurrent traffic.
                handles[s].push_back(service.submit(Request{
                    .work = plain("pca", 1e-2),
                    .priority = s % 2 == 0 ? Priority::kInteractive
                                           : Priority::kSweep}));
                handles[s].push_back(service.submit(
                    Request{.work = plain("dwt", 1e-1)}));
            });
        }
        for (std::thread& submitter : submitters) submitter.join();
    }
    const TuningResult pca = direct(plain("pca", 1e-2));
    const TuningResult dwt = direct(plain("dwt", 1e-1));
    EvalStats summed;
    for (int s = 0; s < kSubmitters; ++s) {
        EXPECT_TRUE(handles[s][0].search_result() == pca) << "submitter " << s;
        EXPECT_TRUE(handles[s][1].search_result() == dwt) << "submitter " << s;
        summed += handles[s][0].stats() + handles[s][1].stats();
    }
    // Exact attribution even with requests racing on shared engines: the
    // scoped per-ticket deltas sum to the engines' lifetime counters.
    EXPECT_EQ(summed, service.stats());
}

TEST(ServiceScheduler, DestructorCancelsQueuedAndDrainsRunning) {
    TicketHandle running;
    std::vector<TicketHandle> queued;
    {
        TuningService service{TuningService::Options{.threads = 1}};
        running = service.submit(sweep("pca"));
        wait_until_started(running);
        queued.push_back(service.submit(Request{.work = plain("dwt", 1e-1)}));
        queued.push_back(service.submit(
            Request{.work = plain("svm", 1e-1),
                    .priority = Priority::kInteractive}));
        queued.push_back(service.submit(sweep("knn")));
        // Destructor: must not deadlock on the queued work.
    }
    // The running sweep was drained to completion and is still
    // retrievable through the surviving handle...
    EXPECT_EQ(running.status(), RequestStatus::kDone);
    EXPECT_EQ(running.sweep_results().size(), 3u);
    // ...and everything queued was cancelled, not silently dropped.
    for (const TicketHandle& handle : queued) {
        EXPECT_EQ(handle.status(), RequestStatus::kCancelled);
        EXPECT_THROW((void)handle.get(), RequestCancelled);
        EXPECT_EQ(handle.stats(), EvalStats{});
    }
}

// --- Admission control and live accounting ----------------------------------

// max_queued_per_class: the third live interactive request is refused
// with a typed RequestRejected{kQueueFull}; other classes are untouched;
// cancelling a queued request frees its slot immediately (no tombstone).
TEST(ServiceScheduler, QueueCapRejectsTypedAndCancelFreesTheSlot) {
    TuningService service{TuningService::Options{
        .threads = 1, .max_queued_per_class = 2}};
    // Occupy the only worker for a macroscopic time so submissions below
    // stay queued for the duration of the test body.
    const TicketHandle blocker = service.submit(sweep("pca"));
    wait_until_started(blocker);

    const auto interactive = [] {
        return Request{.work = plain("jacobi", 1e-1, {0}),
                       .priority = Priority::kInteractive};
    };
    const TicketHandle first = service.submit(interactive());
    const TicketHandle second = service.submit(interactive());
    EXPECT_EQ(service.queued(), 2u);
    try {
        (void)service.submit(interactive());
        FAIL() << "expected RequestRejected";
    } catch (const tp::tuning::RequestRejected& rejected) {
        EXPECT_EQ(rejected.reason(),
                  tp::tuning::RequestRejected::Reason::kQueueFull);
    }
    // The cap is per class: a sweep-class request still gets in.
    const TicketHandle low = service.submit(sweep("dwt"));
    // Cancelling a queued request frees its slot on the spot — the old
    // tombstoned queue would still have counted it.
    EXPECT_TRUE(second.cancel());
    EXPECT_EQ(service.queued(), 2u); // first + low
    const TicketHandle refill = service.submit(interactive());

    const tp::tuning::AdmissionStats admission = service.admission_stats();
    EXPECT_EQ(admission.admitted, 5u); // blocker, first, second, low, refill
    EXPECT_EQ(admission.rejected_queue_full, 1u);
    EXPECT_EQ(admission.rejected_deadline, 0u);
    EXPECT_EQ(admission.submitted(), 6u);

    // Rejection sheds load but never touches results: everything admitted
    // and not cancelled completes with reference bits.
    EXPECT_TRUE(first.search_result() == direct(plain("jacobi", 1e-1, {0})));
    EXPECT_TRUE(refill.search_result() == direct(plain("jacobi", 1e-1, {0})));
    EXPECT_THROW((void)second.get(), RequestCancelled);
}

// deadline_admission: a hopeless deadline is refused at submit() — both
// the trivially hopeless (already past) and the backlog-estimated kind —
// with no ticket and no queue entry.
TEST(ServiceScheduler, DeadlineAdmissionRejectsAtSubmit) {
    TuningService service{TuningService::Options{
        .threads = 1, .deadline_admission = true}};

    // Already past: rejected deterministically even with a cold estimator.
    try {
        (void)service.submit(Request{
            .work = plain("jacobi", 1e-1, {0}),
            .deadline = std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(1)});
        FAIL() << "expected RequestRejected";
    } catch (const tp::tuning::RequestRejected& rejected) {
        EXPECT_EQ(rejected.reason(),
                  tp::tuning::RequestRejected::Reason::kDeadlineUnmeetable);
    }
    EXPECT_EQ(service.queued(), 0u);
    // Rejected means never admitted: no engine work ran or will run.
    EXPECT_EQ(service.engine("jacobi").stats(), EvalStats{});

    // Warm the run-time estimator with one completed request, then build
    // a backlog: a busy worker plus a queued sweep. A sweep-class request
    // due in 1us cannot beat a backlog estimated from real sweep runs.
    const TuningRequest small = plain("jacobi", 1e-1, {0});
    EXPECT_TRUE(service.submit(Request{.work = small}).search_result() ==
                direct(small));
    const TicketHandle blocker = service.submit(sweep("pca"));
    wait_until_started(blocker);
    const TicketHandle queued_sweep = service.submit(sweep("dwt"));
    try {
        (void)service.submit(Request{
            .work = plain("conv", 1e-1, {0}),
            .priority = Priority::kSweep,
            .deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(1)});
        FAIL() << "expected RequestRejected";
    } catch (const tp::tuning::RequestRejected& rejected) {
        EXPECT_EQ(rejected.reason(),
                  tp::tuning::RequestRejected::Reason::kDeadlineUnmeetable);
    }
    const tp::tuning::AdmissionStats admission = service.admission_stats();
    EXPECT_EQ(admission.rejected_deadline, 2u);
    EXPECT_EQ(admission.admitted, 3u);
    // A roomy deadline sails through and completes with reference bits.
    const TicketHandle met = service.submit(Request{
        .work = small,
        .priority = Priority::kInteractive,
        .deadline = std::chrono::steady_clock::now() + std::chrono::hours(1)});
    EXPECT_TRUE(met.search_result() == direct(small));
    (void)queued_sweep.sweep_results();
}

// Eager deadline expiry: a queued request whose deadline passes goes
// kExpired at the next queue touch (here: an unrelated submit), while
// the only worker is still busy — no pop involved. Deterministic: the
// deadline is already past at admission (deadline_admission off keeps
// the lazy semantics), so the very next purge must catch it.
TEST(ServiceScheduler, QueuedDeadlineExpiresWithoutAPop) {
    TuningService service{TuningService::Options{.threads = 1}};
    const TicketHandle blocker = service.submit(sweep("pca"));
    wait_until_started(blocker);

    const TicketHandle doomed = service.submit(Request{
        .work = plain("jacobi", 1e-1, {0}),
        .deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1)});
    EXPECT_EQ(doomed.status(), RequestStatus::kQueued);
    EXPECT_EQ(service.queued(), 1u);

    // The trigger: any later submit purges expired entries before it
    // enqueues. By the time it returns, `doomed` is terminal even though
    // the worker never popped it (it is still inside the blocker sweep).
    const TicketHandle trigger =
        service.submit(Request{.work = plain("conv", 1e-1, {0})});
    EXPECT_EQ(doomed.status(), RequestStatus::kExpired);
    EXPECT_THROW((void)doomed.get(), DeadlineExpired);
    EXPECT_EQ(doomed.stats(), EvalStats{});
    EXPECT_EQ(service.queued(), 1u); // the trigger only — no tombstone

    EXPECT_TRUE(trigger.search_result() == direct(plain("conv", 1e-1, {0})));
}

// Cancelled tickets leave no tombstones behind: queued() drops the
// moment cancel() returns, long before any worker pops.
TEST(ServiceScheduler, CancelledTicketsLeaveNoTombstones) {
    TuningService service{TuningService::Options{.threads = 1}};
    const TicketHandle blocker = service.submit(sweep("pca"));
    wait_until_started(blocker);

    std::vector<TicketHandle> queued;
    for (int i = 0; i < 3; ++i) {
        queued.push_back(
            service.submit(Request{.work = plain("jacobi", 1e-1, {0})}));
    }
    EXPECT_EQ(service.queued(), 3u);
    for (const TicketHandle& handle : queued) EXPECT_TRUE(handle.cancel());
    EXPECT_EQ(service.queued(), 0u);
    for (const TicketHandle& handle : queued) {
        EXPECT_EQ(handle.status(), RequestStatus::kCancelled);
    }
}

// The determinism contract across the new fairness knobs: a sustained
// mixed-priority arrival stream with aging enabled returns bit-identical
// results at one worker and at four — and both match the direct-search
// reference.
TEST(ServiceScheduler, SustainedArrivalsBitIdenticalAcrossThreadCounts) {
    const std::vector<TuningRequest> mix = {
        plain("jacobi", 1e-1, {0}), plain("conv", 1e-1, {0}),
        plain("jacobi", 1e-2, {0}), plain("conv", 1e-2, {0}),
    };
    constexpr Priority kPriorities[] = {Priority::kInteractive,
                                        Priority::kNormal, Priority::kSweep};

    const auto run_stream = [&mix, &kPriorities](unsigned threads) {
        TuningService service{TuningService::Options{
            .threads = threads,
            .aging_quantum = std::chrono::microseconds(200)}};
        std::vector<TicketHandle> handles;
        for (int i = 0; i < 8; ++i) {
            handles.push_back(service.submit(Request{
                .work = mix[static_cast<std::size_t>(i) % mix.size()],
                .priority = kPriorities[static_cast<std::size_t>(i) % 3]}));
            // Open-loop-ish spacing: arrivals keep coming while earlier
            // requests run, so aging actually reorders pops.
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
        std::vector<TuningResult> results;
        results.reserve(handles.size());
        for (const TicketHandle& handle : handles) {
            results.push_back(handle.search_result());
        }
        return results;
    };

    const std::vector<TuningResult> one = run_stream(1);
    const std::vector<TuningResult> four = run_stream(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_TRUE(one[i] == four[i]) << "request " << i;
        EXPECT_TRUE(one[i] == direct(mix[i % mix.size()])) << "request " << i;
    }
}

} // namespace
