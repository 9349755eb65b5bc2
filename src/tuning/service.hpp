// TuningService — asynchronous precision-tuning service on long-lived
// per-app EvalEngines.
//
// The paper's flow tunes one application for one quality requirement at
// a time; the service scenario is sustained traffic: bursts of requests,
// many for the same app at overlapping requirements, a few of them
// interactive and latency-sensitive, most of them long epsilon sweeps.
// There is one way in, asynchronous submission with admission control; a
// batch is a loop of submits followed by a wait on each handle:
//
//   * submit(Request) -> TicketHandle — a unified Request carries one of
//     three work variants (plain search, cast-aware pass, epsilon sweep),
//     a Priority, and an optional deadline. submit() validates the app
//     name (std::out_of_range before anything is admitted), resolves the
//     app's long-lived engine, and enqueues; the handle exposes
//     wait()/get(), status(), cancel(), the per-request EvalStats delta,
//     and admission/completion timestamps;
//   * scheduling is a priority queue over a persistent worker pool
//     (util/priority_scheduler.hpp): workers pop by (priority, admission
//     order), so a high-priority interactive request submitted behind
//     twenty queued sweeps runs next, not last. Requests whose deadline
//     has passed while queued complete exceptionally with DeadlineExpired
//     — eagerly, at the next queue-lock acquisition (their captured work
//     payload is released on the spot), or at pop time as the backstop —
//     instead of consuming a worker; cancel() takes effect on queued
//     requests (running requests finish) and removes the queue entry
//     immediately, so cancelled work never counts toward queue depths or
//     admission caps;
//   * fairness under sustained overload: with Options::aging_quantum set,
//     a queued request's effective priority escalates with queue time
//     (base + queue_time / quantum), so an unbroken kInteractive stream
//     cannot starve kSweep forever — a sweep's wait is bounded by the
//     class gap times the quantum plus the backlog at that rank. Zero
//     (the default) keeps strict priority;
//   * admission control: Options::max_queued_per_class caps the LIVE
//     queued requests per priority class — submit() past the cap throws
//     RequestRejected (kQueueFull) instead of letting latency grow
//     without bound — and with Options::deadline_admission, a request
//     whose deadline is already past or earlier than the backlog estimate
//     (mean completed-run time x queued-ahead / workers) is refused at
//     submit() with RequestRejected (kDeadlineUnmeetable) rather than
//     admitted to expire. Rejected requests are never admitted: no
//     ticket, no queue entry, no engine work;
//   * one long-lived EvalEngine per app — every request for an app
//     shares its golden outputs, clone pool, and memoized trial cache
//     (single-flight, LRU-budgeted), across requests and batches, for
//     the service's lifetime. Engines are pool-less: each request runs
//     its trials inline on its scheduler worker, so cross-request
//     parallelism replaces intra-search parallelism and nothing ever
//     blocks on a queued task (no pool-in-pool deadlock).
//
// Determinism (scheduling-independent): a request's result depends only
// on its own work payload — never on priority, deadline, admission
// order, cancellation of OTHER requests, worker count, cache state (the
// engine's cache-coherent contract, tuning/search.hpp), the aging
// quantum, queue caps, or rejections around it. QoS and admission knobs
// reorder or refuse work; they cannot change the bits of any completed
// result. Per-request EvalStats deltas
// are exact at any concurrency: each request runs inline on one worker
// inside an EvalStatsScope (tuning/eval_engine.hpp), so concurrent
// requests on a shared engine attribute every counter bump to exactly
// one ticket.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"

namespace tp::util {
class PriorityScheduler;
}

namespace tp::tuning {

/// One plain tuning request: minimize per-signal precision of `app`
/// subject to the quality requirement `epsilon` over `input_sets`.
struct TuningRequest {
    std::string app;                     // apps::make_app name
    double epsilon = 1e-1;               // output-quality requirement
    std::vector<unsigned> input_sets{0, 1, 2};
    /// Remaining search knobs (type system, pass/round budgets). The
    /// epsilon, input_sets, and threads fields of `options` are
    /// overridden by the request fields / the service's scheduling.
    SearchOptions options{};
};

/// An epsilon sweep: one search per requirement, in order, on the app's
/// shared engine — the overlap between the sweep's own searches is served
/// from cache. Resolves to one TuningResult per epsilon. The searches are
/// chained by sweep_search (tuning/search.hpp): each is seeded from the
/// tightest completed epsilon's result, cutting the trials submitted
/// while every result still meets its epsilon with per-signal precision
/// at or below the independent search's; the results are bit-identical
/// to a standalone sweep_search call — still a pure function of the
/// request, independent of scheduling — but NOT to standalone
/// per-epsilon TuningRequests. An empty or malformed `epsilons` fails the
/// ticket with std::invalid_argument before any search runs.
struct SweepRequest {
    std::string app;
    std::vector<double> epsilons{1e-3, 1e-2, 1e-1};
    std::vector<unsigned> input_sets{0, 1, 2};
    SearchOptions options{};
};

/// Scheduling class of a request. Higher runs first; within a class,
/// admission order (FIFO). Purely a QoS knob: results are independent of
/// the priority a request ran at.
enum class Priority : int {
    kSweep = 0,       // bulk work: epsilon sweeps, batch backfill
    kNormal = 1,      // default
    kInteractive = 2, // small latency-sensitive requests
};

/// The unified submission payload: what to run (one of the three work
/// variants), how urgently, and optionally by when it must have STARTED.
/// A request still queued when `deadline` passes is rejected with
/// DeadlineExpired — eagerly when any thread next touches the queue (its
/// captured payload is released then, not held until pop), at pop time as
/// the backstop — and never consumes a worker; a request that starts
/// before the deadline runs to completion. With
/// Options::deadline_admission, a deadline that provably cannot be met
/// is refused at submit() instead (RequestRejected).
struct Request {
    using Work = std::variant<TuningRequest, CastAwareRequest, SweepRequest>;
    Work work;
    Priority priority = Priority::kNormal;
    std::optional<std::chrono::steady_clock::time_point> deadline{};
};

/// What a completed request resolves to, matching Request::Work
/// position-for-position: TuningResult for a plain search, CastAwareResult
/// for a cast-aware pass, one TuningResult per epsilon for a sweep.
using RequestResult =
    std::variant<TuningResult, CastAwareResult, std::vector<TuningResult>>;

/// Ticket lifecycle. Queued -> Running -> Done | Failed on the normal
/// path; Queued -> Cancelled via cancel(); Queued -> Expired when the
/// deadline passes before a worker picks the request up. Terminal states
/// (Done, Failed, Cancelled, Expired) are final.
enum class RequestStatus {
    kQueued,
    kRunning,
    kDone,
    kCancelled, // typed rejection: TicketHandle::get() throws RequestCancelled
    kExpired,   // typed rejection: TicketHandle::get() throws DeadlineExpired
    kFailed,    // the search threw; get() rethrows the original exception
};

/// Thrown by TicketHandle::get() for a request cancelled while queued.
class RequestCancelled final : public std::runtime_error {
public:
    explicit RequestCancelled(std::uint64_t id)
        : std::runtime_error("tuning request #" + std::to_string(id) +
                             " was cancelled while queued") {}
};

/// Thrown by TicketHandle::get() for a request still queued past its
/// deadline.
class DeadlineExpired final : public std::runtime_error {
public:
    explicit DeadlineExpired(std::uint64_t id)
        : std::runtime_error("tuning request #" + std::to_string(id) +
                             " missed its deadline while queued") {}
};

/// Thrown by TuningService::submit() when admission control refuses a
/// request (load shedding). Unlike the rejections above, the request was
/// NEVER admitted: no ticket exists, nothing is queued, no engine work
/// will run for it — the caller sheds the load or retries later.
class RequestRejected final : public std::runtime_error {
public:
    enum class Reason {
        /// The live queue for the request's priority class is at
        /// Options::max_queued_per_class (cancelled/expired entries
        /// don't count — the cap bounds real work).
        kQueueFull,
        /// Options::deadline_admission is on and the request's deadline
        /// is already past, or earlier than the current backlog estimate
        /// allows (see submit()).
        kDeadlineUnmeetable,
    };

    RequestRejected(Reason reason, const std::string& what)
        : std::runtime_error(what), reason_(reason) {}
    [[nodiscard]] Reason reason() const noexcept { return reason_; }

private:
    Reason reason_;
};

/// Lifetime admission counters: every submit() outcome is exactly one of
/// these. admitted covers requests that got a ticket (whatever their
/// eventual fate); the rejected_* counters are typed load-shedding.
struct AdmissionStats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_deadline = 0;

    [[nodiscard]] std::uint64_t submitted() const noexcept {
        return admitted + rejected_queue_full + rejected_deadline;
    }
    friend bool operator==(const AdmissionStats&,
                           const AdmissionStats&) = default;
};

namespace detail {
struct ServiceTicket;
struct RunTimeEstimator;
}

/// Shared handle to one submitted request. Cheap to copy; every copy
/// observes the same ticket. Outlives the service safely: a handle held
/// across service destruction still resolves (the destructor cancels
/// queued work and drains running work before returning).
class TicketHandle {
public:
    TicketHandle() = default; // empty; valid() is false

    [[nodiscard]] bool valid() const noexcept { return ticket_ != nullptr; }

    /// Monotone submission id, quoted by the typed rejection exceptions.
    /// Requests submitted from one thread carry increasing ids in their
    /// admission order.
    [[nodiscard]] std::uint64_t id() const;

    [[nodiscard]] RequestStatus status() const;

    /// Blocks until the ticket is terminal.
    void wait() const;

    /// wait(), then: the result for kDone; throws RequestCancelled /
    /// DeadlineExpired for the typed rejections; rethrows the search's
    /// exception for kFailed. The reference stays valid while any handle
    /// to the ticket lives.
    const RequestResult& get() const;

    /// Variant accessors over get() — throw std::bad_variant_access when
    /// the request was not of the matching kind.
    [[nodiscard]] const TuningResult& search_result() const;
    [[nodiscard]] const CastAwareResult& cast_aware_result() const;
    [[nodiscard]] const std::vector<TuningResult>& sweep_results() const;

    /// Cancels the request if it is still queued: the ticket becomes
    /// kCancelled, no kernel ever runs for it, and waiters wake. Returns
    /// true exactly then. A running request finishes (returns false); on
    /// an already-terminal ticket this is a no-op (returns false).
    bool cancel() const;

    /// The exact engine-counter delta this request produced (zeros until
    /// the ticket is terminal, and for cancelled/expired tickets, which
    /// run nothing; a kFailed ticket reports the work it did before
    /// throwing). Exact even when concurrent requests share the engine —
    /// see EvalStatsScope.
    [[nodiscard]] EvalStats stats() const;

    /// Admission / terminal-transition timestamps; completion latency is
    /// completed_at() - submitted_at(). completed_at() is meaningful only
    /// once terminal.
    [[nodiscard]] std::chrono::steady_clock::time_point submitted_at() const;
    [[nodiscard]] std::chrono::steady_clock::time_point completed_at() const;

private:
    friend class TuningService;
    explicit TicketHandle(std::shared_ptr<detail::ServiceTicket> ticket)
        : ticket_(std::move(ticket)) {}

    std::shared_ptr<detail::ServiceTicket> ticket_;
};

class TuningService {
public:
    struct Options {
        /// Scheduler workers — concurrent requests in flight. At least
        /// one worker always exists (submission is asynchronous even at
        /// threads = 1; a single worker executes strictly in (priority,
        /// admission) order).
        unsigned threads = 1;
        /// Trial memoization for every engine the service creates.
        bool memoize = true;
        /// Per-app engine cache budget in bytes; 0 = unbounded. See
        /// EvalEngine::Options::cache_budget_bytes.
        std::size_t cache_budget_bytes = 0;
        /// Live queued requests allowed per priority class; 0 (default)
        /// = unbounded. Past the cap, submit() throws RequestRejected
        /// (kQueueFull). Running requests and cancelled/expired entries
        /// never count.
        std::size_t max_queued_per_class = 0;
        /// Anti-starvation aging quantum: a queued request's effective
        /// priority is its class + queue_time / quantum, so sustained
        /// high-priority traffic cannot starve lower classes forever.
        /// Zero (default) keeps strict priority. Purely a QoS knob —
        /// results never depend on it (determinism contract).
        std::chrono::steady_clock::duration aging_quantum{};
        /// Reject-at-submit for hopeless deadlines: a request carrying a
        /// deadline that is already past, or closer than the backlog
        /// estimate (mean completed-run seconds x live requests queued at
        /// >= its priority / workers), throws RequestRejected
        /// (kDeadlineUnmeetable) instead of queueing only to expire. The
        /// estimate ignores aged-up lower classes, so it under-estimates
        /// at worst — an admitted-but-doomed request still expires on the
        /// lazy path. Off by default: deadlines then keep the purely lazy
        /// expire-while-queued semantics.
        bool deadline_admission = false;
    };

    TuningService(); // default Options
    explicit TuningService(const Options& options);
    TuningService(const TuningService&) = delete;
    TuningService& operator=(const TuningService&) = delete;

    /// Cancels everything still queued (their waiters observe kCancelled),
    /// lets running requests finish, then joins the workers. Never
    /// deadlocks on queued work; results already computed stay
    /// retrievable through surviving handles.
    ~TuningService();

    /// Admits one request. Admission control runs BEFORE anything is
    /// enqueued: an unknown app name throws std::out_of_range, a full
    /// priority class (Options::max_queued_per_class) throws
    /// RequestRejected{kQueueFull}, and with Options::deadline_admission
    /// a hopeless deadline throws RequestRejected{kDeadlineUnmeetable} —
    /// in every rejecting case the service queue is untouched and no
    /// ticket exists. Otherwise returns immediately with the ticket.
    /// Thread-safe; requests submitted from one thread are admitted in
    /// program order. Must not be called from inside a request running on
    /// this service (a saturated scheduler would deadlock on the
    /// dependency).
    TicketHandle submit(Request request);

    /// The long-lived engine serving `app_name`, created on first use
    /// (throws std::out_of_range for unknown names). Exposed for
    /// observability — cache_bytes(), stats() — and for callers that mix
    /// submitted and direct searches on the same cache.
    EvalEngine& engine(std::string_view app_name);

    /// Engines created so far (one per distinct app requested).
    [[nodiscard]] std::size_t engine_count() const;

    /// Lifetime aggregate of every engine's counters.
    [[nodiscard]] EvalStats stats() const;

    /// LIVE queued requests right now — cancelled and expired entries are
    /// removed from the queue the moment they go terminal, so this is the
    /// real backlog, the number admission decisions are built on (the old
    /// scheduler counted tombstones here).
    [[nodiscard]] std::size_t queued() const;

    /// Lifetime admission outcomes (admitted / typed rejections).
    [[nodiscard]] AdmissionStats admission_stats() const;

private:
    Options options_;

    mutable std::mutex engines_mutex_;
    // Node-stable: engine() hands out references that live as long as
    // the service. Heterogeneous lookup spares a string copy per request.
    std::map<std::string, std::unique_ptr<EvalEngine>, std::less<>> engines_;

    mutable std::mutex tickets_mutex_;
    std::uint64_t next_ticket_id_ = 0;
    AdmissionStats admission_stats_;
    // Every outstanding ticket, for destructor-time cancellation. Weak:
    // the queue's closures own the tickets; expired entries are pruned on
    // submit.
    std::vector<std::weak_ptr<detail::ServiceTicket>> tickets_;

    // Mean run time of completed requests, feeding the deadline-admission
    // backlog estimate. Shared with the worker closures so recording
    // outlives any individual submit.
    std::shared_ptr<detail::RunTimeEstimator> estimator_;

    // Declared last: destruction drains the workers while the engines and
    // ticket registry above are still alive. Shared so tickets can hold a
    // weak reference for cancel-time queue-entry discarding without tying
    // their lifetime to the service's.
    std::shared_ptr<util::PriorityScheduler> scheduler_;
};

} // namespace tp::tuning
