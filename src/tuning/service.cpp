#include "tuning/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <utility>

#include "apps/app.hpp"
#include "util/priority_scheduler.hpp"

namespace tp::tuning {

namespace detail {

/// The shared state behind one TicketHandle. The queue's closure and
/// every handle copy co-own it; `mutex`/`cv` guard the lifecycle fields,
/// which only ever move forward (kQueued -> kRunning -> terminal), so a
/// reader that observes a terminal status may read `value`/`stats`/
/// `error` without re-checking. `request.work` is an exception to the
/// forward-only rule: a kQueued -> kCancelled/kExpired transition clears
/// it (the payload is dead weight once nothing will run it); only the
/// kQueued -> kRunning transition licenses reading it afterwards.
struct ServiceTicket {
    using Clock = std::chrono::steady_clock;

    // Immutable after submit().
    std::uint64_t id = 0;
    Request request;
    EvalEngine* engine = nullptr;
    Clock::time_point submitted_at{};
    // The scheduler entry behind this ticket, for cancel-time discarding.
    // scheduler is set before the ticket is shared; task_id is written by
    // the submitter (under mutex) once the scheduler admits the entry and
    // stays kNoTask until then.
    std::weak_ptr<util::PriorityScheduler> scheduler;
    std::uint64_t task_id = util::PriorityScheduler::kNoTask;

    mutable std::mutex mutex;
    std::condition_variable cv;
    RequestStatus status = RequestStatus::kQueued;
    RequestResult value;
    EvalStats stats;               // exact per-request delta (EvalStatsScope)
    std::exception_ptr error;      // set for kFailed
    Clock::time_point completed_at{}; // set on the terminal transition
};

/// Running mean of completed requests' execution time (queue wait
/// excluded), feeding the deadline-admission backlog estimate. Shared by
/// the service and the worker closures.
struct RunTimeEstimator {
    std::mutex mutex;
    double total_seconds = 0.0;
    std::uint64_t runs = 0;

    void record(double seconds) {
        const std::lock_guard<std::mutex> lock{mutex};
        total_seconds += seconds;
        ++runs;
    }
    [[nodiscard]] double mean_seconds() {
        const std::lock_guard<std::mutex> lock{mutex};
        return runs == 0 ? 0.0 : total_seconds / static_cast<double>(runs);
    }
};

} // namespace detail

namespace {

using detail::RunTimeEstimator;
using detail::ServiceTicket;
using Clock = std::chrono::steady_clock;

[[nodiscard]] bool is_terminal(RequestStatus status) noexcept {
    return status != RequestStatus::kQueued &&
           status != RequestStatus::kRunning;
}

/// A ticket that just went terminal without running never needs its work
/// payload again — drop the app name, input sets, options and warm-start
/// vectors now instead of holding them until the last handle dies.
/// Caller holds the ticket lock and has just completed a kQueued ->
/// kCancelled/kExpired transition (never later: a running request is
/// reading its work).
void release_work_payload(ServiceTicket& ticket) {
    ticket.request.work = TuningRequest{.app = {}, .input_sets = {}};
}

/// Queued -> Cancelled, if still queued. Shared by TicketHandle::cancel()
/// and the service destructor. Also discards the scheduler queue entry so
/// cancelled work stops counting toward queue depth and class caps the
/// moment it is cancelled — no tombstone lingers.
bool cancel_ticket(ServiceTicket& ticket) {
    std::shared_ptr<util::PriorityScheduler> scheduler;
    std::uint64_t task_id = util::PriorityScheduler::kNoTask;
    {
        const std::lock_guard<std::mutex> lock{ticket.mutex};
        if (ticket.status != RequestStatus::kQueued) return false;
        ticket.status = RequestStatus::kCancelled;
        ticket.completed_at = Clock::now();
        release_work_payload(ticket);
        scheduler = ticket.scheduler.lock();
        task_id = ticket.task_id;
        ticket.cv.notify_all();
    }
    // Outside the ticket lock: discard takes the scheduler lock, and the
    // two are only ever taken scheduler-then-ticket elsewhere. A race
    // with a pop is benign — the popped closure re-checks the status.
    if (scheduler != nullptr) (void)scheduler->discard(task_id);
    return true;
}

/// Queued -> Expired: the deadline rejection. Reached eagerly via the
/// scheduler's expiry purge (TaskOptions::on_discard) and lazily via the
/// pop-time backstop in run_ticket.
void expire_ticket(ServiceTicket& ticket) {
    const std::lock_guard<std::mutex> lock{ticket.mutex};
    if (ticket.status != RequestStatus::kQueued) return;
    ticket.status = RequestStatus::kExpired;
    ticket.completed_at = Clock::now();
    release_work_payload(ticket);
    ticket.cv.notify_all();
}

/// Every work variant names its app; admission resolves it to an engine.
const std::string& app_of(const Request::Work& work) {
    return std::visit([](const auto& r) -> const std::string& { return r.app; },
                      work);
}

/// Per-search options with the request's input sets folded in.
SearchOptions resolve(SearchOptions options,
                      const std::vector<unsigned>& input_sets) {
    options.input_sets = input_sets;
    options.threads = 1; // unused: the service engines are pool-less
    return options;
}

template <typename... Ts>
struct Overloaded : Ts... {
    using Ts::operator()...;
};
template <typename... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// Runs one admitted request's work on its app's engine, inline on the
/// calling scheduler worker. Pure in (engine caches aside) the work
/// payload — the determinism contract's scheduling-independence rests on
/// this function never looking at priority, deadline, or ticket state.
RequestResult execute_work(EvalEngine& engine, const Request::Work& work) {
    return std::visit(
        Overloaded{
            [&engine](const TuningRequest& r) -> RequestResult {
                SearchOptions options = resolve(r.options, r.input_sets);
                options.epsilon = r.epsilon;
                return distributed_search(engine, options);
            },
            [&engine](const CastAwareRequest& r) -> RequestResult {
                return cast_aware_search(engine, r.options);
            },
            [&engine](const SweepRequest& r) -> RequestResult {
                // sweep_search validates the epsilons and sets each
                // search's own.
                return sweep_search(engine, resolve(r.options, r.input_sets),
                                    r.epsilons);
            },
        },
        work);
}

/// The closure body a worker pops: admission checks (tombstone, deadline)
/// under the ticket lock, then the actual search OUTSIDE any lock, then
/// the terminal transition. Owns no reference to the service — the
/// ticket carries everything, so destruction-time draining never races
/// service members.
void run_ticket(const std::shared_ptr<ServiceTicket>& ticket,
                const std::shared_ptr<RunTimeEstimator>& estimator) {
    {
        const std::lock_guard<std::mutex> lock{ticket->mutex};
        if (ticket->status != RequestStatus::kQueued) return; // cancelled
        if (ticket->request.deadline.has_value() &&
            Clock::now() >= *ticket->request.deadline) {
            // Pop-time backstop of the deadline protocol: the eager
            // purge usually expires queued entries first, but a pop can
            // race the expiry. Costs the worker a pop, never a kernel.
            ticket->status = RequestStatus::kExpired;
            ticket->completed_at = Clock::now();
            release_work_payload(*ticket);
            ticket->cv.notify_all();
            return;
        }
        ticket->status = RequestStatus::kRunning;
    }

    const Clock::time_point run_started = Clock::now();
    RequestStatus terminal = RequestStatus::kDone;
    RequestResult value;
    EvalStats delta;
    std::exception_ptr error;
    {
        // The scope captures exactly this request's counter bumps: the
        // engine is pool-less, so every trial runs on this thread. It
        // wraps the catch too — a failed search bumped real counters
        // before throwing, and per-ticket deltas must still sum to the
        // engine delta.
        const EvalStatsScope scope;
        try {
            value = execute_work(*ticket->engine, ticket->request.work);
        } catch (...) {
            error = std::current_exception();
            terminal = RequestStatus::kFailed;
        }
        delta = scope.stats();
    }
    // cast_aware_search reports a before/after engine snapshot, which on
    // a shared engine can interleave foreign traffic; the scoped delta is
    // exact, so it is what the stored result carries.
    if (auto* cast = std::get_if<CastAwareResult>(&value)) {
        cast->eval_stats = delta;
    }
    // Failed runs count too: they consumed a worker for this long, which
    // is what the deadline-admission backlog estimate is modelling.
    estimator->record(std::chrono::duration<double>(Clock::now() - run_started)
                          .count());

    {
        const std::lock_guard<std::mutex> lock{ticket->mutex};
        ticket->status = terminal;
        ticket->value = std::move(value);
        ticket->stats = delta;
        ticket->error = error;
        ticket->completed_at = Clock::now();
        ticket->cv.notify_all();
    }
}

} // namespace

// --- TicketHandle -----------------------------------------------------------

std::uint64_t TicketHandle::id() const { return ticket_->id; }

RequestStatus TicketHandle::status() const {
    const std::lock_guard<std::mutex> lock{ticket_->mutex};
    return ticket_->status;
}

void TicketHandle::wait() const {
    std::unique_lock<std::mutex> lock{ticket_->mutex};
    ticket_->cv.wait(lock, [this] { return is_terminal(ticket_->status); });
}

const RequestResult& TicketHandle::get() const {
    std::unique_lock<std::mutex> lock{ticket_->mutex};
    ticket_->cv.wait(lock, [this] { return is_terminal(ticket_->status); });
    switch (ticket_->status) {
        case RequestStatus::kCancelled:
            throw RequestCancelled{ticket_->id};
        case RequestStatus::kExpired:
            throw DeadlineExpired{ticket_->id};
        case RequestStatus::kFailed:
            std::rethrow_exception(ticket_->error);
        default:
            // Terminal fields are immutable once set; the reference stays
            // valid as long as any handle keeps the ticket alive.
            return ticket_->value;
    }
}

const TuningResult& TicketHandle::search_result() const {
    return std::get<TuningResult>(get());
}

const CastAwareResult& TicketHandle::cast_aware_result() const {
    return std::get<CastAwareResult>(get());
}

const std::vector<TuningResult>& TicketHandle::sweep_results() const {
    return std::get<std::vector<TuningResult>>(get());
}

bool TicketHandle::cancel() const { return cancel_ticket(*ticket_); }

EvalStats TicketHandle::stats() const {
    const std::lock_guard<std::mutex> lock{ticket_->mutex};
    return is_terminal(ticket_->status) ? ticket_->stats : EvalStats{};
}

std::chrono::steady_clock::time_point TicketHandle::submitted_at() const {
    return ticket_->submitted_at;
}

std::chrono::steady_clock::time_point TicketHandle::completed_at() const {
    const std::lock_guard<std::mutex> lock{ticket_->mutex};
    return ticket_->completed_at;
}

// --- TuningService ----------------------------------------------------------

TuningService::TuningService() : TuningService(Options{}) {}

TuningService::TuningService(const Options& options)
    : options_(options),
      estimator_(std::make_shared<detail::RunTimeEstimator>()),
      scheduler_(std::make_shared<util::PriorityScheduler>(
          util::PriorityScheduler::Options{
              .threads = options.threads,
              .per_class_cap = options.max_queued_per_class,
              .aging_quantum = options.aging_quantum})) {}

TuningService::~TuningService() {
    // Cancel everything still queued: their queue entries are discarded on
    // the spot (payloads released) and their waiters wake with kCancelled.
    // Running requests are left alone — the scheduler stop below waits for
    // them.
    std::vector<std::shared_ptr<detail::ServiceTicket>> live;
    {
        const std::lock_guard<std::mutex> lock{tickets_mutex_};
        for (const auto& weak : tickets_) {
            if (auto ticket = weak.lock()) live.push_back(std::move(ticket));
        }
        tickets_.clear();
    }
    for (const auto& ticket : live) (void)cancel_ticket(*ticket);
    // Stop explicitly while the engines the workers reference are still
    // alive, THEN drop the reference: tickets hold weak_ptrs to the
    // scheduler, so a late cancel() on a surviving handle may briefly
    // extend its lifetime past reset() — by then the workers are already
    // joined and destruction is trivial wherever it happens.
    scheduler_->stop();
    scheduler_.reset();
}

EvalEngine& TuningService::engine(std::string_view app_name) {
    const std::lock_guard<std::mutex> lock{engines_mutex_};
    const auto it = engines_.find(app_name);
    if (it != engines_.end()) return *it->second;
    // Engines are pool-less (threads = 1): a request evaluates its trials
    // inline on its scheduler worker, so no worker ever blocks on a
    // queued task. Cross-request concurrency on the shared caches is
    // handled by the engine's own locking and single-flight execution.
    const std::unique_ptr<apps::App> prototype = apps::make_app(app_name);
    auto created = std::make_unique<EvalEngine>(
        *prototype,
        EvalEngine::Options{.threads = 1,
                            .memoize = options_.memoize,
                            .cache_budget_bytes = options_.cache_budget_bytes});
    return *engines_.emplace(std::string(app_name), std::move(created))
                .first->second;
}

TicketHandle TuningService::submit(Request request) {
    // Admission control: resolve the app before anything is enqueued —
    // an unknown name throws std::out_of_range here and the service is
    // untouched.
    EvalEngine& request_engine = engine(app_of(request.work));

    const Clock::time_point now = Clock::now();
    if (options_.deadline_admission && request.deadline.has_value()) {
        // Backlog estimate: the live work queued at >= this priority, at
        // the mean completed-run time, spread over the workers. Zero runs
        // completed means zero estimate — only an already-past deadline
        // rejects then. Conservative by construction (aged-up lower
        // classes are ignored), so a refusal is never spurious in the
        // strict-priority model; an admitted-but-doomed request still
        // expires on the queued path.
        const auto backlog = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                estimator_->mean_seconds() *
                static_cast<double>(scheduler_->pending_at_least(
                    static_cast<int>(request.priority))) /
                static_cast<double>(std::max(1u, options_.threads))));
        if (*request.deadline <= now + backlog) {
            {
                const std::lock_guard<std::mutex> lock{tickets_mutex_};
                ++admission_stats_.rejected_deadline;
            }
            throw RequestRejected{
                RequestRejected::Reason::kDeadlineUnmeetable,
                "tuning request refused at submit: its deadline cannot be "
                "met given the current backlog estimate"};
        }
    }

    auto ticket = std::make_shared<detail::ServiceTicket>();
    ticket->request = std::move(request);
    ticket->engine = &request_engine;
    ticket->submitted_at = now;
    ticket->scheduler = scheduler_;
    {
        const std::lock_guard<std::mutex> lock{tickets_mutex_};
        ticket->id = next_ticket_id_++;
    }

    std::uint64_t task_id = util::PriorityScheduler::kNoTask;
    try {
        task_id = scheduler_->submit(
            static_cast<int>(ticket->request.priority),
            [ticket, estimator = estimator_] { run_ticket(ticket, estimator); },
            util::PriorityScheduler::TaskOptions{
                .expiry = ticket->request.deadline,
                // Eager deadline rejection: the purge expires the ticket
                // (and releases its payload) the moment any thread touches
                // the queue past the deadline — no pop required.
                .on_discard = [ticket] { expire_ticket(*ticket); }});
    } catch (const util::PriorityScheduler::ClassFull& full) {
        {
            const std::lock_guard<std::mutex> lock{tickets_mutex_};
            ++admission_stats_.rejected_queue_full;
        }
        // The never-shared ticket dies here: rejected means no ticket, no
        // queue entry, no engine work.
        throw RequestRejected{
            RequestRejected::Reason::kQueueFull,
            "tuning request refused at submit: priority class " +
                std::to_string(full.priority()) +
                " is at its live-queue cap (" + std::to_string(full.cap()) +
                ")"};
    }
    {
        // The ticket is shared with the queue now — cancel() needs the
        // task id to discard the entry, so publish it under the lock.
        const std::lock_guard<std::mutex> lock{ticket->mutex};
        ticket->task_id = task_id;
    }

    {
        const std::lock_guard<std::mutex> lock{tickets_mutex_};
        ++admission_stats_.admitted;
        std::erase_if(tickets_,
                      [](const auto& weak) { return weak.expired(); });
        tickets_.push_back(ticket);
    }
    return TicketHandle{std::move(ticket)};
}

std::size_t TuningService::engine_count() const {
    const std::lock_guard<std::mutex> lock{engines_mutex_};
    return engines_.size();
}

EvalStats TuningService::stats() const {
    const std::lock_guard<std::mutex> lock{engines_mutex_};
    EvalStats total;
    for (const auto& [name, engine] : engines_) total += engine->stats();
    return total;
}

std::size_t TuningService::queued() const { return scheduler_->pending(); }

AdmissionStats TuningService::admission_stats() const {
    const std::lock_guard<std::mutex> lock{tickets_mutex_};
    return admission_stats_;
}

} // namespace tp::tuning
