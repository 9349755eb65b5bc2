// The async tuning service (tuning/service.hpp): submit requests with
// priorities, deadlines, and cancellation instead of hand-rolling
// per-app/per-epsilon loops — and watch a small interactive request
// overtake a queued sweep backlog.
//
// The service routes every request for an app to one long-lived
// EvalEngine, schedules requests by (priority, admission order) on a
// persistent worker pool, and the shared memoized trial cache makes the
// overlap between requests mostly free — exactly one kernel execution
// per distinct (input set, binding), at any concurrency (single-flight).
// Results never depend on scheduling: the same request returns the same
// bits at any priority, thread count, or cache state.
//
// Run: ./build/tuning_service_demo [threads]
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "analysis/derive_bounds.hpp"
#include "apps/app.hpp"
#include "tuning/config_io.hpp"
#include "tuning/search.hpp"
#include "tuning/service.hpp"
#include "types/format.hpp"
#include "util/table.hpp"

namespace {

double latency_ms(const tp::tuning::TicketHandle& handle) {
    return std::chrono::duration<double, std::milli>(handle.completed_at() -
                                                     handle.submitted_at())
        .count();
}

} // namespace

int main(int argc, char** argv) {
    using tp::tuning::Priority;
    using tp::tuning::Request;
    using tp::tuning::RequestStatus;
    using tp::tuning::SweepRequest;
    using tp::tuning::TicketHandle;
    using tp::tuning::TuningRequest;

    const unsigned threads =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 2;
    tp::tuning::TuningService service{
        tp::tuning::TuningService::Options{.threads = threads}};
    std::cout << "async tuning service on " << threads << " worker(s)\n\n";

    // A backlog of bulk work: one three-epsilon sweep per app, admitted
    // at the lowest priority. Sweeps chain epsilons through warm starts
    // by default: each looser search starts from the tighter result's
    // bits instead of the full lattice, so the backlog submits fewer
    // trials than three independent searches would.
    std::vector<TicketHandle> sweeps;
    for (const char* app : {"pca", "dwt", "knn"}) {
        SweepRequest sweep;
        sweep.app = app;
        sweep.epsilons = {1e-3, 1e-2, 1e-1};
        sweeps.push_back(service.submit(
            Request{.work = std::move(sweep), .priority = Priority::kSweep}));
    }

    // An interactive request arrives behind the backlog — and overtakes
    // it: the scheduler pops by priority, so this runs on the next free
    // worker, not after every sweep.
    TuningRequest interactive;
    interactive.app = "jacobi";
    interactive.epsilon = 1e-1;
    const TicketHandle urgent = service.submit(
        Request{.work = interactive,
                .priority = Priority::kInteractive,
                .deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(30)});

    // Bulk work is also refusable: cancel one queued sweep (a running
    // one would finish — cancellation never corrupts results).
    const bool cancelled = sweeps.back().cancel();

    const auto& tuned = urgent.search_result(); // wait()s
    std::cout << "interactive jacobi @1e-1 finished in " << latency_ms(urgent)
              << " ms, " << tuned.program_runs << " trials, while "
              << (cancelled ? "the cancelled sweep never ran and "
                            : "every sweep ran and ")
              << "the backlog kept draining\n\n";

    tp::util::Table table(
        {"app", "epsilon", "status", "trials", "binding (per signal bits)"});
    const auto add_row = [&table](const char* app, double epsilon,
                                  const tp::tuning::TuningResult& result) {
        std::string binding;
        for (const auto& sr : result.signals) {
            if (!binding.empty()) binding += ' ';
            binding += std::to_string(sr.precision_bits);
        }
        table.add_row({app, tp::util::Table::num(epsilon, 3), "done",
                       std::to_string(result.program_runs), binding});
    };
    add_row("jacobi", 1e-1, tuned);
    const char* sweep_apps[] = {"pca", "dwt", "knn"};
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        sweeps[i].wait();
        const RequestStatus status = sweeps[i].status();
        if (status != RequestStatus::kDone) {
            // A failed sweep is a real error, not a cancellation — say so.
            table.add_row({sweep_apps[i], "-",
                           status == RequestStatus::kCancelled ? "cancelled"
                                                               : "failed",
                           "0", "-"});
            continue;
        }
        const auto& results = sweeps[i].sweep_results();
        const double epsilons[] = {1e-3, 1e-2, 1e-1};
        for (std::size_t e = 0; e < results.size(); ++e) {
            add_row(sweep_apps[i], epsilons[e], results[e]);
        }
    }
    table.print(std::cout);

    const auto stats = service.stats();
    std::cout << "\nservice totals: " << stats.trials << " trials, "
              << stats.kernel_runs << " kernel executions, "
              << stats.cache_hits << " served from shared caches ("
              << static_cast<int>(100.0 * stats.hit_rate())
              << "% eliminated), " << stats.trials_skipped_by_bounds
              << " bisection steps never submitted (warm-start clamps)\n";

    // A tuned result is also a reusable artifact: store it as a config
    // file, load it back against the app's signal table, and seed the
    // next search with it. Quality is monotone in epsilon, so a 1e-3
    // result is a feasible (and aggressive) starting point at 1e-2.
    if (sweeps.front().status() == RequestStatus::kDone) {
        std::stringstream config_file;
        tp::tuning::write_precision_config(
            config_file, sweeps.front().sweep_results()[0].precision_config());
        const auto app = tp::apps::make_app("pca");
        tp::tuning::SearchOptions seeded;
        seeded.epsilon = 1e-2;
        tp::tuning::WarmStart seed;
        seed.seed_bits =
            tp::tuning::read_warm_start_seed(config_file, app->signal_table());
        seeded.warm_start = std::move(seed);
        const auto warm = tp::tuning::distributed_search(
            service.engine("pca"), seeded);
        std::cout << "re-tuning pca @1e-2 seeded from the saved 1e-3 "
                     "config: "
                  << warm.program_runs << " trials\n";
    }

    // Before any of those trials ran, the static analysis could already
    // have said a lot: one shadow reference execution per input set yields
    // sound per-signal precision lower bounds (what static_bounds feeds
    // the search) plus a precision lint over the captured dataflow —
    // redundant casts, double-rounding hazards, signals whose whole range
    // sits below the narrow formats' normal numbers, and dead casts whose
    // endpoints the bounds pin to one and the same member format.
    {
        const auto app = tp::apps::make_app("iir");
        tp::analysis::DeriveOptions options;
        options.input_sets = {0, 1};
        const auto analysis = tp::analysis::analyze(*app, 1e-2, options);
        std::cout << "\nstatic analysis (no trials):\n"
                  << analysis.to_string();
        std::cout << "dead casts (elide under every reachable binding): "
                  << analysis.lint.count(tp::analysis::LintKind::DeadCast)
                  << '\n';
    }

    // A batch is a loop of submits, then a wait on each handle: repeating
    // the drained work is pure cache. (These are independent per-epsilon
    // searches, not chained ones — but the cache keys on (input set,
    // config), not epsilon, and the trials above cover every config these
    // searches revisit.)
    std::vector<TicketHandle> repeats;
    for (const char* app : {"pca", "dwt"}) {
        for (const double epsilon : {1e-3, 1e-2, 1e-1}) {
            TuningRequest request;
            request.app = app;
            request.epsilon = epsilon;
            repeats.push_back(
                service.submit(Request{.work = std::move(request)}));
        }
    }
    tp::tuning::EvalStats repeat;
    for (const TicketHandle& handle : repeats) {
        handle.wait();
        repeat += handle.stats();
    }
    std::cout << "re-submitting " << repeats.size()
              << " of those requests: " << repeat.kernel_runs
              << " kernel executions ("
              << static_cast<int>(100.0 * repeat.hit_rate())
              << "% served from cache)\n";

    // Under sustained overload the service sheds load instead of letting
    // latency grow without bound: per-class queue caps and deadline-aware
    // admission refuse requests AT SUBMIT with a typed RequestRejected —
    // no ticket, no queue entry, no engine work — and an aging quantum
    // keeps a saturated interactive stream from starving queued sweeps
    // forever. Demonstrate on a deliberately tiny service: one worker,
    // one queued request per class.
    {
        tp::tuning::TuningService overloaded{tp::tuning::TuningService::Options{
            .threads = 1,
            .max_queued_per_class = 1,
            .aging_quantum = std::chrono::milliseconds(50),
            .deadline_admission = true}};
        TuningRequest small;
        small.app = "jacobi";
        small.epsilon = 1e-1;
        small.input_sets = {0};
        const TicketHandle running = overloaded.submit(Request{.work = small});
        // Let the worker pop the first request before filling the queue:
        // the cap counts QUEUED requests, not running ones.
        while (running.status() == RequestStatus::kQueued) {
            std::this_thread::yield();
        }
        const TicketHandle queued = overloaded.submit(Request{.work = small});
        std::cout << "\nadmission control (cap 1/class, 1 worker): ";
        try {
            (void)overloaded.submit(Request{.work = small});
        } catch (const tp::tuning::RequestRejected& rejected) {
            std::cout << "third submit rejected (" << rejected.what() << ")";
        }
        try {
            (void)overloaded.submit(Request{
                .work = small,
                .deadline = std::chrono::steady_clock::now() -
                            std::chrono::milliseconds(1)});
        } catch (const tp::tuning::RequestRejected& rejected) {
            std::cout << "\n  and a hopeless deadline is refused up front ("
                      << (rejected.reason() == tp::tuning::RequestRejected::
                                                   Reason::kDeadlineUnmeetable
                              ? "kDeadlineUnmeetable"
                              : "kQueueFull")
                      << ")";
        }
        queued.wait();
        running.wait();
        const auto admission = overloaded.admission_stats();
        std::cout << "\n  admitted " << admission.admitted << ", shed "
                  << admission.rejected_queue_full << ", deadline-refused "
                  << admission.rejected_deadline
                  << " — every admitted request still completed\n";
    }
    return 0;
}
