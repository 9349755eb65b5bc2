// Async tuning service under a mixed-priority overload burst
// (tuning/service.hpp).
//
// The QoS scenario the async redesign exists for: a backlog of twenty
// low-priority epsilon sweeps is queued, five high-priority interactive
// requests arrive behind it, and a few queued sweeps get cancelled. The
// scheduler pops by (priority, admission order), so the interactive
// requests must overtake the backlog — every one of them completes
// before the LAST sweep drains — while cancellation and priority change
// nothing about any result:
//
//   * QoS — p50/p95 completion latency per priority class, and the gate:
//     max(high completion) < max(low completion), at 4 workers and at 1;
//   * determinism — every TuningResult of the burst is bit-identical to
//     a direct distributed_search of the same request, and the threads=1
//     and threads=4 bursts are bit-identical to each other, with
//     cancelled requests present in both (scheduling-independence of the
//     contract in tuning/search.hpp);
//   * cancellation — the victims (queued at the lowest priority behind
//     the whole backlog) are cancelled before a worker reaches them: no
//     kernel runs for them, and their per-ticket stats stay zero.
//
// A second, SUSTAINED scenario drives the fairness + admission-control
// machinery: an open-loop interactive arrival schedule (fixed arrival
// times derived from a calibrated interactive service time — arrivals
// keep coming whether or not earlier requests finished) that oversaturates
// the workers, with six sweep-class requests queued at t=0. The same
// schedule runs twice: FAIR (anti-starvation aging on, per-class caps,
// deadline admission) and STRICT (aging off). Gates are ordering-based so
// they hold at any machine speed: under strict priority the sweeps starve
// (not all complete before the last arrival); under aging all of them
// complete mid-storm while interactive p95 stays within a small multiple
// of the calibrated service time; over-cap submissions and hopeless
// deadlines are refused with typed rejections; every admitted request
// reaches a terminal state (zero dropped); and every completed result is
// bit-identical to its direct search.
//
// Results go to BENCH_async_service.json (CI artifact).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "json.hpp"
#include "tuning/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using tp::bench::seconds_since;
using tp::tuning::distributed_search;
using tp::tuning::EvalStats;
using tp::tuning::Priority;
using tp::tuning::Request;
using tp::tuning::SearchOptions;
using tp::tuning::SweepRequest;
using tp::tuning::TicketHandle;
using tp::tuning::TuningRequest;
using tp::tuning::TuningResult;
using tp::tuning::TuningService;

constexpr int kSweeps = 20;
constexpr int kHighs = 5;
constexpr int kVictims = 3;
const std::vector<double> kSweepEpsilons{1e-3, 1e-2, 1e-1};
const char* const kSweepApps[] = {"pca", "dwt", "fft", "mlp",
                                  "svm", "iir", "knn"};
// Each sweep pairs an app with an input-set combination, so all twenty
// are DISTINCT requests — the backlog is real work, not cache replays —
// while still overlapping (shared (input_set, config) trials across
// combinations keep the cross-request hit rate meaningful). The
// interactive class reuses two small apps the backlog doesn't touch:
// cold the first time, cached on repeat — the short-request profile the
// priority queue exists to protect.
const std::vector<std::vector<unsigned>> kSetVariants{{0, 1}, {0, 2}, {1, 2}};
const char* const kHighApps[] = {"jacobi", "conv", "jacobi", "conv",
                                 "jacobi"};

const char* sweep_app(int i) { return kSweepApps[i % std::size(kSweepApps)]; }
const std::vector<unsigned>& sweep_sets(int i) {
    return kSetVariants[static_cast<std::size_t>(i) / std::size(kSweepApps)];
}

SearchOptions burst_options() {
    SearchOptions options;
    options.type_system = tp::TypeSystem{tp::TypeSystemKind::V2};
    options.max_passes = 2;
    return options;
}

Request sweep_request(int i, Priority priority) {
    SweepRequest work;
    work.app = sweep_app(i);
    work.epsilons = kSweepEpsilons;
    work.input_sets = sweep_sets(i);
    work.options = burst_options();
    return Request{.work = std::move(work), .priority = priority};
}

TuningRequest high_request(const char* app) {
    TuningRequest work;
    work.app = app;
    work.epsilon = 1e-1;
    work.input_sets = {0};
    work.options = burst_options();
    return work;
}

struct Burst {
    std::vector<std::vector<TuningResult>> sweeps; // per low request
    std::vector<TuningResult> highs;               // per high request
    std::vector<double> low_latency_s;             // completion latencies
    std::vector<double> high_latency_s;
    double last_low_s = 0.0;  // completions relative to burst start
    double last_high_s = 0.0;
    double wall_s = 0.0;
    bool qos_holds = false;      // every high done before the last low
    bool victims_cancelled = false;
    EvalStats stats; // summed per-ticket deltas (cancelled tickets: zero)
};

double latency_s(const TicketHandle& handle) {
    return std::chrono::duration<double>(handle.completed_at() -
                                         handle.submitted_at())
        .count();
}

/// Submits the whole burst, cancels the victims, waits, and collects
/// results + latency per class.
Burst run_burst(unsigned workers) {
    TuningService service{TuningService::Options{.threads = workers}};
    const auto start = Clock::now();

    std::vector<TicketHandle> lows;
    lows.reserve(kSweeps);
    for (int i = 0; i < kSweeps; ++i) {
        lows.push_back(service.submit(sweep_request(i, Priority::kSweep)));
    }
    // The cancellation victims sit at the tail of the lowest class: the
    // twenty sweeps ahead guarantee no worker reaches them before the
    // cancel below lands.
    std::vector<TicketHandle> victims;
    victims.reserve(kVictims);
    for (int i = 0; i < kVictims; ++i) {
        victims.push_back(service.submit(sweep_request(i, Priority::kSweep)));
    }
    std::vector<TicketHandle> highs;
    highs.reserve(kHighs);
    for (int i = 0; i < kHighs; ++i) {
        highs.push_back(service.submit(Request{
            .work = high_request(kHighApps[i]),
            .priority = Priority::kInteractive}));
    }
    Burst burst;
    burst.victims_cancelled = true;
    for (const TicketHandle& victim : victims) {
        burst.victims_cancelled =
            victim.cancel() && victim.stats() == EvalStats{} &&
            burst.victims_cancelled;
    }

    for (const TicketHandle& handle : highs) {
        burst.highs.push_back(handle.search_result());
        burst.high_latency_s.push_back(latency_s(handle));
        burst.last_high_s = std::max(
            burst.last_high_s,
            std::chrono::duration<double>(handle.completed_at() - start)
                .count());
        burst.stats += handle.stats();
    }
    for (const TicketHandle& handle : lows) {
        burst.sweeps.push_back(handle.sweep_results());
        burst.low_latency_s.push_back(latency_s(handle));
        burst.last_low_s = std::max(
            burst.last_low_s,
            std::chrono::duration<double>(handle.completed_at() - start)
                .count());
        burst.stats += handle.stats();
    }
    burst.wall_s = seconds_since(start);
    burst.qos_holds = burst.last_high_s < burst.last_low_s;
    return burst;
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

/// Direct-search reference for every request in the burst: the
/// acceptance gate of the determinism contract's scheduling axis. A
/// SweepRequest chains epsilons through warm starts by default, so its
/// reference is a private-engine sweep_search with the same chaining,
/// not three independent distributed_searches.
bool matches_direct_searches(const Burst& burst) {
    bool ok = true;
    for (int i = 0; i < kSweeps; ++i) {
        const auto instance = tp::apps::make_app(sweep_app(i));
        SearchOptions options = burst_options();
        options.input_sets = sweep_sets(i);
        const std::vector<TuningResult> reference =
            tp::tuning::sweep_search(*instance, options, kSweepEpsilons);
        ok = burst.sweeps[i].size() == reference.size() && ok;
        for (std::size_t e = 0; e < reference.size(); ++e) {
            ok = burst.sweeps[i][e] == reference[e] && ok;
        }
    }
    for (int i = 0; i < kHighs; ++i) {
        const TuningRequest request = high_request(kHighApps[i]);
        const auto instance = tp::apps::make_app(request.app);
        SearchOptions options = request.options;
        options.epsilon = request.epsilon;
        options.input_sets = request.input_sets;
        ok = burst.highs[i] == distributed_search(*instance, options) && ok;
    }
    return ok;
}

bool identical_bursts(const Burst& a, const Burst& b) {
    if (a.sweeps.size() != b.sweeps.size() || a.highs.size() != b.highs.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.sweeps.size(); ++i) {
        for (std::size_t e = 0; e < a.sweeps[i].size(); ++e) {
            if (a.sweeps[i][e] != b.sweeps[i][e]) return false;
        }
    }
    for (std::size_t i = 0; i < a.highs.size(); ++i) {
        if (a.highs[i] != b.highs[i]) return false;
    }
    return true;
}

// --- Sustained open-loop scenario -------------------------------------------

constexpr unsigned kSustainedWorkers = 2;
constexpr int kStormArrivals = 64;     // open-loop interactive arrivals
constexpr int kSweepClassCount = 6;    // sweep-class requests queued at t=0
constexpr std::size_t kClassCap = 8;   // live-queue cap per priority class
constexpr int kOverCapBurst = 16;      // instant submits to force shedding
// One past-deadline probe every 16 arrivals (at i % 16 == 12).
constexpr int kDeadlineProbes = kStormArrivals / 16;

/// The repeated interactive request of the storm. memoize is OFF in this
/// scenario, so every arrival costs one full search — a stable service
/// time, which is what makes the calibrated schedule meaningful.
TuningRequest interactive_work() { return high_request("jacobi"); }

/// Six distinct small sweep-class requests (none equal to the interactive
/// request, so the backlog is its own work).
TuningRequest sweep_class_work(int i) {
    static const char* const apps[] = {"conv", "jacobi", "conv",
                                       "jacobi", "conv", "jacobi"};
    static const double eps[] = {1e-1, 5e-2, 5e-2, 3e-2, 3e-2, 7e-2};
    TuningRequest work;
    work.app = apps[i];
    work.epsilon = eps[i];
    work.input_sets = {0};
    work.options = burst_options();
    return work;
}

TuningResult direct_of(const TuningRequest& request) {
    const auto instance = tp::apps::make_app(request.app);
    SearchOptions options = request.options;
    options.epsilon = request.epsilon;
    options.input_sets = request.input_sets;
    return distributed_search(*instance, options);
}

/// Unloaded mean service time of the interactive request, first sample
/// (engine setup: golden outputs, clone pool) dropped. Every schedule
/// parameter below scales off this, so the scenario self-adjusts to the
/// machine (and to sanitizer slowdowns).
double calibrate_interactive_seconds() {
    TuningService service{
        TuningService::Options{.threads = 1, .memoize = false}};
    constexpr int kSamples = 4;
    double total = 0.0;
    for (int i = 0; i < kSamples; ++i) {
        const TicketHandle handle = service.submit(Request{
            .work = interactive_work(), .priority = Priority::kInteractive});
        (void)handle.search_result();
        if (i > 0) total += latency_s(handle);
    }
    return std::max(total / (kSamples - 1), 0.5e-3);
}

struct SustainedRun {
    std::vector<double> interactive_latency_s;
    std::vector<double> sweep_latency_s;
    int sweeps_completed_during_storm = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_deadline = 0;
    bool all_admitted_completed = false; // zero dropped-but-admitted
    bool bit_identical = false;          // vs direct-search references
    double wall_s = 0.0;
};

/// One pass over the fixed arrival schedule. `fair` toggles the aging
/// quantum; everything else (caps, deadline admission, the schedule
/// itself) is identical between the two runs.
SustainedRun run_sustained(bool fair, double service_s,
                           const TuningResult& interactive_ref,
                           const std::vector<TuningResult>& sweep_refs) {
    const auto span = [](double seconds) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    };
    // Aging rank math: kSweep (0) reaches kInteractive (2) after two
    // quanta = 4 service times, well inside the ~25-service-time storm
    // even when engine contention inflates the real per-request cost;
    // arrivals every 0.4 service times oversaturate the two workers from
    // the interactive stream alone (demand 2.5 workers), so under strict
    // priority the promoted pops never happen.
    TuningService service{TuningService::Options{
        .threads = kSustainedWorkers,
        .memoize = false,
        .max_queued_per_class = kClassCap,
        .aging_quantum = fair ? span(2.0 * service_s) : Clock::duration{},
        .deadline_admission = true}};

    SustainedRun run;
    const auto start = Clock::now();
    std::vector<TicketHandle> sweeps;
    sweeps.reserve(kSweepClassCount);
    for (int i = 0; i < kSweepClassCount; ++i) {
        sweeps.push_back(service.submit(Request{
            .work = sweep_class_work(i), .priority = Priority::kSweep}));
    }

    const auto submit_interactive = [&service](std::vector<TicketHandle>& to) {
        try {
            to.push_back(service.submit(Request{
                .work = interactive_work(),
                .priority = Priority::kInteractive}));
        } catch (const tp::tuning::RequestRejected&) {
            // Load shedding IS the mechanism under test — the typed
            // rejections are counted via admission_stats() below.
        }
    };

    // The storm: a FIXED schedule, not a burst and not closed-loop —
    // arrival i happens at start + (i+1) * period no matter how far
    // behind the service is. Three probes carry an already-expired
    // deadline: deadline admission must refuse each, deterministically.
    std::vector<TicketHandle> interactives;
    interactives.reserve(kStormArrivals + kOverCapBurst);
    const Clock::duration period = span(0.4 * service_s);
    Clock::time_point last_arrival = start;
    for (int i = 0; i < kStormArrivals; ++i) {
        std::this_thread::sleep_until(start + (i + 1) * period);
        if (i % 16 == 12) { // i = 12, 28, 44: kDeadlineProbes of them
            try {
                (void)service.submit(Request{
                    .work = interactive_work(),
                    .priority = Priority::kInteractive,
                    .deadline = Clock::now() - std::chrono::milliseconds(1)});
            } catch (const tp::tuning::RequestRejected&) {
            }
        }
        submit_interactive(interactives);
        last_arrival = Clock::now();
    }
    // Deterministic over-cap tail: back-to-back submissions outrun the
    // workers, so the interactive class cap must shed some of these even
    // if the open-loop storm itself never filled the queue.
    for (int i = 0; i < kOverCapBurst; ++i) {
        submit_interactive(interactives);
    }

    // Drain: every admitted request must reach a terminal state — the
    // drain guarantee under test ("zero dropped-but-admitted").
    for (const TicketHandle& handle : sweeps) handle.wait();
    for (const TicketHandle& handle : interactives) handle.wait();
    run.wall_s = seconds_since(start);

    run.all_admitted_completed = true;
    run.bit_identical = true;
    for (int i = 0; i < kSweepClassCount; ++i) {
        const TicketHandle& handle = sweeps[static_cast<std::size_t>(i)];
        if (handle.status() != tp::tuning::RequestStatus::kDone) {
            run.all_admitted_completed = false;
            continue;
        }
        run.sweep_latency_s.push_back(latency_s(handle));
        if (handle.completed_at() < last_arrival) {
            ++run.sweeps_completed_during_storm;
        }
        run.bit_identical =
            handle.search_result() == sweep_refs[static_cast<std::size_t>(i)] &&
            run.bit_identical;
    }
    for (const TicketHandle& handle : interactives) {
        if (handle.status() != tp::tuning::RequestStatus::kDone) {
            run.all_admitted_completed = false;
            continue;
        }
        run.interactive_latency_s.push_back(latency_s(handle));
        run.bit_identical =
            handle.search_result() == interactive_ref && run.bit_identical;
    }

    const tp::tuning::AdmissionStats admission = service.admission_stats();
    run.admitted = admission.admitted;
    run.rejected_queue_full = admission.rejected_queue_full;
    run.rejected_deadline = admission.rejected_deadline;
    run.all_admitted_completed =
        run.all_admitted_completed &&
        admission.admitted == sweeps.size() + interactives.size();
    return run;
}

std::string sustained_run_json(const SustainedRun& run) {
    return tp::bench::Json::object()
        .field("interactive_p50_seconds",
               percentile(run.interactive_latency_s, 0.50))
        .field("interactive_p95_seconds",
               percentile(run.interactive_latency_s, 0.95))
        .field("sweep_class_p50_seconds", percentile(run.sweep_latency_s, 0.50))
        .field("sweep_class_p95_seconds", percentile(run.sweep_latency_s, 0.95))
        .field("sweeps_completed_during_storm",
               static_cast<std::size_t>(run.sweeps_completed_during_storm))
        .field("admitted", static_cast<std::size_t>(run.admitted))
        .field("rejected_queue_full",
               static_cast<std::size_t>(run.rejected_queue_full))
        .field("rejected_deadline",
               static_cast<std::size_t>(run.rejected_deadline))
        .field("all_admitted_completed", run.all_admitted_completed)
        .field("bit_identical_to_direct_search", run.bit_identical)
        .field("wall_seconds", run.wall_s)
        .str(2);
}

void print_sustained(const char* label, const SustainedRun& run) {
    std::printf("%-10s interactive p50 %.3fs p95 %.3fs | sweep-class p50 "
                "%.3fs p95 %.3fs | %d/%d sweeps done mid-storm | admitted "
                "%llu, shed %llu, deadline-refused %llu | drained %s, "
                "identical %s, %.3fs wall\n",
                label, percentile(run.interactive_latency_s, 0.50),
                percentile(run.interactive_latency_s, 0.95),
                percentile(run.sweep_latency_s, 0.50),
                percentile(run.sweep_latency_s, 0.95),
                run.sweeps_completed_during_storm, kSweepClassCount,
                static_cast<unsigned long long>(run.admitted),
                static_cast<unsigned long long>(run.rejected_queue_full),
                static_cast<unsigned long long>(run.rejected_deadline),
                run.all_admitted_completed ? "yes" : "NO",
                run.bit_identical ? "yes" : "NO", run.wall_s);
}

std::string class_json(const std::vector<double>& latencies, double last_s) {
    return tp::bench::Json::object()
        .field("p50_latency_seconds", percentile(latencies, 0.50))
        .field("p95_latency_seconds", percentile(latencies, 0.95))
        .field("last_completion_seconds", last_s)
        .str(2);
}

void print_burst(const char* label, const Burst& burst) {
    std::printf("%-10s high p50 %.3fs p95 %.3fs (last %.3fs) | "
                "sweep p50 %.3fs p95 %.3fs (last %.3fs) | "
                "QoS %s, victims cancelled %s, %.3fs wall\n",
                label, percentile(burst.high_latency_s, 0.50),
                percentile(burst.high_latency_s, 0.95), burst.last_high_s,
                percentile(burst.low_latency_s, 0.50),
                percentile(burst.low_latency_s, 0.95), burst.last_low_s,
                burst.qos_holds ? "yes" : "NO",
                burst.victims_cancelled ? "yes" : "NO", burst.wall_s);
}

} // namespace

int main() {
    std::printf("# async tuning service — mixed-priority overload burst: "
                "%d low-priority sweeps (x%zu epsilons) + %d cancelled + "
                "%d high-priority interactive requests\n\n",
                kSweeps, kSweepEpsilons.size(), kVictims, kHighs);

    const Burst threaded = run_burst(4);
    print_burst("4 workers", threaded);
    const Burst serial = run_burst(1);
    print_burst("1 worker", serial);

    const bool qos_holds = threaded.qos_holds && serial.qos_holds;
    const bool victims_cancelled =
        threaded.victims_cancelled && serial.victims_cancelled;
    const bool thread_invariant = identical_bursts(threaded, serial);
    std::printf("\nverifying against direct searches (the slow part)...\n");
    const bool direct_identical = matches_direct_searches(threaded);

    std::printf("high-priority requests all finish before the sweep backlog "
                "drains: %s\n"
                "threads=1 and threads=4 bursts bit-identical: %s\n"
                "every result bit-identical to its direct search: %s\n",
                qos_holds ? "yes" : "NO", thread_invariant ? "yes" : "NO",
                direct_identical ? "yes" : "NO");

    // --- sustained open-loop overload: fair (aging) vs strict ---------------
    const double service_s = calibrate_interactive_seconds();
    std::printf("\n# sustained open-loop overload: %d interactive arrivals "
                "every %.1fms (calibrated service %.1fms) + %d deadline "
                "probes + %d over-cap submits vs %d sweep-class requests, "
                "%u workers, class cap %zu\n\n",
                kStormArrivals, 0.4 * service_s * 1e3, service_s * 1e3,
                kDeadlineProbes, kOverCapBurst, kSweepClassCount,
                kSustainedWorkers, kClassCap);
    const TuningResult interactive_ref = direct_of(interactive_work());
    std::vector<TuningResult> sweep_refs;
    sweep_refs.reserve(kSweepClassCount);
    for (int i = 0; i < kSweepClassCount; ++i) {
        sweep_refs.push_back(direct_of(sweep_class_work(i)));
    }
    const SustainedRun fair =
        run_sustained(true, service_s, interactive_ref, sweep_refs);
    print_sustained("fair", fair);
    const SustainedRun strict =
        run_sustained(false, service_s, interactive_ref, sweep_refs);
    print_sustained("strict", strict);

    // Ordering-based gates — robust to machine speed and sanitizer
    // slowdowns because the whole schedule scales with the calibrated
    // service time.
    const bool fair_no_starvation =
        fair.sweeps_completed_during_storm == kSweepClassCount;
    const bool strict_starves =
        strict.sweeps_completed_during_storm < kSweepClassCount;
    const bool sweep_p95_bounded =
        percentile(fair.sweep_latency_s, 0.95) <
        percentile(strict.sweep_latency_s, 0.95);
    // The fairness tax: strict priority is the interactive-optimal
    // schedule, so "interactive p95 holds" means aging costs at most a
    // factor of two over it (observed ~1.1-1.2x; the class cap, shared by
    // both runs, is what keeps either bounded at all).
    const bool interactive_p95_holds =
        percentile(fair.interactive_latency_s, 0.95) <=
        2.0 * percentile(strict.interactive_latency_s, 0.95);
    const bool shedding_typed =
        fair.rejected_queue_full >= 1 && strict.rejected_queue_full >= 1 &&
        fair.rejected_deadline == kDeadlineProbes &&
        strict.rejected_deadline == kDeadlineProbes;
    const bool zero_dropped =
        fair.all_admitted_completed && strict.all_admitted_completed;
    const bool sustained_identical = fair.bit_identical && strict.bit_identical;

    std::printf(
        "\naging completes every sweep mid-storm: %s (strict starves: %s)\n"
        "fair sweep p95 below strict's: %s\n"
        "interactive p95 within 2x strict priority's under aging: %s\n"
        "over-cap and hopeless-deadline submissions shed typed: %s\n"
        "every admitted request drained (zero dropped): %s\n"
        "every completed sustained result bit-identical to direct: %s\n",
        fair_no_starvation ? "yes" : "NO", strict_starves ? "yes" : "NO",
        sweep_p95_bounded ? "yes" : "NO", interactive_p95_holds ? "yes" : "NO",
        shedding_typed ? "yes" : "NO", zero_dropped ? "yes" : "NO",
        sustained_identical ? "yes" : "NO");

    const auto doc =
        tp::bench::Json::object()
            .field("bench", "bench_async_service")
            .field("scenario",
                   "20 distinct sweep requests "
                   "(pca/dwt/fft/mlp/svm/iir/knn x input-set combos, "
                   "eps 1e-3/1e-2/1e-1 each) + 3 cancelled + 5 "
                   "interactive jacobi/conv requests, priority-scheduled")
            .field("sweep_requests", static_cast<std::size_t>(kSweeps))
            .field("interactive_requests", static_cast<std::size_t>(kHighs))
            .field("cancelled_requests", static_cast<std::size_t>(kVictims))
            .field("qos_holds", qos_holds)
            .field("victims_cancelled", victims_cancelled)
            .field("bit_identical_across_thread_counts", thread_invariant)
            .field("bit_identical_to_direct_search", direct_identical)
            .raw("interactive_threads4",
                 class_json(threaded.high_latency_s, threaded.last_high_s))
            .raw("sweeps_threads4",
                 class_json(threaded.low_latency_s, threaded.last_low_s))
            .raw("interactive_threads1",
                 class_json(serial.high_latency_s, serial.last_high_s))
            .raw("sweeps_threads1",
                 class_json(serial.low_latency_s, serial.last_low_s))
            .field("trials_threads4", threaded.stats.trials)
            .field("cache_hits_threads4", threaded.stats.cache_hits)
            .field("hit_rate_threads4", threaded.stats.hit_rate())
            .field("wall_seconds_threads4", threaded.wall_s)
            .field("wall_seconds_threads1", serial.wall_s)
            .raw("sustained",
                 tp::bench::Json::object()
                     .field("scenario",
                            "open-loop interactive storm (fixed arrival "
                            "schedule, oversaturated workers) vs queued "
                            "sweep-class requests; fair = aging + caps + "
                            "deadline admission, strict = aging off")
                     .field("workers",
                            static_cast<std::size_t>(kSustainedWorkers))
                     .field("arrivals",
                            static_cast<std::size_t>(kStormArrivals))
                     .field("sweep_class_requests",
                            static_cast<std::size_t>(kSweepClassCount))
                     .field("per_class_cap", kClassCap)
                     .field("deadline_probes",
                            static_cast<std::size_t>(kDeadlineProbes))
                     .field("calibrated_service_seconds", service_s)
                     .field("arrival_period_seconds", 0.4 * service_s)
                     .field("aging_quantum_seconds", 2.0 * service_s)
                     .raw("fair", sustained_run_json(fair))
                     .raw("strict", sustained_run_json(strict))
                     .field("fair_no_starvation", fair_no_starvation)
                     .field("strict_starves", strict_starves)
                     .field("sweep_p95_bounded", sweep_p95_bounded)
                     .field("interactive_p95_holds", interactive_p95_holds)
                     .field("shedding_typed", shedding_typed)
                     .field("zero_dropped", zero_dropped)
                     .field("bit_identical_to_direct_search",
                            sustained_identical)
                     .str(2))
            .str();
    std::ofstream out{"BENCH_async_service.json"};
    out << doc << "\n";
    std::printf("\nwrote BENCH_async_service.json\n");

    if (!qos_holds || !victims_cancelled || !thread_invariant ||
        !direct_identical) {
        std::printf("FAIL: async service contract violated\n");
        return 1;
    }
    if (!fair_no_starvation || !strict_starves || !sweep_p95_bounded ||
        !interactive_p95_holds || !shedding_typed || !zero_dropped ||
        !sustained_identical) {
        std::printf("FAIL: sustained-overload fairness/admission contract "
                    "violated\n");
        return 1;
    }
    std::printf("async service contract holds: interactive p95 %.3fs vs "
                "%.3fs sweep-backlog drain at 4 workers; sustained fair "
                "sweep p95 %.3fs vs strict %.3fs\n",
                percentile(threaded.high_latency_s, 0.95),
                threaded.last_low_s, percentile(fair.sweep_latency_s, 0.95),
                percentile(strict.sweep_latency_s, 0.95));
    return 0;
}
