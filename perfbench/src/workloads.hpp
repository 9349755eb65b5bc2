// The benchmark's three workloads (README.md, "Workloads"):
//
//   tune_sweep  closed loop, one client: per round, a chained epsilon sweep
//               per registered app on a fresh memoized engine;
//   cast_aware  closed loop, one client: per round, one cast-aware pass per
//               app on a fresh engine (static bounds on);
//   service     open loop: seeded Poisson arrivals at a fixed rate into one
//               TuningService (3 workers, aging, class caps, deadline
//               admission).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20.0;
    bool trace = false;
    std::string trace_out; // Chrome trace-event file for traced runs
};

/// Runs one workload end to end: set-up, the timed section, verification
/// outside it, and (traced runs) the layer probes. Never throws for a
/// failing check — failures land in the outcome.
[[nodiscard]] RunOutcome run_workload(const RunConfig& config);

/// Input-set triple `j` (0..kTriplesPerRun-1) of a closed-loop run: the
/// rounds cycle through the triples {0,1,2} .. {9,10,11}, and the seed
/// picks the one they start from (seed 0 starts on {0, 1, 2}). Every run
/// covers the same triples: runs on different input sets differ by up to
/// 10% in work, more than the bound on round_s allows between seeds.
inline constexpr unsigned kTriplesPerRun = 4;
[[nodiscard]] std::vector<unsigned> closed_loop_triple(std::uint64_t seed, unsigned j);

/// The service workload's offered load and latency limit. Fixed: a faster
/// build must be offered the same load, never a calibrated one.
inline constexpr double kServiceRate = 80.0; // arrivals per second
inline constexpr double kSloMs = 25.0;        // interactive latency limit
/// Arrivals due in the first kWarmupS seconds fill the caches; they are
/// verified and counted in attempted/failed but kept out of the latency
/// metrics.
inline constexpr double kWarmupS = 2.0;

enum class RequestKind { kInteractive, kSweep, kCastAware };

/// One scheduled arrival of the service workload.
struct Arrival {
    double due_s = 0.0; // offset from the schedule start
    RequestKind kind = RequestKind::kInteractive;
    std::string app;
    double epsilon = 0.0; // interactive and cast-aware requests
    std::vector<unsigned> input_sets;
};

/// The service workload's arrivals: a Poisson process at `rate` over
/// [0, seconds); each arrival's kind and parameters come from shuffled
/// decks (sampling without replacement), so every run offers the same mix.
/// A pure function of its arguments.
[[nodiscard]] std::vector<Arrival> make_schedule(std::uint64_t seed, double rate,
                                                 double seconds);

} // namespace perfbench
