// Shared experiment harness for the table/figure benches.
//
// Every evaluation quantity in the paper is a comparison between two runs
// of the same application on the virtual platform:
//   * baseline — every variable binary32, no sub-word SIMD (the PULPino
//     RISC-V single-precision baseline);
//   * tuned — per-variable formats from DistributedSearch under a type
//     system, with the vectorizing toolchain enabled.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "sim/platform.hpp"
#include "tuning/search.hpp"
#include "types/type_system.hpp"

namespace tp::bench {

/// The three precision requirements of the paper's evaluation.
inline const std::vector<double> kEpsilons{1e-3, 1e-2, 1e-1};

/// Elapsed wall-clock seconds since `start`.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// Traces one run of `app` under `config` and simulates it.
[[nodiscard]] sim::RunReport simulate_app(apps::App& app,
                                          const apps::TypeConfig& config,
                                          bool simd, unsigned input_set = 0);

/// Baseline: uniform binary32, scalar ISA.
[[nodiscard]] sim::RunReport simulate_baseline(apps::App& app,
                                               unsigned input_set = 0);

struct Experiment {
    std::string app;
    double epsilon = 0.0;
    TypeSystemKind type_system = TypeSystemKind::V2;
    tuning::TuningResult tuning;
    sim::RunReport baseline;
    sim::RunReport tuned;
};

/// Tunes `app_name` at `epsilon` under `type_system` and simulates both the
/// binary32 baseline and the tuned configuration.
[[nodiscard]] Experiment run_experiment(const std::string& app_name,
                                        double epsilon,
                                        TypeSystemKind type_system,
                                        bool simd = true);

/// Tuning options used across all benches (three input sets, V-series
/// hypothesis maps).
[[nodiscard]] tuning::SearchOptions bench_search_options(double epsilon,
                                                         TypeSystemKind kind);

} // namespace tp::bench
