// The shadow run: first-order rounding-error propagation — pass 2 of the
// static precision-dataflow analysis — streamed over one binary64 shadow
// execution, with the signal flow of pass 1 (signal_flow.hpp), the range
// enclosures, and the cast lint of pass 3 (lint.hpp) folded in the same
// pass.
//
// Every value id of the shadow execution gets two coefficient rows, one
// entry per signal s:
//
//   abs_coeff[id][s] — worst-case first-order sensitivity: |value(id) -
//     value'(id)| <= sum_s abs_coeff[id][s] * u_s when every rounding into
//     signal s perturbs relatively by at most u_s = 2^-precision(s).
//   var_coeff[id][s] — the same propagation with variances: each rounding
//     into s is modelled as an independent zero-mean perturbation uniform
//     in [-r*u_s, +r*u_s] (variance r^2 u_s^2 / 3 at result magnitude r),
//     and coefficients add in quadrature through the linearized dataflow.
//
// The variance rows are what the bound derivation (derive_bounds.cpp)
// inverts, summed at the output taps: the tuner's quality metric is a
// relative RMS, and the RMS of many independent roundings concentrates at
// the quadrature sum, not the worst case. The abs rows serve the
// (deliberately inflated) static range enclosures: the shadow execution
// gives each signal its exact reference value range, the worst-case drift
// bounds how far a tuned-format execution can move from it to first order,
// and the observed hull widened by the largest drift (times a safety
// inflation) encloses the values the signal can take under any format
// assignment at least as precise as the given steps; the exponent-width
// floor follows from the enclosure.
//
// No trace is stored. shadow_run() executes the kernel on a sink-mode
// sim::TpContext, whose sink folds every instruction as the kernel emits
// it, O(signal_count) per instruction, using the binary64 values as the
// linearization point. A value's rows are final at its defining
// instruction, so its observation and drift are booked there; a constant
// (no instruction defines it) only ever gets its own leaf rounding. Memory
// round-trips keep per-stream running state (elementwise max for abs,
// running mean for var) so array-resident error re-enters through loads.
// The per-id state (rows, value, tag, chain depth) lives only for the run,
// in fixed-size chunks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "sim/trace.hpp"

namespace tp::analysis {

/// Concrete per-signal value statistics of the shadow reference execution
/// (the dynamic ranges the exponent-width floors come from).
struct SignalObservation {
    double min_value = 0.0;
    double max_value = 0.0;
    double max_abs = 0.0;
    double min_abs_nonzero = 0.0; // 0 when the signal only held zeros
    std::size_t count = 0;
};

/// A signal's static range enclosure.
struct StaticRange {
    double lo = 0.0;
    double hi = 0.0;
    double max_abs = 0.0;
    /// Narrowest exponent width (1..11) whose normal range holds max_abs;
    /// 11 when even binary64's range is exceeded (never for golden-clean
    /// runs).
    int exp_floor_bits = 1;
    /// False for signals that defined no values (dead signals).
    bool populated = false;
};

struct ShadowOptions {
    /// Per-signal rounding steps u_s = 2^-precision_s at which each value's
    /// worst-case drift is evaluated for the range enclosures.
    std::vector<double> drift_steps;
    /// Drift multiplier (>= 1) absorbing the linearization error.
    double inflation = 4.0;
    /// Also run the cast lint (lint_report, cast_sites, cast_chains).
    bool lint = false;
};

/// What one shadow run folds out.
struct ShadowRun {
    /// App::run's output: the golden output up to the input-staging
    /// perturbation (tagging_config).
    std::vector<double> output;
    /// Value ids the run assigned.
    std::size_t value_count = 0;
    SignalFlowGraph flow;
    std::vector<SignalObservation> observed;
    /// Per signal: observed hull +- inflation * largest worst-case drift.
    std::vector<StaticRange> ranges;
    /// Every raw() readout, in call order.
    std::vector<sim::OutputTap> taps;
    /// Per signal: the variance rows of the tapped values, summed in tap
    /// order; an element only ever written by set_raw adds its storage
    /// quantization (v^2 / 3) to its array's signal instead.
    std::vector<double> tap_variance;
    /// ShadowOptions::lint only (see CastLint).
    LintReport lint;
    std::vector<CastSite> cast_sites;
    std::vector<std::array<std::int32_t, 3>> cast_chains;
};

/// prepare(input_set) + one run under the tagging config inside an
/// arith::ScopedBinary64, analysed as it executes. `app` may be any App:
/// the run goes through App::run.
[[nodiscard]] ShadowRun shadow_run(apps::App& app, unsigned input_set,
                                   const ShadowOptions& options);

} // namespace tp::analysis
