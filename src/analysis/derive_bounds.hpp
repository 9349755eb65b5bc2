// Entry points of the static precision-dataflow analysis: sound per-signal
// precision bounds derived before any tuning trial runs.
//
// For each requested input set the analysis runs one binary64 shadow
// reference execution and propagates first-order rounding error through it
// while it executes (analysis::shadow_run, error_model.hpp; no trace is
// stored), then inverts the model at the output taps for the requested
// epsilon. Each signal's per-set bound combines
//
//   * a RIGOROUS representability floor — output elements stored in the
//     signal's arrays can never be closer to the golden values than the
//     trial format's nearest representable, whatever every other signal
//     does — with
//   * a CALIBRATED model bound — the precision where the propagated
//     variance estimate alone exceeds the quality budget. The raw
//     first-order estimate can over-shoot by orders of magnitude on
//     feedback recursions (an IIR state loop compounds partials
//     multiplicatively over the whole sample stream), so before use it is
//     pinned to reality: one rounded probe execution per input set (the
//     staircase config) measures the model's over-prediction factor at a
//     real operating point, every coefficient is deflated by that factor,
//     and kMarginBits more bits absorb the residual non-linearity.
//     Deflation only ever loosens the bound.
//
// The final lower bound is the MINIMUM over input sets. That direction is
// what keeps the bound invisible to the search result: the greedy phase
// probes each input set separately, so a bound must stay at or below
// EVERY set's per-signal minimum for the clamped bisections to land on
// exactly the precisions the unbounded search finds. The soundness
// contract is therefore: loose is allowed, excluding the true minimum is
// not — derive_warm_start prunes trials (EvalStats::
// trials_skipped_by_bounds), it never changes tuned signals.
#pragma once

#include <string>
#include <vector>

#include "analysis/error_model.hpp"
#include "analysis/lint.hpp"
#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "tuning/search.hpp"
#include "types/type_system.hpp"

namespace tp::analysis {

/// Bits subtracted from the model bound (never from the rigorous floor) to
/// absorb the first-order propagation's estimation error.
inline constexpr int kMarginBits = 2;
/// Range-enclosure inflation of analyze()'s shadow runs
/// (ShadowOptions::inflation).
inline constexpr double kRangeInflation = 4.0;

struct DeriveOptions {
    /// Input sets to run shadow runs on; the bound is the minimum over
    /// them. Use the sets the search will run on (SearchOptions::input_sets).
    std::vector<unsigned> input_sets{0, 1, 2};
    /// Type system whose trial formats the representability floors are
    /// computed against; match the search's.
    TypeSystem type_system{TypeSystemKind::V2};
};

/// The analysis verdict for one signal.
struct SignalBound {
    std::string name;
    /// Sound lower bound on the tuned precision (kMin..kMax): what
    /// derive_warm_start hands the search.
    int lower_bits = kMinPrecisionBits;
    /// The rigorous representability component alone.
    int representability_floor = kMinPrecisionBits;
    /// The margin-deflated model component alone.
    int model_bits = kMinPrecisionBits;
    /// Propagated relative error coefficient (worst set): estimated
    /// rel-RMS at precision p is error_coefficient * 2^-p.
    double error_coefficient = 0.0;
    /// Narrowest exponent width representing the signal's static range.
    int exp_floor_bits = 1;
};

struct AppAnalysis {
    std::string app;
    double epsilon = 0.0;
    std::vector<SignalBound> signals; // SignalId order
    /// Signal DAG of the first input set's shadow run.
    SignalFlowGraph flow;
    /// Static range enclosures, hulled over the input sets.
    std::vector<StaticRange> ranges;
    /// Instruction-level + signal-level diagnostics.
    LintReport lint;

    /// Human-readable table (one line per signal) plus the lint report.
    [[nodiscard]] std::string to_string() const;
};

/// The full three-pass analysis. Costs |input_sets| streamed shadow
/// executions plus |input_sets| rounded calibration probes and no tuning
/// trials; `app`'s prepared workload is clobbered. Only the analysis state
/// of one shadow run is held at a time (for jacobi about 21 MB of per-id
/// error rows, values, tags and chain depths, freed before the next set).
[[nodiscard]] AppAnalysis analyze(apps::App& app, double epsilon,
                                  const DeriveOptions& options = {});

/// The analysis folded into a search warm start: neutral seeds (the
/// search's usual kMaxPrecisionBits start), the derived lower bounds, no
/// upper bounds. Plug into SearchOptions::warm_start — or let
/// SearchOptions::static_bounds do it — to prune probe bisections on a
/// cold, never-tuned app.
[[nodiscard]] tuning::WarmStart derive_warm_start(
    apps::App& app, double epsilon, const std::vector<unsigned>& input_sets,
    TypeSystem type_system = TypeSystem{TypeSystemKind::V2});

} // namespace tp::analysis
