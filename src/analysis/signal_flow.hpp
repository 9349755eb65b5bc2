// Signal flow — pass 1 of the static precision-dataflow analysis
// (src/analysis/).
//
// The tuner controls formats per SIGNAL (a program variable group,
// apps/signal_table.hpp), but the trace layer records dataflow per VALUE.
// This pass closes the gap without touching any kernel: the app is run
// once per input set under a TAGGING config that assigns every signal a
// unique format, inside an arith::ScopedBinary64
// (flexfloat/arith_backend.hpp), on a sink-mode TpContext — the shadow
// run (analysis::shadow_run, error_model.hpp). Values are computed in plain
// binary64 — so control flow follows the golden reference execution
// exactly — while the value formats the sink receives become pure dataflow
// tags: the format of a value identifies the signal whose binding produced
// it. The sink folds the tagged stream into the signal-level dependency
// DAG below as the kernel emits it, next to the error rows and ranges of
// pass 2 and the cast lint of pass 3; no trace is stored.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app.hpp"

namespace tp::analysis {

/// The signal of a format that is no signal's tag (never produced by
/// tagging_config runs).
inline constexpr std::int32_t kUnknownSignal = -1;

/// The tagging config of a shadow run: signal `s` is bound to the
/// near-binary64 format {11, 52 - s}. Unique per signal (the inverse is
/// signal_of_tag), and wide enough that app-level input staging —
/// kernels may quantize() inputs to a config format before set_raw, and
/// quantize(), the bit-level reference, rounds even under
/// arith::ScopedBinary64 — perturbs the shadow values only at the ~2^-45
/// level. Every other rounding (set_raw, constants, ops, casts) goes
/// through tp::arith and is the identity in the shadow run. Throws
/// std::invalid_argument beyond 51 signals (the mantissa field bottoms
/// out).
[[nodiscard]] apps::TypeConfig tagging_config(std::size_t signal_count);

/// Inverse of tagging_config: the signal a tag format denotes, or
/// kUnknownSignal for formats outside the tag family.
[[nodiscard]] std::int32_t signal_of_tag(FpFormat fmt,
                                         std::size_t signal_count) noexcept;

/// Distinct-format probe config: signal `s` gets {8, 23 - s}. Like the
/// tagging config every format is unique, so the kernels emit casts at
/// exactly the same sites and the instruction stream matches a shadow
/// run's position for position unless a rounded compare flips a branch (a
/// UNIFORM config elides every cast and can never match); unlike it the
/// formats are real, so a run under it observes genuinely rounded dynamic
/// ranges and output error — the analysis' calibration probe. Throws
/// std::invalid_argument beyond 22 signals.
[[nodiscard]] apps::TypeConfig staircase_config(std::size_t signal_count);

/// The signal-level dependency DAG folded out of a tagged shadow run.
struct SignalFlowGraph {
    std::size_t signal_count = 0;
    /// depends_on[consumer][producer]: some instruction producing into
    /// `consumer` reads a value of `producer`.
    std::vector<std::vector<char>> depends_on;
    /// FpArith instructions producing into each signal.
    std::vector<std::size_t> ops_in_signal;
    /// Longest same-signal Add/Sub/Fma chain observed per signal
    /// (accumulations; memory round-trips extend a chain via the stream's
    /// longest stored chain).
    std::vector<int> max_accumulation_chain;
};

} // namespace tp::analysis
