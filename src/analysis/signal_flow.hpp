// Signal-flow construction — pass 1 of the static precision-dataflow
// analysis (src/analysis/).
//
// The tuner controls formats per SIGNAL (a program variable group,
// apps/signal_table.hpp), but the trace layer records dataflow per VALUE.
// This pass closes the gap without touching any kernel: the app is run
// once per input set, traced with record_values, under a TAGGING config
// that assigns every signal a unique format and inside an
// arith::ScopedBinary64 (flexfloat/arith_backend.hpp) — the shadow run.
// Values are computed in plain binary64 — so control flow follows the
// golden reference execution exactly — while the recorded formats become
// pure dataflow tags: the format of a value identifies the signal whose
// binding produced it. Folding the tagged SSA trace over its ids yields
// the signal-level dependency DAG the later passes (range / error
// propagation, lint) operate on.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app.hpp"
#include "sim/trace.hpp"

namespace tp::analysis {

/// value_signal entry for ids whose creation format is no signal's tag
/// (never produced by tagging_config captures; seen when aligning foreign
/// traces).
inline constexpr std::int32_t kUnknownSignal = -1;

/// The tagging config of a shadow capture: signal `s` is bound to the
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

/// Distinct-format probe config for enclosure checks: signal `s` gets
/// {8, 23 - s}. Like the tagging config every format is unique, so the
/// kernels emit casts at exactly the same sites and the instruction
/// stream aligns positionally with a shadow capture's (align_value_signals
/// — a UNIFORM config elides every cast and can never align); unlike it
/// the formats are real, so a record run under it observes genuinely
/// rounded dynamic ranges. Throws std::invalid_argument beyond 22 signals.
[[nodiscard]] apps::TypeConfig staircase_config(std::size_t signal_count);

/// One shadow reference execution: the recorded program (values + output
/// taps filled) and the run's output — equal to the app's golden output
/// up to the input-staging perturbation above.
struct CapturedTrace {
    sim::TraceProgram program;
    std::vector<double> output;
    unsigned input_set = 0;
    std::size_t signal_count = 0;
};

/// prepare(input_set) + one traced record_values run under the tagging
/// config inside an arith::ScopedBinary64.
[[nodiscard]] CapturedTrace capture_trace(apps::App& app, unsigned input_set);

/// The signal-level dependency DAG folded out of a tagged capture.
struct SignalFlowGraph {
    std::size_t signal_count = 0;
    /// Producing signal per value id (dense, = tag of the creation format).
    std::vector<std::int32_t> value_signal;
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

[[nodiscard]] SignalFlowGraph build_signal_flow(const sim::TraceProgram& program,
                                                std::size_t signal_count);

/// Transfers the capture's per-value signal map onto `observed` — a
/// record_values run of the SAME app and input set under an arbitrary
/// (real) config, whose formats cannot identify signals. Value ids are
/// assigned in creation order, so when the two instruction streams agree
/// structurally (length, kinds, ops, value ids) the map carries over
/// id-for-id. Returns empty when control flow diverged from the shadow
/// reference (rounded compares took a different branch).
[[nodiscard]] std::vector<std::int32_t> align_value_signals(
    const sim::TraceProgram& observed, const SignalFlowGraph& flow,
    const sim::TraceProgram& reference);

/// Per-stream producing signal, read off a tagged capture's Load/Store
/// element formats: entry per stream id, kUnknownSignal where the stream
/// never moved tagged data. make_array order is unconditional in the
/// kernels, so stream ids — and this map — transfer to any other run of
/// the same app and input set, even when value-level alignment fails
/// (rounded compares flipping a data-dependent branch).
[[nodiscard]] std::vector<std::int32_t> stream_signals(
    const sim::TraceProgram& reference, std::size_t signal_count);

} // namespace tp::analysis
