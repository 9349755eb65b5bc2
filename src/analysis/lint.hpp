// Precision lint — pass 3 of the static precision-dataflow analysis.
//
// Instruction-level checks (lint_trace) inspect the concrete formats of any
// recorded trace: casts that convert a value to the format it already has,
// and cast chains that double-round — a wide value squeezed through an
// intermediate format narrow enough that the two roundings can differ from
// the single direct rounding (the innocuous-double-rounding criterion,
// prec_mid >= 2 * prec_final + 2, violated).
//
// Signal-level checks ride on the full analysis (derive_bounds.cpp feeds
// them): accumulation chains whose error growth makes the requested
// epsilon statically infeasible at the precision floor, signals whose
// entire dynamic range sits below the normal range of the narrow-exponent
// formats (they would be forced subnormal or flushed), structural
// double-rounding hazards between signal bindings, and dead casts — cast
// sites (collect_cast_sites) whose endpoints the derived bounds pin to
// one format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace tp::analysis {

enum class LintKind : std::uint8_t {
    /// FpCast whose source and target formats are identical.
    RedundantCast,
    /// Cast-of-cast through an intermediate format that double-rounds.
    DoubleRounding,
    /// Accumulation chain that cannot meet epsilon at kMinPrecisionBits.
    InfeasibleAccumulation,
    /// Signal whose whole value range is subnormal in narrow-exponent
    /// formats.
    SubnormalRange,
    /// Cast site whose source and destination signals are forced to the
    /// same member format by the derived bounds — the cast elides under
    /// every reachable binding and the code can drop it outright.
    DeadCast,
};

[[nodiscard]] std::string_view name_of(LintKind kind) noexcept;

struct LintDiagnostic {
    LintKind kind = LintKind::RedundantCast;
    /// Index into TraceProgram::instrs for instruction-level diagnostics,
    /// -1 for signal-level ones.
    std::int64_t instr_index = -1;
    /// Offending signal for signal-level diagnostics, -1 otherwise.
    std::int32_t signal = -1;
    std::string message;
};

struct LintReport {
    std::vector<LintDiagnostic> diagnostics;

    [[nodiscard]] std::size_t count(LintKind kind) const noexcept;
    [[nodiscard]] bool empty() const noexcept { return diagnostics.empty(); }
    /// One line per diagnostic, "kind: message" — demo / log friendly.
    [[nodiscard]] std::string to_string() const;
};

/// Instruction-level lint over a recorded trace's concrete formats.
/// Duplicate findings (the same cast site re-executed each loop iteration)
/// are folded into one diagnostic with an occurrence count.
[[nodiscard]] LintReport lint_trace(const sim::TraceProgram& program);

/// One static cast site observed in a tagged capture, folded over its
/// dynamic executions: the producing (source-format) and consuming
/// (target-format) signals. Int<->FP conversions are excluded — they are
/// structural, not format-boundary, casts. kUnknownSignal endpoints mark
/// casts whose tags resolved to no signal.
struct CastSite {
    std::int32_t src_signal = -1;
    std::int32_t dst_signal = -1;
    std::size_t first_instr = 0; // first occurrence in the capture
    std::size_t occurrences = 0; // dynamic executions of the site
};

/// The cast-site pass (the dead-cast lint's input): every
/// format-boundary FpCast in a tagged capture (analysis::capture_trace),
/// folded per (src, dst) signal pair in first-occurrence order.
[[nodiscard]] std::vector<CastSite> collect_cast_sites(
    const sim::TraceProgram& program, std::size_t signal_count);

/// "e<exp>m<mant>" with the paper's name appended when the format is one
/// of the named four (diagnostic texts).
[[nodiscard]] std::string format_name(FpFormat fmt);

} // namespace tp::analysis
