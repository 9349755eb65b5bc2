// Precision lint — pass 3 of the static precision-dataflow analysis.
//
// Instruction-level checks inspect the concrete formats of a traced run:
// casts that convert a value to the format it already has, and cast chains
// that double-round — a wide value squeezed through an intermediate format
// narrow enough that the two roundings can differ from the single direct
// rounding (the innocuous-double-rounding criterion, prec_mid >= 2 *
// prec_final + 2, violated). One CastLint runs them, fed one instruction at
// a time: the shadow run's sink feeds it while the kernel executes
// (analysis/error_model.hpp), lint_trace and collect_cast_sites replay a
// stored program through it.
//
// Signal-level checks ride on the full analysis (derive_bounds.cpp feeds
// them): accumulation chains whose error growth makes the requested
// epsilon statically infeasible at the precision floor, signals whose
// entire dynamic range sits below the normal range of the narrow-exponent
// formats (they would be forced subnormal or flushed), structural
// double-rounding hazards between signal bindings (CastLint's cast
// chains), and dead casts — cast sites whose endpoints the derived bounds
// pin to one format.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "util/chunked_array.hpp"

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
    /// Index of the run's instruction (TraceProgram::instrs when stored)
    /// for instruction-level diagnostics, -1 for signal-level ones.
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

/// One static cast site observed in a tagged run, folded over its dynamic
/// executions: the producing (source-format) and consuming (target-format)
/// signals. Int<->FP conversions are excluded — they are structural, not
/// format-boundary, casts. kUnknownSignal endpoints mark casts whose tags
/// resolved to no signal.
struct CastSite {
    std::int32_t src_signal = -1;
    std::int32_t dst_signal = -1;
    std::size_t first_instr = 0; // first occurrence in the run
    std::size_t occurrences = 0; // dynamic executions of the site
};

/// The instruction-level lint, the cast-site pass (the dead-cast lint's
/// input) and the signal-level cast chains, over one run fed an
/// instruction at a time. Only casts do work; the cast table is indexed by
/// value id.
class CastLint {
public:
    /// `signal_count` resolves tag formats to signals (signal_of_tag).
    explicit CastLint(std::size_t signal_count);

    /// The run's instruction at `index` (every emitted instruction counts,
    /// integer and branch included). Instructions other than casts are
    /// ignored.
    void add(const sim::Instr& instr, std::size_t index);

    /// Instruction-level diagnostics in first-occurrence order; a finding
    /// that recurs (the same cast site re-executed each loop iteration) is
    /// one diagnostic with an occurrence count.
    [[nodiscard]] LintReport report() const;

    /// Every format-boundary FpCast folded per (src, dst) signal pair, in
    /// first-occurrence order.
    [[nodiscard]] std::vector<CastSite> cast_sites() const;

    /// Signal triples {a, i, f}, ascending: some value cast a -> i was cast
    /// on to f, with a != i != f — the structural double-rounding hazard.
    [[nodiscard]] std::vector<std::array<std::int32_t, 3>> cast_chains() const;

private:
    struct Folded {
        LintDiagnostic diagnostic;
        std::size_t occurrences = 0;
    };
    /// Source and target format of a cast-produced id (target invalid for
    /// every other id).
    struct CastOf {
        FpFormat from;
        FpFormat to;
    };

    /// Counts one occurrence of the finding `key`; its first occurrence
    /// adds the diagnostic, with make_message()'s text.
    template <class MakeMessage>
    void fold(LintKind kind, std::size_t index,
              const std::array<FpFormat, 3>& key, MakeMessage make_message);
    [[nodiscard]] std::int32_t signal(FpFormat fmt) const noexcept;

    std::size_t signal_count_;
    ChunkedArray<CastOf> cast_of_;
    std::map<std::array<FpFormat, 3>, std::size_t> fold_index_;
    std::vector<Folded> folded_; // first-occurrence order
    // Indexed (src + 1) * (signal_count + 1) + (dst + 1).
    std::vector<CastSite> sites_;
    std::set<std::array<std::int32_t, 3>> chains_;
};

/// Instruction-level lint over a stored trace's concrete formats: a
/// CastLint fed the whole program.
[[nodiscard]] LintReport lint_trace(const sim::TraceProgram& program);

/// The cast-site pass over a stored tagged trace: a CastLint fed the whole
/// program.
[[nodiscard]] std::vector<CastSite> collect_cast_sites(
    const sim::TraceProgram& program, std::size_t signal_count);

/// "e<exp>m<mant>" with the paper's name appended when the format is one
/// of the named four (diagnostic texts).
[[nodiscard]] std::string format_name(FpFormat fmt);

} // namespace tp::analysis
