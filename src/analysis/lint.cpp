#include "analysis/lint.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/signal_flow.hpp"

namespace tp::analysis {

std::string_view name_of(LintKind kind) noexcept {
    switch (kind) {
    case LintKind::RedundantCast: return "redundant-cast";
    case LintKind::DoubleRounding: return "double-rounding";
    case LintKind::InfeasibleAccumulation: return "infeasible-accumulation";
    case LintKind::SubnormalRange: return "subnormal-range";
    case LintKind::DeadCast: return "dead-cast";
    }
    return "unknown";
}

std::string format_name(FpFormat fmt) {
    std::ostringstream os;
    os << 'e' << static_cast<int>(fmt.exp_bits) << 'm'
       << static_cast<int>(fmt.mant_bits);
    FormatKind kind{};
    if (kind_of(fmt, kind)) os << " (" << name_of(kind) << ')';
    else if (fmt == kBinary64) os << " (binary64)";
    return std::move(os).str();
}

std::size_t LintReport::count(LintKind kind) const noexcept {
    std::size_t n = 0;
    for (const LintDiagnostic& d : diagnostics) {
        if (d.kind == kind) ++n;
    }
    return n;
}

std::string LintReport::to_string() const {
    std::ostringstream os;
    for (const LintDiagnostic& d : diagnostics) {
        os << name_of(d.kind) << ": " << d.message << '\n';
    }
    return std::move(os).str();
}

namespace {

/// Whether rounding A -> I -> F can differ from rounding A -> F directly.
/// Safe ("innocuous") double rounding requires prec(I) >= 2 * prec(F) + 2;
/// the hazard needs the intermediate to actually round (narrower than the
/// source) and the final step to round again.
bool double_rounds(FpFormat a, FpFormat i, FpFormat f) noexcept {
    return i.precision() < a.precision() && f.precision() < i.precision() &&
           i.precision() < 2 * f.precision() + 2;
}

bool format_boundary_cast(const sim::Instr& instr) noexcept {
    return instr.kind == sim::InstrKind::FpCast && instr.op != FpOp::FromInt &&
           instr.op != FpOp::ToInt;
}

bool is_value_cast(const sim::Instr& instr) noexcept {
    return format_boundary_cast(instr) && instr.has_cast_target();
}

} // namespace

LintReport lint_trace(const sim::TraceProgram& program) {
    LintReport report;
    // One diagnostic per distinct format pattern, with an occurrence count
    // — the same cast site re-executes every loop iteration.
    struct Folded {
        std::size_t diagnostic = 0;
        std::size_t occurrences = 0;
    };
    std::map<std::array<FpFormat, 3>, Folded> folded;
    const auto fold = [&](LintKind kind, std::int64_t index,
                          std::array<FpFormat, 3> key, std::string message) {
        auto [it, inserted] = folded.try_emplace(key);
        if (inserted) {
            it->second.diagnostic = report.diagnostics.size();
            report.diagnostics.push_back(
                LintDiagnostic{kind, index, -1, std::move(message)});
        }
        ++it->second.occurrences;
    };

    // Target format of each cast-produced value id, for chain detection.
    std::map<std::int32_t, std::pair<FpFormat, FpFormat>> cast_of;

    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        const sim::Instr& instr = program.instrs[i];
        if (!is_value_cast(instr)) continue;
        const std::int64_t index = static_cast<std::int64_t>(i);
        if (instr.fmt == instr.fmt2) {
            fold(LintKind::RedundantCast, index,
                 {instr.fmt, instr.fmt2, kNoFormat},
                 "cast converts " + format_name(instr.fmt) +
                     " to itself — drop it");
        }
        const auto prev = cast_of.find(instr.src1);
        if (prev != cast_of.end()) {
            const FpFormat a = prev->second.first;
            const FpFormat i_fmt = prev->second.second;
            const FpFormat f = instr.fmt2;
            if (double_rounds(a, i_fmt, f)) {
                fold(LintKind::DoubleRounding, index, {a, i_fmt, f},
                     "cast chain " + format_name(a) + " -> " +
                         format_name(i_fmt) + " -> " + format_name(f) +
                         " double-rounds (intermediate precision " +
                         std::to_string(i_fmt.precision()) + " < 2*" +
                         std::to_string(f.precision()) +
                         "+2); cast directly from the wide value");
            }
        }
        if (instr.dst >= 0) cast_of[instr.dst] = {instr.fmt, instr.fmt2};
    }

    for (const auto& [key, entry] : folded) {
        if (entry.occurrences > 1) {
            report.diagnostics[entry.diagnostic].message +=
                " [" + std::to_string(entry.occurrences) + " occurrences]";
        }
    }
    return report;
}

std::vector<CastSite> collect_cast_sites(const sim::TraceProgram& program,
                                         std::size_t signal_count) {
    std::map<std::pair<std::int32_t, std::int32_t>, CastSite> sites;
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        const sim::Instr& instr = program.instrs[i];
        if (!format_boundary_cast(instr)) continue;
        const std::int32_t src = signal_of_tag(instr.fmt, signal_count);
        const std::int32_t dst = signal_of_tag(instr.fmt2, signal_count);
        const auto [it, inserted] =
            sites.try_emplace({src, dst}, CastSite{src, dst, i, 0});
        ++it->second.occurrences;
    }
    std::vector<CastSite> result;
    result.reserve(sites.size());
    for (const auto& [key, site] : sites) result.push_back(site);
    std::sort(result.begin(), result.end(),
              [](const CastSite& a, const CastSite& b) {
                  return a.first_instr < b.first_instr;
              });
    return result;
}

} // namespace tp::analysis
