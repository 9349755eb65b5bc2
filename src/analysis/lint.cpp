#include "analysis/lint.hpp"

#include <algorithm>
#include <array>
#include <sstream>

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

CastLint::CastLint(std::size_t signal_count)
    : signal_count_(signal_count),
      sites_((signal_count + 1) * (signal_count + 1)) {}

std::int32_t CastLint::signal(FpFormat fmt) const noexcept {
    return signal_of_tag(fmt, signal_count_);
}

template <class MakeMessage>
void CastLint::fold(LintKind kind, std::size_t index,
                    const std::array<FpFormat, 3>& key,
                    MakeMessage make_message) {
    const auto [it, inserted] = fold_index_.try_emplace(key, folded_.size());
    if (inserted) {
        folded_.push_back(Folded{LintDiagnostic{kind,
                                                static_cast<std::int64_t>(index),
                                                -1, make_message()},
                                 0});
    }
    ++folded_[it->second].occurrences;
}

void CastLint::add(const sim::Instr& instr, std::size_t index) {
    if (!format_boundary_cast(instr)) return;
    const std::int32_t src = signal(instr.fmt);
    const std::int32_t dst = signal(instr.fmt2);
    CastSite& site = sites_[static_cast<std::size_t>(src + 1) *
                                (signal_count_ + 1) +
                            static_cast<std::size_t>(dst + 1)];
    if (site.occurrences++ == 0) site = CastSite{src, dst, index, 1};
    if (!is_value_cast(instr)) return;

    if (instr.fmt == instr.fmt2) {
        fold(LintKind::RedundantCast, index, {instr.fmt, instr.fmt2, kNoFormat},
             [&] {
                 return "cast converts " + format_name(instr.fmt) +
                        " to itself — drop it";
             });
    }
    if (instr.src1 >= 0 &&
        static_cast<std::size_t>(instr.src1) < cast_of_.capacity() &&
        cast_of_[static_cast<std::size_t>(instr.src1)].to.valid()) {
        const CastOf prev = cast_of_[static_cast<std::size_t>(instr.src1)];
        const FpFormat a = prev.from;
        const FpFormat i_fmt = prev.to;
        const FpFormat f = instr.fmt2;
        if (double_rounds(a, i_fmt, f)) {
            fold(LintKind::DoubleRounding, index, {a, i_fmt, f}, [&] {
                return "cast chain " + format_name(a) + " -> " +
                       format_name(i_fmt) + " -> " + format_name(f) +
                       " double-rounds (intermediate precision " +
                       std::to_string(i_fmt.precision()) + " < 2*" +
                       std::to_string(f.precision()) +
                       "+2); cast directly from the wide value";
            });
        }
        const std::int32_t pa = signal(a);
        const std::int32_t pi = signal(i_fmt);
        if (instr.dst >= 0 && pa >= 0 && pi >= 0 && dst >= 0 && pa != pi &&
            pi != dst) {
            chains_.insert({pa, pi, dst});
        }
    }
    if (instr.dst >= 0) {
        const auto id = static_cast<std::size_t>(instr.dst);
        cast_of_.grow_to(id + 1);
        cast_of_[id] = CastOf{instr.fmt, instr.fmt2};
    }
}

LintReport CastLint::report() const {
    LintReport report;
    report.diagnostics.reserve(folded_.size());
    for (const Folded& entry : folded_) {
        report.diagnostics.push_back(entry.diagnostic);
        if (entry.occurrences > 1) {
            report.diagnostics.back().message +=
                " [" + std::to_string(entry.occurrences) + " occurrences]";
        }
    }
    return report;
}

std::vector<CastSite> CastLint::cast_sites() const {
    std::vector<CastSite> result;
    for (const CastSite& site : sites_) {
        if (site.occurrences > 0) result.push_back(site);
    }
    std::sort(result.begin(), result.end(),
              [](const CastSite& a, const CastSite& b) {
                  return a.first_instr < b.first_instr;
              });
    return result;
}

std::vector<std::array<std::int32_t, 3>> CastLint::cast_chains() const {
    return {chains_.begin(), chains_.end()};
}

LintReport lint_trace(const sim::TraceProgram& program) {
    CastLint lint{0};
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        lint.add(program.instrs[i], i);
    }
    return lint.report();
}

std::vector<CastSite> collect_cast_sites(const sim::TraceProgram& program,
                                         std::size_t signal_count) {
    CastLint lint{signal_count};
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        lint.add(program.instrs[i], i);
    }
    return lint.cast_sites();
}

} // namespace tp::analysis
