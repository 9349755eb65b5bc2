#include "flexfloat/stats.hpp"

#include <ostream>

namespace tp {

std::string_view name_of(FpOp op) noexcept {
    switch (op) {
    case FpOp::Add: return "add";
    case FpOp::Sub: return "sub";
    case FpOp::Mul: return "mul";
    case FpOp::Fma: return "fma";
    case FpOp::Div: return "div";
    case FpOp::Sqrt: return "sqrt";
    case FpOp::Neg: return "neg";
    case FpOp::Abs: return "abs";
    case FpOp::Cmp: return "cmp";
    case FpOp::FromInt: return "fromint";
    case FpOp::ToInt: return "toint";
    }
    return "unknown";
}

VectorRegionGuard::VectorRegionGuard() noexcept {
    ++detail::t_vector_region_depth;
}
VectorRegionGuard::~VectorRegionGuard() { --detail::t_vector_region_depth; }

std::uint64_t OpCounts::arithmetic_scalar() const noexcept {
    std::uint64_t total = 0;
    for (FpOp op : {FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Fma, FpOp::Div,
                    FpOp::Sqrt}) {
        total += scalar[static_cast<std::size_t>(op)];
    }
    return total;
}

std::uint64_t OpCounts::arithmetic_vectorial() const noexcept {
    std::uint64_t total = 0;
    for (FpOp op : {FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Fma, FpOp::Div,
                    FpOp::Sqrt}) {
        total += vectorial[static_cast<std::size_t>(op)];
    }
    return total;
}

void StatsRegistry::reset() noexcept {
    ops_.clear();
    casts_.clear();
}

void StatsRegistry::record_op(FpFormat format, FpOp op) noexcept {
    auto& counts = ops_[format];
    auto& bucket = in_vector_region() ? counts.vectorial : counts.scalar;
    ++bucket[static_cast<std::size_t>(op)];
}

void StatsRegistry::record_cast(FpFormat from, FpFormat to) noexcept {
    auto& slots = casts_[{from, to}];
    ++slots[in_vector_region() ? 1 : 0];
}

OpCounts StatsRegistry::counts_for(FpFormat format) const noexcept {
    const auto it = ops_.find(format);
    return it == ops_.end() ? OpCounts{} : it->second;
}

std::uint64_t StatsRegistry::total_arithmetic() const noexcept {
    std::uint64_t total = 0;
    for (const auto& [fmt, counts] : ops_) total += counts.arithmetic_total();
    return total;
}

std::uint64_t StatsRegistry::total_casts() const noexcept {
    std::uint64_t total = 0;
    for (const auto& [key, slots] : casts_) total += slots[0] + slots[1];
    return total;
}

void StatsRegistry::print_report(std::ostream& os) const {
    os << "FlexFloat operation report\n";
    for (const auto& [fmt, counts] : ops_) {
        os << "  format (e=" << int{fmt.exp_bits} << ", m=" << int{fmt.mant_bits}
           << "):";
        for (std::size_t i = 0; i < kFpOpCount; ++i) {
            const auto op = static_cast<FpOp>(i);
            const std::uint64_t s = counts.scalar[i];
            const std::uint64_t v = counts.vectorial[i];
            if (s + v == 0) continue;
            os << ' ' << name_of(op) << "=" << s;
            if (v != 0) os << "(+" << v << "v)";
        }
        os << '\n';
    }
    for (const auto& [key, slots] : casts_) {
        os << "  cast (e=" << int{key.first.exp_bits} << ",m="
           << int{key.first.mant_bits} << ") -> (e=" << int{key.second.exp_bits}
           << ",m=" << int{key.second.mant_bits} << "): " << slots[0];
        if (slots[1] != 0) os << " (+" << slots[1] << "v)";
        os << '\n';
    }
}

void StatsRegistry::set_enabled(bool enabled) noexcept {
    enabled_ = enabled;
    // Keep the hot-path mirror in sync — but only for the calling thread's
    // registry; toggling a detached StatsRegistry instance must not change
    // what this thread's FlexFloat operations record into.
    if (this == &thread_stats()) detail::t_stats_enabled = enabled;
}

StatsRegistry& thread_stats() noexcept {
    thread_local StatsRegistry registry;
    return registry;
}

} // namespace tp
