// Operation and cast statistics for FlexFloat programs.
//
// This is step 4 of the paper's transprecision programming flow (Fig. 2):
// once variables are mapped to FP types, the library reports how many
// operations and casts each instantiated type performs. Program sections
// that are vectorizable are tagged manually in the source (the paper does
// the same, since FlexFloat does not auto-vectorize); the registry keeps a
// distinct count for vectorial operations and casts.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <utility>

#include "types/format.hpp"

namespace tp {

/// Arithmetic/auxiliary FP operations tracked per format.
enum class FpOp : std::uint8_t {
    Add = 0,
    Sub,
    Mul,
    Fma, // fused multiply-add (single rounding)
    Div,
    Sqrt,
    Neg,
    Abs,
    Cmp,
    FromInt,
    ToInt,
};
inline constexpr std::size_t kFpOpCount = 11;

[[nodiscard]] std::string_view name_of(FpOp op) noexcept;

namespace detail {
/// Mirror of thread_stats().enabled(), maintained by
/// StatsRegistry::set_enabled. Constant-initialized, so the hot-path check
/// below compiles to one TLS load and a branch — no function call, no TLS
/// init guard on the per-operation fast path.
inline thread_local bool t_stats_enabled = false;
/// Live VectorRegionGuards on this thread; constant-initialized like
/// t_stats_enabled, so every traced instruction reads it inline.
inline thread_local int t_vector_region_depth = 0;
} // namespace detail

/// True while at least one VectorRegionGuard is alive on this thread.
[[nodiscard]] inline bool in_vector_region() noexcept {
    return detail::t_vector_region_depth > 0;
}

/// Whether the calling thread's registry is currently collecting — THE
/// per-operation hot-path check. Exactly equivalent to
/// thread_stats().enabled(), but cheap enough for the arithmetic fast path.
[[nodiscard]] inline bool stats_enabled() noexcept {
    return detail::t_stats_enabled;
}

/// RAII tag for a manually-identified vectorizable program section.
/// Nesting is allowed; the section ends when the outermost guard dies.
class VectorRegionGuard {
public:
    VectorRegionGuard() noexcept;
    ~VectorRegionGuard();
    VectorRegionGuard(const VectorRegionGuard&) = delete;
    VectorRegionGuard& operator=(const VectorRegionGuard&) = delete;
};

/// Per-format operation counters, split scalar/vectorial.
struct OpCounts {
    std::array<std::uint64_t, kFpOpCount> scalar{};
    std::array<std::uint64_t, kFpOpCount> vectorial{};

    [[nodiscard]] std::uint64_t total(FpOp op) const noexcept {
        const auto i = static_cast<std::size_t>(op);
        return scalar[i] + vectorial[i];
    }
    /// Add/Sub/Mul/Div/Sqrt — the operations the paper's Fig. 5 counts.
    [[nodiscard]] std::uint64_t arithmetic_scalar() const noexcept;
    [[nodiscard]] std::uint64_t arithmetic_vectorial() const noexcept;
    [[nodiscard]] std::uint64_t arithmetic_total() const noexcept {
        return arithmetic_scalar() + arithmetic_vectorial();
    }

    friend bool operator==(const OpCounts&, const OpCounts&) = default;
};

/// Collects FP operation and cast statistics. One instance per thread
/// (thread_stats()) backs both the flexfloat<E,M> template and
/// FlexFloatDyn; it is disabled by default so that un-instrumented code
/// pays only a branch. Thread confinement means concurrent tuning workers
/// (each owning a private TpContext and app clone) never share counter
/// state, so instrumented and parallel code can coexist without locks.
class StatsRegistry {
public:
    /// Also updates the stats_enabled() mirror when `this` is the calling
    /// thread's registry (defined out of line for that check).
    void set_enabled(bool enabled) noexcept;
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    void reset() noexcept;

    void record_op(FpFormat format, FpOp op) noexcept;
    void record_cast(FpFormat from, FpFormat to) noexcept;

    [[nodiscard]] const std::map<FpFormat, OpCounts>& ops() const noexcept {
        return ops_;
    }
    /// Cast counts keyed by (from, to); index 0 is scalar, 1 vectorial.
    using CastKey = std::pair<FpFormat, FpFormat>;
    [[nodiscard]] const std::map<CastKey, std::array<std::uint64_t, 2>>& casts()
        const noexcept {
        return casts_;
    }

    [[nodiscard]] OpCounts counts_for(FpFormat format) const noexcept;
    [[nodiscard]] std::uint64_t total_arithmetic() const noexcept;
    [[nodiscard]] std::uint64_t total_casts() const noexcept;

    void print_report(std::ostream& os) const;

private:
    bool enabled_ = false;
    std::map<FpFormat, OpCounts> ops_;
    std::map<CastKey, std::array<std::uint64_t, 2>> casts_;
};

/// The calling thread's registry, used by default by all FlexFloat values
/// created on that thread.
[[nodiscard]] StatsRegistry& thread_stats() noexcept;

} // namespace tp
