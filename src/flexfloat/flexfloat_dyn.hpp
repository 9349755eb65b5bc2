// FlexFloatDyn — the runtime-format twin of flexfloat<E, M>.
//
// The template form fixes (e, m) at compile time, which matches the final
// deployment step of the programming flow. The precision-tuning loop,
// however, re-runs a program hundreds of times with *different* per-variable
// formats; recompiling for every trial (what the paper's "FlexFloat wrapper"
// does with template re-instantiation) would dominate tuning time. This
// class carries its FpFormat as a value, so the tuner and the virtual
// platform can change formats between runs without recompilation, at the
// cost of one descriptor per value.
//
// Semantics are identical to flexfloat<E, M>: every operation routes
// through the shared arithmetic backend (flexfloat/arith_backend.hpp),
// which rounds the result to the value's format — natively for
// hardware-mappable formats, via binary64 + sanitize otherwise, and not at
// all under arith::ScopedBinary64, the static analysis' shadow run; operands
// of an arithmetic operation must share one format (asserted), and casts
// are explicit via cast_to().
//
// It is the one runtime-format value: both instantiations of every kernel
// (apps/app.hpp) compute on it — sim::PlainContext uses it as its Value,
// and sim::TpValue wraps one with the SSA id its traced ops record. The ops
// are header-inline so they inline into the untraced kernels.
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>

#include "flexfloat/arith_backend.hpp"
#include "flexfloat/stats.hpp"
#include "types/format.hpp"

namespace tp {

namespace sim {
class TpArray;
class PlainArray;
}

class FlexFloatDyn {
public:
    constexpr FlexFloatDyn() noexcept = default;

    FlexFloatDyn(double value, FpFormat format) noexcept
        : value_(arith::cast(value, format)), format_(format) {}

    [[nodiscard]] double value() const noexcept { return value_; }
    [[nodiscard]] FpFormat format() const noexcept { return format_; }
    [[nodiscard]] std::uint64_t bits() const noexcept;
    [[nodiscard]] static FlexFloatDyn from_bits(std::uint64_t bits,
                                                FpFormat format) noexcept;

    /// Explicit format conversion; booked as a cast.
    [[nodiscard]] FlexFloatDyn cast_to(FpFormat target) const noexcept {
        if (stats_enabled()) thread_stats().record_cast(format_, target);
        return from_rounded(arith::cast(value_, target), target);
    }

    friend FlexFloatDyn operator+(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        return binary_op(a, b, FpOp::Add);
    }
    friend FlexFloatDyn operator-(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        return binary_op(a, b, FpOp::Sub);
    }
    friend FlexFloatDyn operator*(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        return binary_op(a, b, FpOp::Mul);
    }
    friend FlexFloatDyn operator/(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        return binary_op(a, b, FpOp::Div);
    }
    friend FlexFloatDyn operator-(const FlexFloatDyn& a) noexcept {
        return unary_op(a, FpOp::Neg);
    }

    FlexFloatDyn& operator+=(const FlexFloatDyn& rhs) noexcept { return *this = *this + rhs; }
    FlexFloatDyn& operator-=(const FlexFloatDyn& rhs) noexcept { return *this = *this - rhs; }
    FlexFloatDyn& operator*=(const FlexFloatDyn& rhs) noexcept { return *this = *this * rhs; }
    FlexFloatDyn& operator/=(const FlexFloatDyn& rhs) noexcept { return *this = *this / rhs; }

    friend bool operator==(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        record_cmp(a, b);
        return a.value_ == b.value_;
    }
    friend bool operator!=(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        record_cmp(a, b);
        return a.value_ != b.value_;
    }
    friend bool operator<(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        record_cmp(a, b);
        return a.value_ < b.value_;
    }
    friend bool operator<=(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        record_cmp(a, b);
        return a.value_ <= b.value_;
    }
    friend bool operator>(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        record_cmp(a, b);
        return a.value_ > b.value_;
    }
    friend bool operator>=(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        record_cmp(a, b);
        return a.value_ >= b.value_;
    }

    friend FlexFloatDyn sqrt(const FlexFloatDyn& a) noexcept {
        return unary_op(a, FpOp::Sqrt);
    }
    friend FlexFloatDyn abs(const FlexFloatDyn& a) noexcept {
        return unary_op(a, FpOp::Abs);
    }
    /// Fused multiply-add with a single rounding: a * b + c.
    friend FlexFloatDyn fma(const FlexFloatDyn& a, const FlexFloatDyn& b,
                            const FlexFloatDyn& c) noexcept {
        assert(a.format_ == b.format_ && b.format_ == c.format_ &&
               "mixed-format fma requires explicit casts");
        record(a.format_, FpOp::Fma);
        return from_rounded(arith::fma(a.value_, b.value_, c.value_, a.format_),
                            a.format_);
    }

private:
    // The array types keep element values already rounded to the element
    // format, so their loads adopt them through from_rounded().
    friend class sim::TpArray;
    friend class sim::PlainArray;

    /// Adopts a value the arithmetic backend already rounded to `format` —
    /// skips the construction-time re-round. Callers promise the invariant;
    /// only under arith::ScopedBinary64, where values stay unrounded
    /// binary64 by design, does it not hold.
    static FlexFloatDyn from_rounded(double value, FpFormat format) noexcept {
        assert(arith::binary64() || value != value ||
               value == detail::sanitize(value, format));
        FlexFloatDyn result;
        result.value_ = value;
        result.format_ = format;
        return result;
    }

    static FlexFloatDyn binary_op(const FlexFloatDyn& a, const FlexFloatDyn& b,
                                  FpOp op) noexcept {
        assert(a.format_ == b.format_ &&
               "mixed-format arithmetic requires an explicit cast");
        record(a.format_, op);
        return from_rounded(arith::arith(op, a.value_, b.value_, a.format_),
                            a.format_);
    }
    static FlexFloatDyn unary_op(const FlexFloatDyn& a, FpOp op) noexcept {
        record(a.format_, op);
        return from_rounded(arith::arith(op, a.value_, a.value_, a.format_),
                            a.format_);
    }
    static void record(FpFormat format, FpOp op) noexcept {
        if (stats_enabled()) thread_stats().record_op(format, op);
    }
    static void record_cmp(const FlexFloatDyn& a, const FlexFloatDyn& b) noexcept {
        assert(a.format_ == b.format_);
        (void)b;
        record(a.format_, FpOp::Cmp);
    }

    double value_ = 0.0;
    FpFormat format_ = kBinary32;
};

std::ostream& operator<<(std::ostream& os, const FlexFloatDyn& x);

} // namespace tp
