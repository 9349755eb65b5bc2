// Plain execution context: the untraced instantiation of every kernel.
//
// Kernels are written once, as `template <class Ctx> kernel(Ctx&, ...)`
// (apps/app.hpp). Instantiated on sim::TpContext they record the
// instruction trace the virtual platform replays; instantiated on this
// context they only compute — the re-runnable binary the precision-tuning
// loop executes for every trial, the golden reference and the analysis
// probe runs.
//
// A PlainValue is an inline {double, FpFormat}: no context pointer, no SSA
// id, no mode checks. Its operators round through the same tp::arith entry
// points TpValue uses, so both instantiations compute bit-identical
// values, and they book the FlexFloat statistics registry at exactly the
// points TpValue does (ops and FromInt via record_op, casts via
// record_cast, every compare as Cmp; constants, loads and stores book
// nothing). The backend override knobs (TP_FORCE_EMULATED,
// arith::ScopedForceEmulated) reach it through arith::resolve(). It is
// header-only so the ops inline into the kernels.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "flexfloat/arith_backend.hpp"
#include "flexfloat/stats.hpp"
#include "types/encoding.hpp"
#include "types/format.hpp"

namespace tp::sim {

/// An untraced FP value: FlexFloat semantics, no SSA id. Arithmetic
/// requires matching formats (asserted); casts are explicit via cast_to().
class PlainValue {
public:
    PlainValue() noexcept = default;

    [[nodiscard]] double to_double() const noexcept { return value_; }
    [[nodiscard]] FpFormat format() const noexcept { return format_; }

    /// Explicit format conversion.
    [[nodiscard]] PlainValue cast_to(FpFormat target) const noexcept {
        if (stats_enabled()) thread_stats().record_cast(format_, target);
        return PlainValue{arith::cast(value_, target), target};
    }

    friend PlainValue operator+(const PlainValue& a, const PlainValue& b) noexcept {
        return binary(FpOp::Add, a, b);
    }
    friend PlainValue operator-(const PlainValue& a, const PlainValue& b) noexcept {
        return binary(FpOp::Sub, a, b);
    }
    friend PlainValue operator*(const PlainValue& a, const PlainValue& b) noexcept {
        return binary(FpOp::Mul, a, b);
    }
    friend PlainValue operator/(const PlainValue& a, const PlainValue& b) noexcept {
        return binary(FpOp::Div, a, b);
    }
    friend PlainValue operator-(const PlainValue& a) noexcept {
        return unary(FpOp::Neg, a);
    }
    friend PlainValue sqrt(const PlainValue& a) noexcept {
        return unary(FpOp::Sqrt, a);
    }
    friend PlainValue abs(const PlainValue& a) noexcept {
        return unary(FpOp::Abs, a);
    }
    /// Fused multiply-add: a * b + c, single rounding.
    friend PlainValue fma(const PlainValue& a, const PlainValue& b,
                          const PlainValue& c) noexcept {
        assert(a.format_ == b.format_ && b.format_ == c.format_ &&
               "mixed-format fma requires explicit casts");
        record_op(a.format_, FpOp::Fma);
        return PlainValue{arith::fma(a.value_, b.value_, c.value_, a.format_),
                          a.format_};
    }

    friend bool operator<(const PlainValue& a, const PlainValue& b) noexcept {
        record_cmp(a, b);
        return a.value_ < b.value_;
    }
    friend bool operator<=(const PlainValue& a, const PlainValue& b) noexcept {
        record_cmp(a, b);
        return a.value_ <= b.value_;
    }
    friend bool operator>(const PlainValue& a, const PlainValue& b) noexcept {
        record_cmp(a, b);
        return a.value_ > b.value_;
    }
    friend bool operator>=(const PlainValue& a, const PlainValue& b) noexcept {
        record_cmp(a, b);
        return a.value_ >= b.value_;
    }

private:
    friend class PlainContext;
    friend class PlainArray;
    /// Adopts a value already rounded to `format`.
    PlainValue(double value, FpFormat format) noexcept
        : value_(value), format_(format) {}

    static void record_op(FpFormat format, FpOp op) noexcept {
        if (stats_enabled()) thread_stats().record_op(format, op);
    }
    static void record_cmp(const PlainValue& a, const PlainValue& b) noexcept {
        assert(a.format_ == b.format_ && "compares require matching formats");
        (void)b;
        record_op(a.format_, FpOp::Cmp);
    }
    static PlainValue binary(FpOp op, const PlainValue& a,
                             const PlainValue& b) noexcept {
        assert(a.format_ == b.format_ &&
               "mixed-format arithmetic requires an explicit cast");
        record_op(a.format_, op);
        return PlainValue{arith::arith(op, a.value_, b.value_, a.format_),
                          a.format_};
    }
    static PlainValue unary(FpOp op, const PlainValue& a) noexcept {
        record_op(a.format_, op);
        return PlainValue{arith::arith(op, a.value_, a.value_, a.format_),
                          a.format_};
    }

    double value_ = 0.0;
    FpFormat format_ = kBinary32;
};

/// Array storage in a fixed element format: TpArray without the memory
/// traffic model.
class PlainArray {
public:
    [[nodiscard]] FpFormat format() const noexcept { return format_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    /// Setup-time write, quantized to the element format.
    void set_raw(std::size_t i, double value) noexcept {
        assert(i < data_.size());
        data_[i] = quantize(value, format_);
    }
    [[nodiscard]] double raw(std::size_t i) const noexcept {
        assert(i < data_.size());
        return data_[i];
    }

    // Stored values are already rounded to the element format (set_raw /
    // store), so a load adopts them as they are.
    [[nodiscard]] PlainValue load(std::size_t i) const noexcept {
        assert(i < data_.size());
        return PlainValue{data_[i], format_};
    }
    /// The value's format must equal the element format (cast explicitly
    /// first, as the type system demands).
    void store(std::size_t i, const PlainValue& value) noexcept {
        assert(i < data_.size());
        assert(value.format() == format_ &&
               "store requires the array's element format; cast explicitly");
        data_[i] = value.to_double();
    }

private:
    friend class PlainContext;
    PlainArray(FpFormat format, std::size_t n) : format_(format), data_(n, 0.0) {}

    FpFormat format_;
    std::vector<double> data_;
};

/// The kernel-facing surface of TpContext, minus the trace: the cost-model
/// hooks are empty, so the untraced instantiation compiles them away.
class PlainContext {
public:
    using Value = PlainValue;
    using Array = PlainArray;

    [[nodiscard]] Value constant(double value, FpFormat format) const noexcept {
        return Value{arith::cast(value, format), format};
    }
    /// Integer -> FP conversion.
    [[nodiscard]] Value from_int(std::int64_t value, FpFormat format) const noexcept {
        Value::record_op(format, FpOp::FromInt);
        return Value{arith::cast(static_cast<double>(value), format), format};
    }
    [[nodiscard]] Array make_array(FpFormat format, std::size_t n) const {
        return Array{format, n};
    }

    void int_ops(int /*n*/ = 1) const noexcept {}
    void branch(int /*n*/ = 1) const noexcept {}
    void loop_iteration() const noexcept {}

    /// Still a real guard: it drives the FlexFloat statistics registry's
    /// scalar/vectorial split, as TpContext's does.
    [[nodiscard]] VectorRegionGuard vector_region() const noexcept {
        return VectorRegionGuard{};
    }
};

} // namespace tp::sim
