// Plain execution context: the untraced instantiation of every kernel.
//
// Kernels are written once, as `template <class Ctx> kernel(Ctx&, ...)`
// (apps/app.hpp). Instantiated on sim::TpContext they emit the
// instruction stream the virtual platform prices; instantiated on this
// context they only compute — the re-runnable binary the precision-tuning
// loop executes for every trial, the golden reference and the analysis
// probe runs.
//
// Its Value is FlexFloatDyn itself: an inline {double, FpFormat}, no
// context pointer, no SSA id. sim::TpValue computes through the same
// FlexFloatDyn ops before it records an instruction, so both
// instantiations compute bit-identical values and book the FlexFloat
// statistics registry at exactly the same points (ops and FromInt via
// record_op, casts via record_cast, every compare as Cmp; constants, loads
// and stores book nothing). The backend override knobs (TP_FORCE_EMULATED,
// arith::ScopedForceEmulated, arith::ScopedBinary64) reach it through
// arith::resolve(). It is header-only so the ops inline into the kernels.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "flexfloat/arith_backend.hpp"
#include "flexfloat/flexfloat_dyn.hpp"
#include "flexfloat/stats.hpp"
#include "types/format.hpp"

namespace tp::sim {

/// Array storage in a fixed element format: TpArray without the memory
/// traffic model.
class PlainArray {
public:
    [[nodiscard]] FpFormat format() const noexcept { return format_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    /// Setup-time write, rounded to the element format.
    void set_raw(std::size_t i, double value) noexcept {
        assert(i < data_.size());
        data_[i] = arith::cast(value, format_);
    }
    [[nodiscard]] double raw(std::size_t i) const noexcept {
        assert(i < data_.size());
        return data_[i];
    }

    // Stored values are already rounded to the element format (set_raw /
    // store), so a load adopts them as they are.
    [[nodiscard]] FlexFloatDyn load(std::size_t i) const noexcept {
        assert(i < data_.size());
        return FlexFloatDyn::from_rounded(data_[i], format_);
    }
    /// The value's format must equal the element format (cast explicitly
    /// first, as the type system demands).
    void store(std::size_t i, const FlexFloatDyn& value) noexcept {
        assert(i < data_.size());
        assert(value.format() == format_ &&
               "store requires the array's element format; cast explicitly");
        data_[i] = value.value();
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
    using Value = FlexFloatDyn;
    using Array = PlainArray;

    [[nodiscard]] Value constant(double value, FpFormat format) const noexcept {
        return Value{value, format};
    }
    /// Integer -> FP conversion.
    [[nodiscard]] Value from_int(std::int64_t value, FpFormat format) const noexcept {
        if (stats_enabled()) thread_stats().record_op(format, FpOp::FromInt);
        return Value{static_cast<double>(value), format};
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
