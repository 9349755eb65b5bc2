// Transprecision execution context: the tracing instantiation of the
// benchmark kernels.
//
// Every application kernel is written once, as a template over its
// execution context (apps/app.hpp), and instantiated twice:
//
//   * on TpContext — values are TpValue handles (a FlexFloatDyn plus an
//     SSA id) and TpArray storage. Each arithmetic operation and cast
//     computes through the matching FlexFloatDyn op and then emits its
//     instruction, as does every load and store. A TpContext always traces,
//     in one of three modes: it stores the trace for take_program(); or, in
//     cost mode (Costing), prices each instruction on the virtual platform
//     as it is emitted, a small buffer at a time, and stores nothing
//     (take_report() returns the priced run); or, in sink mode (Sinking),
//     hands each buffer to a TraceSink (sim/trace.hpp) together with the
//     value every id took and every raw() readout, and stores nothing.
//   * on sim::PlainContext (sim/plain_context.hpp) — plain FlexFloatDyn
//     values that only compute: the fast re-runnable binary the
//     precision-tuning loop needs.
//
// Rounding lives in tp::arith alone, so the backend overrides reach both
// instantiations; under arith::ScopedBinary64 (the static analysis' shadow
// run, analysis::shadow_run) every value stays unrounded binary64 and the
// value formats a sink receives are pure dataflow tags.
//
// apps::App::run picks the instantiation from Config::trace, so callers
// select untraced execution by passing an untraced TpContext to App::run;
// calling TpValue operations directly on one is a program bug (asserted).
//
// Formats are per-value (per variable group in the applications), so one
// kernel source serves the binary32 baseline, every tuning trial, and the
// final mixed-format configuration — exactly the property FlexFloat's
// template class gives the paper's programs, transplanted to runtime
// formats. The emit path is inline: it runs once per traced instruction.
// Its shape matters beyond the traced kernels: both instantiations of a
// kernel compile in one translation unit, and growing this inline path has
// moved GCC's inlining of the plain one. After changing it, compare the
// plain kernels' out-of-line calls (objdump -dr of each app's object)
// against the parent's.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flexfloat/arith_backend.hpp"
#include "flexfloat/flexfloat_dyn.hpp"
#include "flexfloat/stats.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"
#include "sim/vectorize.hpp"
#include "types/format.hpp"

namespace tp::sim {

class TpContext;

/// A traced FP value: FlexFloat semantics plus an SSA id for the pipeline
/// model's dependency tracking. Arithmetic requires matching formats
/// (asserted by FlexFloatDyn); casts are explicit via cast_to().
class TpValue {
public:
    TpValue() noexcept = default;

    [[nodiscard]] double value() const noexcept { return value_.value(); }
    [[nodiscard]] FpFormat format() const noexcept { return value_.format(); }

    /// Explicit format conversion; emits a cast instruction.
    [[nodiscard]] TpValue cast_to(FpFormat target) const;

    friend TpValue operator+(const TpValue& a, const TpValue& b);
    friend TpValue operator-(const TpValue& a, const TpValue& b);
    friend TpValue operator*(const TpValue& a, const TpValue& b);
    friend TpValue operator/(const TpValue& a, const TpValue& b);
    friend TpValue operator-(const TpValue& a);
    friend TpValue sqrt(const TpValue& a);
    friend TpValue abs(const TpValue& a);
    /// Fused multiply-add instruction: a * b + c, single rounding.
    friend TpValue fma(const TpValue& a, const TpValue& b, const TpValue& c);

    // Comparisons execute a single-cycle FP compare on the unit.
    friend bool operator<(const TpValue& a, const TpValue& b);
    friend bool operator<=(const TpValue& a, const TpValue& b);
    friend bool operator>(const TpValue& a, const TpValue& b);
    friend bool operator>=(const TpValue& a, const TpValue& b);

private:
    friend class TpContext;
    friend class TpArray;
    TpValue(TpContext* ctx, FlexFloatDyn value, std::int32_t id) noexcept
        : value_(value), id_(id), ctx_(ctx) {}

    /// Records `result`, computed by the FlexFloatDyn op on the operands'
    /// values, as one `op` instruction reading them (absent operands are
    /// default TpValues, id -1).
    static TpValue emit(FpOp op, FlexFloatDyn result, const TpValue& a,
                        const TpValue& b = {}, const TpValue& c = {});
    static bool compare(const TpValue& a, const TpValue& b, bool result);

    FlexFloatDyn value_{};
    std::int32_t id_ = -1;
    TpContext* ctx_ = nullptr;
};

/// Array storage in a fixed element format. Raw accessors touch the backing
/// store without emitting instructions (workload setup / result readout);
/// load()/store() model real data-memory traffic of element width.
class TpArray {
public:
    [[nodiscard]] FpFormat format() const noexcept { return format_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    /// Setup-time write: rounded to the element format through
    /// arith::cast, no instruction.
    void set_raw(std::size_t i, double value) noexcept {
        assert(i < data_.size());
        data_[i] = arith::cast(value, format_);
    }
    /// Readout without instruction emission. In sink mode each read is also
    /// handed to the sink as an output tap (the element's last-stored value
    /// id, format and value) — the anchor points the static analysis
    /// inverts its error model at. Defined after TpContext.
    [[nodiscard]] double raw(std::size_t i) const;

    /// Simulated load: one data memory access of storage_bytes() width.
    [[nodiscard]] TpValue load(std::size_t i);
    /// Simulated store; the value's format must equal the element format
    /// (cast explicitly first, as the type system demands).
    void store(std::size_t i, const TpValue& value);

private:
    friend class TpContext;
    TpArray(TpContext* ctx, std::uint32_t stream, FpFormat format, std::size_t n);

    TpContext* ctx_;
    std::uint32_t stream_;
    FpFormat format_;
    std::vector<double> data_;
    /// Last value id stored per element (-1 for set_raw-only elements);
    /// allocated only in sink mode, else empty.
    std::vector<std::int32_t> writers_;
};

class TpContext {
public:
    struct Config {
        /// false: apps::App::run executes the kernel's plain (untraced)
        /// instantiation instead of tracing on this context (fast tuning
        /// runs). The context itself always traces.
        bool trace = true;
    };

    /// Cost mode: a traced context that prices its run while the kernel
    /// emits it (sim::CostStream), vectorized when `simd`, and stores no
    /// trace. EvalEngine::report runs every cost probe in it.
    struct Costing {
        bool simd = false;
    };

    /// Sink mode: a traced context that hands its run to `sink` while the
    /// kernel emits it — instructions, value records and raw() readouts, a
    /// buffer at a time — and stores no trace. Call flush() once the kernel
    /// returns. The static analysis' shadow runs are its user.
    struct Sinking {
        TraceSink* sink = nullptr;
    };

    TpContext() : TpContext(Config{}) {}
    explicit TpContext(Config config) : config_(config) {}
    explicit TpContext(Costing costing)
        : cost_(std::make_unique<CostStream>(costing.simd)), sink_(cost_.get()) {
        trace_.reserve(CostModel::kBatch);
    }
    explicit TpContext(Sinking sinking)
        : sink_(sinking.sink), sink_mode_(true) {
        assert(sink_ != nullptr && "sink mode needs a sink");
        trace_.reserve(CostModel::kBatch);
    }
    TpContext(const TpContext&) = delete;
    TpContext& operator=(const TpContext&) = delete;

    // The kernel-facing value and array types (see sim::PlainContext).
    using Value = TpValue;
    using Array = TpArray;

    /// A register-resident constant: no instruction is emitted (the value
    /// is materialized once outside the measured kernel, like FP literals
    /// kept in registers by the compiler), but its id's record still
    /// reaches a sink — constants are the leaves of the dataflow graph.
    [[nodiscard]] TpValue constant(double value, FpFormat format) {
        const FlexFloatDyn ff{value, format};
        const std::int32_t id = next_id();
        record_value(ff.value(), format);
        return TpValue{this, ff, id};
    }

    /// Integer -> FP conversion instruction (e.g. loop index entering the
    /// FP dataflow).
    [[nodiscard]] TpValue from_int(std::int64_t value, FpFormat format) {
        Instr instr;
        instr.kind = InstrKind::FpCast;
        instr.op = FpOp::FromInt;
        instr.fmt = format;
        instr.fmt2 = format;
        instr.vectorizable = in_vector_region();
        instr.dst = next_id();
        push(instr);
        if (stats_enabled()) thread_stats().record_op(format, FpOp::FromInt);
        const FlexFloatDyn result{static_cast<double>(value), format};
        record_value(result.value(), format);
        return TpValue{this, result, instr.dst};
    }

    /// Array backed by the simulated data memory.
    [[nodiscard]] TpArray make_array(FpFormat format, std::size_t n) {
        return TpArray{this, next_stream_++, format, n};
    }

    /// Integer ALU work (index arithmetic, address generation, selects).
    void int_ops(int n = 1) {
        for (int i = 0; i < n; ++i) {
            Instr instr;
            instr.kind = InstrKind::IntAlu;
            push(instr);
        }
    }
    /// Control transfer; pays a pipeline bubble when simulated.
    void branch(int n = 1) {
        for (int i = 0; i < n; ++i) {
            Instr instr;
            instr.kind = InstrKind::Branch;
            push(instr);
        }
    }
    /// Canonical per-iteration loop overhead: induction update + branch.
    void loop_iteration() {
        int_ops(1);
        branch(1);
    }

    /// Tags a vectorizable section (RAII); grouping into SIMD instructions
    /// happens in sim::vectorize(). The same guard feeds the FlexFloat
    /// statistics registry's scalar/vectorial split.
    [[nodiscard]] VectorRegionGuard vector_region() { return VectorRegionGuard{}; }

    [[nodiscard]] bool tracing() const noexcept { return config_.trace; }

    /// Hands the recorded trace out (and resets the context's trace state).
    /// `apply_simd` runs the vectorization pass, modelling the SIMD-enabled
    /// toolchain; pass false for the scalar baseline. A trace that never
    /// entered a vector region has nothing to pack, and skips the pass.
    /// Not available in cost or sink mode, which store no trace.
    [[nodiscard]] TraceProgram take_program(bool apply_simd);

    /// Cost mode only: prices the instructions still buffered and hands the
    /// run's report out — the report simulate(take_program(simd)) gives for
    /// the same run traced, bit for bit — then starts a new run.
    [[nodiscard]] RunReport take_report();

    /// Sink mode only: hands the buffered instructions, value records and
    /// readouts to the sink.
    void flush();

private:
    friend class TpValue;
    friend class TpArray;

    std::int32_t next_id() noexcept {
        return static_cast<std::int32_t>(value_count_++);
    }

    /// Emits one instruction onto the trace. In cost and sink mode the
    /// trace is only a buffer, handed on and emptied when a batch is full.
    /// That happens before the next instruction goes in, not right after
    /// the last one: by then the value record of every id assigned so far
    /// is buffered too.
    void push(const Instr& instr) {
        assert(config_.trace &&
               "an untraced TpContext only selects App::run's plain kernel");
        any_vectorizable_ = any_vectorizable_ || instr.vectorizable;
        if (trace_.size() == CostModel::kBatch && sink_ != nullptr) hand_on();
        trace_.push_back(instr);
    }

    /// Cost or sink mode: hands the buffer on and empties it.
    void hand_on();

    std::int32_t emit_fp(FpOp op, FpFormat fmt, std::int32_t src1,
                         std::int32_t src2, std::int32_t src3 = -1) {
        Instr instr;
        instr.kind = InstrKind::FpArith;
        instr.op = op;
        instr.fmt = fmt;
        instr.vectorizable = in_vector_region();
        instr.src1 = src1;
        instr.src2 = src2;
        instr.src3 = src3;
        instr.dst = next_id();
        push(instr);
        return instr.dst;
    }

    void emit_cmp(FpFormat fmt, std::int32_t src1, std::int32_t src2) {
        Instr instr;
        instr.kind = InstrKind::FpArith;
        instr.op = FpOp::Cmp;
        instr.fmt = fmt;
        instr.vectorizable = false; // compares feed control flow, never SIMD
        instr.src1 = src1;
        instr.src2 = src2;
        push(instr);
    }

    std::int32_t emit_cast(FpFormat from, FpFormat to, std::int32_t src) {
        Instr instr;
        instr.kind = InstrKind::FpCast;
        instr.fmt = from;
        instr.fmt2 = to;
        instr.vectorizable = in_vector_region();
        instr.src1 = src;
        instr.dst = next_id();
        push(instr);
        return instr.dst;
    }

    std::int32_t emit_load(std::uint32_t stream, FpFormat fmt) {
        Instr instr;
        instr.kind = InstrKind::Load;
        instr.fmt = fmt;
        instr.bytes = static_cast<std::uint8_t>(fmt.storage_bytes());
        instr.stream = stream;
        instr.vectorizable = in_vector_region();
        instr.dst = next_id();
        push(instr);
        return instr.dst;
    }

    void emit_store(std::uint32_t stream, FpFormat fmt, std::int32_t src) {
        Instr instr;
        instr.kind = InstrKind::Store;
        instr.fmt = fmt;
        instr.bytes = static_cast<std::uint8_t>(fmt.storage_bytes());
        instr.stream = stream;
        instr.vectorizable = in_vector_region();
        instr.src1 = src;
        push(instr);
    }

    /// Sink mode: buffers the record of the id just assigned. Ids are dense
    /// and assigned in creation order, so the buffer holds the ids assigned
    /// since the last hand-on, in order.
    void record_value(double value, FpFormat fmt) {
        if (sink_mode_) values_.push_back(ValueRecord{value, fmt});
    }

    Config config_;
    Trace trace_; // the stored trace, or in cost/sink mode the rest
    // The stored trace holds a vectorizable instruction (take_program).
    bool any_vectorizable_ = false;
    // Cost mode only; null otherwise, so an untraced context stays cheap.
    std::unique_ptr<CostStream> cost_;
    // Where a full buffer goes: cost_ in cost mode, the caller's sink in
    // sink mode; null while the trace is stored.
    TraceSink* sink_ = nullptr;
    // Sink mode: value records and raw() readouts go to the sink too, in
    // these buffers until handed on.
    bool sink_mode_ = false;
    std::vector<ValueRecord> values_;
    std::vector<OutputTap> taps_;
    std::size_t value_count_ = 0;
    std::uint32_t next_stream_ = 1;
};

// --- TpValue ---------------------------------------------------------------

inline TpValue TpValue::emit(FpOp op, FlexFloatDyn result, const TpValue& a,
                             const TpValue& b, const TpValue& c) {
    TpContext* ctx =
        a.ctx_ != nullptr ? a.ctx_ : (b.ctx_ != nullptr ? b.ctx_ : c.ctx_);
    assert(ctx != nullptr && "TpValue arithmetic requires a live context");
    assert((b.ctx_ == nullptr || b.ctx_ == ctx) &&
           (c.ctx_ == nullptr || c.ctx_ == ctx) &&
           "operands belong to different contexts");
    const std::int32_t id = ctx->emit_fp(op, result.format(), a.id_, b.id_, c.id_);
    ctx->record_value(result.value(), result.format());
    return TpValue{ctx, result, id};
}

inline bool TpValue::compare(const TpValue& a, const TpValue& b, bool result) {
    TpContext* ctx = a.ctx_ != nullptr ? a.ctx_ : b.ctx_;
    assert(ctx != nullptr);
    ctx->emit_cmp(a.format(), a.id_, b.id_);
    return result;
}

inline TpValue operator+(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Add, a.value_ + b.value_, a, b);
}
inline TpValue operator-(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Sub, a.value_ - b.value_, a, b);
}
inline TpValue operator*(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Mul, a.value_ * b.value_, a, b);
}
inline TpValue operator/(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Div, a.value_ / b.value_, a, b);
}
inline TpValue operator-(const TpValue& a) {
    return TpValue::emit(FpOp::Neg, -a.value_, a);
}
inline TpValue sqrt(const TpValue& a) {
    return TpValue::emit(FpOp::Sqrt, sqrt(a.value_), a);
}
inline TpValue abs(const TpValue& a) {
    return TpValue::emit(FpOp::Abs, abs(a.value_), a);
}
inline TpValue fma(const TpValue& a, const TpValue& b, const TpValue& c) {
    return TpValue::emit(FpOp::Fma, fma(a.value_, b.value_, c.value_), a, b, c);
}

inline bool operator<(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ < b.value_);
}
inline bool operator<=(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ <= b.value_);
}
inline bool operator>(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ > b.value_);
}
inline bool operator>=(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ >= b.value_);
}

inline TpValue TpValue::cast_to(FpFormat target) const {
    assert(ctx_ != nullptr);
    const FlexFloatDyn result = value_.cast_to(target);
    const std::int32_t id = ctx_->emit_cast(format(), target, id_);
    ctx_->record_value(result.value(), target);
    return TpValue{ctx_, result, id};
}

// --- TpArray ---------------------------------------------------------------

inline TpArray::TpArray(TpContext* ctx, std::uint32_t stream, FpFormat format,
                        std::size_t n)
    : ctx_(ctx), stream_(stream), format_(format), data_(n, 0.0) {
    if (ctx_->sink_mode_) writers_.assign(n, -1);
}

inline double TpArray::raw(std::size_t i) const {
    assert(i < data_.size());
    if (ctx_->sink_mode_) {
        ctx_->taps_.push_back(
            OutputTap{data_[i], format_, writers_.empty() ? -1 : writers_[i]});
    }
    return data_[i];
}

inline TpValue TpArray::load(std::size_t i) {
    assert(i < data_.size());
    const std::int32_t id = ctx_->emit_load(stream_, format_);
    ctx_->record_value(data_[i], format_);
    // Backing-store values are already rounded to the element format
    // (set_raw / store), so the load skips the construction-time re-round.
    return TpValue{ctx_, FlexFloatDyn::from_rounded(data_[i], format_), id};
}

inline void TpArray::store(std::size_t i, const TpValue& value) {
    assert(i < data_.size());
    assert(value.format() == format_ &&
           "store requires the array's element format; cast explicitly");
    ctx_->emit_store(stream_, format_, value.id_);
    if (!writers_.empty()) writers_[i] = value.id_;
    data_[i] = value.value(); // already rounded to this format
}

} // namespace tp::sim
