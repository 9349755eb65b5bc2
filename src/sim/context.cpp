#include "sim/context.hpp"

#include "sim/vectorize.hpp"

namespace tp::sim {

// --- TpValue ---------------------------------------------------------------

TpValue TpValue::emit(FpOp op, FlexFloatDyn result, const TpValue& a,
                      const TpValue& b, const TpValue& c) {
    TpContext* ctx =
        a.ctx_ != nullptr ? a.ctx_ : (b.ctx_ != nullptr ? b.ctx_ : c.ctx_);
    assert(ctx != nullptr && "TpValue arithmetic requires a live context");
    assert((b.ctx_ == nullptr || b.ctx_ == ctx) &&
           (c.ctx_ == nullptr || c.ctx_ == ctx) &&
           "operands belong to different contexts");
    const std::int32_t id = ctx->emit_fp(op, result.format(), a.id_, b.id_, c.id_);
    ctx->record_value(id, result.value(), result.format());
    return TpValue{ctx, result, id};
}

bool TpValue::compare(const TpValue& a, const TpValue& b, bool result) {
    TpContext* ctx = a.ctx_ != nullptr ? a.ctx_ : b.ctx_;
    assert(ctx != nullptr);
    ctx->emit_cmp(a.format(), a.id_, b.id_);
    return result;
}

TpValue operator+(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Add, a.value_ + b.value_, a, b);
}
TpValue operator-(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Sub, a.value_ - b.value_, a, b);
}
TpValue operator*(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Mul, a.value_ * b.value_, a, b);
}
TpValue operator/(const TpValue& a, const TpValue& b) {
    return TpValue::emit(FpOp::Div, a.value_ / b.value_, a, b);
}
TpValue operator-(const TpValue& a) {
    return TpValue::emit(FpOp::Neg, -a.value_, a);
}
TpValue sqrt(const TpValue& a) {
    return TpValue::emit(FpOp::Sqrt, sqrt(a.value_), a);
}
TpValue abs(const TpValue& a) {
    return TpValue::emit(FpOp::Abs, abs(a.value_), a);
}
TpValue fma(const TpValue& a, const TpValue& b, const TpValue& c) {
    return TpValue::emit(FpOp::Fma, fma(a.value_, b.value_, c.value_), a, b, c);
}

bool operator<(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ < b.value_);
}
bool operator<=(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ <= b.value_);
}
bool operator>(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ > b.value_);
}
bool operator>=(const TpValue& a, const TpValue& b) {
    return TpValue::compare(a, b, a.value_ >= b.value_);
}

TpValue TpValue::cast_to(FpFormat target) const {
    assert(ctx_ != nullptr);
    const FlexFloatDyn result = value_.cast_to(target);
    const std::int32_t id = ctx_->emit_cast(format(), target, id_);
    ctx_->record_value(id, result.value(), target);
    return TpValue{ctx_, result, id};
}

// --- TpArray ---------------------------------------------------------------

TpValue TpArray::load(std::size_t i) {
    assert(i < data_.size());
    const std::int32_t id = ctx_->emit_load(stream_, format_);
    ctx_->record_value(id, data_[i], format_);
    // Backing-store values are already rounded to the element format
    // (set_raw / store), so the load skips the construction-time re-round.
    return TpValue{ctx_, FlexFloatDyn::from_rounded(data_[i], format_), id};
}

void TpArray::store(std::size_t i, const TpValue& value) {
    assert(i < data_.size());
    assert(value.format() == format_ &&
           "store requires the array's element format; cast explicitly");
    ctx_->emit_store(stream_, format_, value.id_);
    if (!writers_.empty()) writers_[i] = value.id_;
    data_[i] = value.value(); // already rounded to this format
}

// --- TpContext -------------------------------------------------------------

TpValue TpContext::from_int(std::int64_t value, FpFormat format) {
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
    record_value(instr.dst, result.value(), format);
    return TpValue{this, result, instr.dst};
}

void TpContext::int_ops(int n) {
    for (int i = 0; i < n; ++i) {
        Instr instr;
        instr.kind = InstrKind::IntAlu;
        push(instr);
    }
}

void TpContext::branch(int n) {
    for (int i = 0; i < n; ++i) {
        Instr instr;
        instr.kind = InstrKind::Branch;
        push(instr);
    }
}

std::int32_t TpContext::emit_fp(FpOp op, FpFormat fmt, std::int32_t src1,
                                std::int32_t src2, std::int32_t src3) {
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

void TpContext::emit_cmp(FpFormat fmt, std::int32_t src1, std::int32_t src2) {
    Instr instr;
    instr.kind = InstrKind::FpArith;
    instr.op = FpOp::Cmp;
    instr.fmt = fmt;
    instr.vectorizable = false; // compares feed control flow, never SIMD
    instr.src1 = src1;
    instr.src2 = src2;
    push(instr);
}

std::int32_t TpContext::emit_cast(FpFormat from, FpFormat to, std::int32_t src) {
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

std::int32_t TpContext::emit_load(std::uint32_t stream, FpFormat fmt) {
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

void TpContext::emit_store(std::uint32_t stream, FpFormat fmt, std::int32_t src) {
    Instr instr;
    instr.kind = InstrKind::Store;
    instr.fmt = fmt;
    instr.bytes = static_cast<std::uint8_t>(fmt.storage_bytes());
    instr.stream = stream;
    instr.vectorizable = in_vector_region();
    instr.src1 = src;
    push(instr);
}

TraceProgram TpContext::take_program(bool apply_simd) {
    TraceProgram program;
    program.instrs = std::move(trace_);
    program.value_count = value_count_;
    program.values = std::move(values_);
    program.output_taps = std::move(taps_);
    trace_ = Trace{};
    values_.clear();
    taps_.clear();
    value_count_ = 0;
    // With no vectorizable instruction the pass would copy the trace
    // unchanged, so only traces that entered a vector region run it.
    if (apply_simd && any_vectorizable_) vectorize(program);
    any_vectorizable_ = false;
    return program;
}

} // namespace tp::sim
