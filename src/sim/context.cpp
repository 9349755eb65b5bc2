#include "sim/context.hpp"

#include <cmath>

#include "flexfloat/arith_backend.hpp"
#include "sim/vectorize.hpp"

namespace tp::sim {

namespace {

/// Plain binary64 evaluation for shadow captures: the op's exact IEEE
/// double result, no re-rounding to the (tag) format.
double shadow_eval(FpOp op, double a, double b) noexcept {
    switch (op) {
    case FpOp::Add: return a + b;
    case FpOp::Sub: return a - b;
    case FpOp::Mul: return a * b;
    case FpOp::Div: return a / b;
    case FpOp::Sqrt: return std::sqrt(a);
    case FpOp::Neg: return -a;
    case FpOp::Abs: return std::fabs(a);
    default: return a;
    }
}

/// One rounded op through the backend seam — or the unrounded binary64
/// result in shadow mode.
double routed(const TpContext* ctx, FpOp op, double a, double b,
              FpFormat format) noexcept {
    if (ctx->shadow()) return shadow_eval(op, a, b);
    return arith::arith(op, a, b, format);
}


void record_op(FpFormat format, FpOp op) noexcept {
    if (stats_enabled()) thread_stats().record_op(format, op);
}

} // namespace

// --- TpValue ---------------------------------------------------------------

TpValue TpValue::binary(FpOp op, const TpValue& a, const TpValue& b) {
    TpContext* ctx = a.ctx_ != nullptr ? a.ctx_ : b.ctx_;
    assert(ctx != nullptr && "TpValue arithmetic requires a live context");
    assert((a.ctx_ == nullptr || b.ctx_ == nullptr || a.ctx_ == b.ctx_) &&
           "operands belong to different contexts");
    assert(a.format() == b.format() &&
           "mixed-format arithmetic requires an explicit cast");
    const FpFormat fmt = a.format();
    record_op(fmt, op);
    const double r = routed(ctx, op, a.to_double(), b.to_double(), fmt);
    const std::int32_t id = ctx->emit_fp(op, fmt, a.id_, b.id_);
    ctx->record_value(id, r, fmt);
    return TpValue{ctx, TpContext::adopt(ctx, r, fmt), id};
}

TpValue TpValue::unary(FpOp op, const TpValue& a) {
    assert(a.ctx_ != nullptr);
    const FpFormat fmt = a.format();
    record_op(fmt, op);
    const double r = routed(a.ctx_, op, a.to_double(), a.to_double(), fmt);
    const std::int32_t id = a.ctx_->emit_fp(op, fmt, a.id_, -1);
    a.ctx_->record_value(id, r, fmt);
    return TpValue{a.ctx_, TpContext::adopt(a.ctx_, r, fmt), id};
}

bool TpValue::compare(const TpValue& a, const TpValue& b, bool result) {
    TpContext* ctx = a.ctx_ != nullptr ? a.ctx_ : b.ctx_;
    assert(ctx != nullptr);
    ctx->emit_cmp(a.format(), a.id_, b.id_);
    return result;
}

TpValue operator+(const TpValue& a, const TpValue& b) {
    return TpValue::binary(FpOp::Add, a, b);
}
TpValue operator-(const TpValue& a, const TpValue& b) {
    return TpValue::binary(FpOp::Sub, a, b);
}
TpValue operator*(const TpValue& a, const TpValue& b) {
    return TpValue::binary(FpOp::Mul, a, b);
}
TpValue operator/(const TpValue& a, const TpValue& b) {
    return TpValue::binary(FpOp::Div, a, b);
}
TpValue operator-(const TpValue& a) {
    return TpValue::unary(FpOp::Neg, a);
}
TpValue sqrt(const TpValue& a) {
    return TpValue::unary(FpOp::Sqrt, a);
}
TpValue abs(const TpValue& a) {
    return TpValue::unary(FpOp::Abs, a);
}
TpValue TpValue::ternary(FpOp op, const TpValue& a, const TpValue& b,
                         const TpValue& c) {
    TpContext* ctx =
        a.ctx_ != nullptr ? a.ctx_ : (b.ctx_ != nullptr ? b.ctx_ : c.ctx_);
    assert(ctx != nullptr && "TpValue fma requires a live context");
    assert(a.format() == b.format() && b.format() == c.format() &&
           "mixed-format fma requires explicit casts");
    const FpFormat fmt = a.format();
    record_op(fmt, op);
    const double r =
        ctx->shadow()
            ? std::fma(a.to_double(), b.to_double(), c.to_double())
            : arith::fma(a.to_double(), b.to_double(), c.to_double(), fmt);
    const std::int32_t id = ctx->emit_fp(op, fmt, a.id_, b.id_, c.id_);
    ctx->record_value(id, r, fmt);
    return TpValue{ctx, TpContext::adopt(ctx, r, fmt), id};
}

TpValue fma(const TpValue& a, const TpValue& b, const TpValue& c) {
    return TpValue::ternary(FpOp::Fma, a, b, c);
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
    if (stats_enabled()) thread_stats().record_cast(format(), target);
    const double r = ctx_->shadow()
                         ? to_double() // tags change, the value never rounds
                         : arith::cast(to_double(), target);
    const std::int32_t id = ctx_->emit_cast(format(), target, id_);
    ctx_->record_value(id, r, target);
    return TpValue{ctx_, TpContext::adopt(ctx_, r, target), id};
}

// --- TpArray ---------------------------------------------------------------

TpValue TpArray::load(std::size_t i) {
    assert(i < data_.size());
    const std::int32_t id = ctx_->emit_load(stream_, format_);
    ctx_->record_value(id, data_[i], format_);
    // Backing-store values are already quantized to the element format
    // (set_raw / store), so the load skips the construction-time re-round.
    return TpValue{ctx_, TpContext::adopt(ctx_, data_[i], format_), id};
}

void TpArray::store(std::size_t i, const TpValue& value) {
    assert(i < data_.size());
    assert(value.format() == format_ &&
           "store requires the array's element format; cast explicitly");
    ctx_->emit_store(stream_, format_, value.id_);
    if (!writers_.empty()) writers_[i] = value.id_;
    data_[i] = value.to_double(); // already sanitized to this format
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
    const double raw = static_cast<double>(value);
    const double r = config_.binary64_shadow ? raw : arith::cast(raw, format);
    record_value(instr.dst, r, format);
    return TpValue{this, TpContext::adopt(this, r, format), instr.dst};
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
