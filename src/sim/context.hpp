// Transprecision execution context: the tracing instantiation of the
// benchmark kernels.
//
// Every application kernel is written once, as a template over its
// execution context (apps/app.hpp), and instantiated twice:
//
//   * on TpContext — values are TpValue handles (a FlexFloatDyn plus an
//     SSA id) and TpArray storage. Each arithmetic operation and cast
//     computes through the matching FlexFloatDyn op and is then recorded,
//     with every load and store, into the instruction trace the virtual
//     platform replays. A TpContext always traces.
//   * on sim::PlainContext (sim/plain_context.hpp) — plain FlexFloatDyn
//     values that only compute: the fast re-runnable binary the
//     precision-tuning loop needs.
//
// Rounding lives in tp::arith alone, so the backend overrides reach both
// instantiations; under arith::ScopedBinary64 (the static analysis' shadow
// run, analysis::capture_trace) every value stays unrounded binary64 and
// the recorded formats are pure dataflow tags.
//
// apps::App::run picks the instantiation from Config::trace, so callers
// select untraced execution by passing an untraced TpContext to App::run;
// calling TpValue operations directly on one is a program bug (asserted).
//
// Formats are per-value (per variable group in the applications), so one
// kernel source serves the binary32 baseline, every tuning trial, and the
// final mixed-format configuration — exactly the property FlexFloat's
// template class gives the paper's programs, transplanted to runtime
// formats.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "flexfloat/arith_backend.hpp"
#include "flexfloat/flexfloat_dyn.hpp"
#include "flexfloat/stats.hpp"
#include "sim/trace.hpp"
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
    /// Readout without instruction emission. Under a record_values capture
    /// each read is additionally recorded as an output tap (the element's
    /// last-stored value id, format and value) — the anchor points the
    /// static analysis inverts its error model at. Defined after TpContext.
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
    /// allocated only under record_values captures, else empty.
    std::vector<std::int32_t> writers_;
};

class TpContext {
public:
    struct Config {
        /// false: apps::App::run executes the kernel's plain (untraced)
        /// instantiation instead of tracing on this context (fast tuning
        /// runs). The context itself always traces.
        bool trace = true;
        /// Record the concrete value (and creation format) of every SSA id
        /// into TraceProgram::values, and every TpArray::raw() readout into
        /// TraceProgram::output_taps. Requires trace — the records are
        /// keyed by the ids the trace assigns. Static-analysis captures
        /// (src/analysis/) are the only intended user.
        bool record_values = false;
    };

    TpContext() : TpContext(Config{}) {}
    explicit TpContext(Config config) : config_(config) {
        assert((!config_.record_values || config_.trace) &&
               "record_values keys value records by trace-assigned ids");
    }
    TpContext(const TpContext&) = delete;
    TpContext& operator=(const TpContext&) = delete;

    // The kernel-facing value and array types (see sim::PlainContext).
    using Value = TpValue;
    using Array = TpArray;

    /// A register-resident constant: no instruction is emitted (the value
    /// is materialized once outside the measured kernel, like FP literals
    /// kept in registers by the compiler), but the id IS recorded under
    /// record_values — constants are the leaves of the dataflow graph.
    [[nodiscard]] TpValue constant(double value, FpFormat format) {
        const FlexFloatDyn ff{value, format};
        const std::int32_t id = next_id();
        record_value(id, ff.value(), format);
        return TpValue{this, ff, id};
    }

    /// Integer -> FP conversion instruction (e.g. loop index entering the
    /// FP dataflow).
    [[nodiscard]] TpValue from_int(std::int64_t value, FpFormat format);

    /// Array backed by the simulated data memory.
    [[nodiscard]] TpArray make_array(FpFormat format, std::size_t n) {
        return TpArray{this, next_stream_++, format, n};
    }

    /// Integer ALU work (index arithmetic, address generation, selects).
    void int_ops(int n = 1);
    /// Control transfer; pays a pipeline bubble when simulated.
    void branch(int n = 1);
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
    [[nodiscard]] bool recording() const noexcept {
        return config_.record_values;
    }

    /// Hands the recorded trace out (and resets the context's trace state).
    /// `apply_simd` runs the vectorization pass, modelling the SIMD-enabled
    /// toolchain; pass false for the scalar baseline. A trace that never
    /// entered a vector region has nothing to pack, and skips the pass.
    [[nodiscard]] TraceProgram take_program(bool apply_simd);

private:
    friend class TpValue;
    friend class TpArray;

    std::int32_t next_id() noexcept {
        return static_cast<std::int32_t>(value_count_++);
    }

    /// Appends a captured instruction, noting whether any was vectorizable.
    void push(const Instr& instr) {
        assert(config_.trace &&
               "an untraced TpContext only selects App::run's plain kernel");
        any_vectorizable_ = any_vectorizable_ || instr.vectorizable;
        trace_.push_back(instr);
    }

    std::int32_t emit_fp(FpOp op, FpFormat fmt, std::int32_t src1,
                         std::int32_t src2, std::int32_t src3 = -1);
    void emit_cmp(FpFormat fmt, std::int32_t src1, std::int32_t src2);
    std::int32_t emit_cast(FpFormat from, FpFormat to, std::int32_t src);
    std::int32_t emit_load(std::uint32_t stream, FpFormat fmt);
    void emit_store(std::uint32_t stream, FpFormat fmt, std::int32_t src);

    /// Books the concrete value an id took (record_values captures only).
    /// Ids are dense and assigned in creation order, so the records vector
    /// stays aligned with them by construction.
    void record_value(std::int32_t id, double value, FpFormat fmt) {
        if (!config_.record_values || id < 0) return;
        assert(static_cast<std::size_t>(id) == values_.size() &&
               "value records must track id assignment 1:1");
        values_.push_back(ValueRecord{value, fmt});
    }

    void note_output_tap(FpFormat fmt, std::int32_t value_id, double value) {
        taps_.push_back(OutputTap{value, fmt, value_id});
    }

    Config config_;
    Trace trace_;
    bool any_vectorizable_ = false; // trace_ holds a vectorizable instruction
    std::size_t value_count_ = 0;
    std::uint32_t next_stream_ = 1;
    std::vector<ValueRecord> values_;
    std::vector<OutputTap> taps_;
};

inline TpArray::TpArray(TpContext* ctx, std::uint32_t stream, FpFormat format,
                        std::size_t n)
    : ctx_(ctx), stream_(stream), format_(format), data_(n, 0.0) {
    if (ctx_->recording()) writers_.assign(n, -1);
}

inline double TpArray::raw(std::size_t i) const {
    assert(i < data_.size());
    if (ctx_->recording()) {
        ctx_->note_output_tap(format_, writers_.empty() ? -1 : writers_[i],
                              data_[i]);
    }
    return data_[i];
}

} // namespace tp::sim
