// Dynamic instruction trace of a transprecision program.
//
// The PULPino virtual platform the paper uses is cycle accurate and reports
// per-instruction cycle counts. This reproduction gets the same quantities
// by executing the real kernels (with real FlexFloat arithmetic) while
// emitting a typed instruction stream, and pricing it on an in-order
// pipeline model with true data dependencies (sim/pipeline.hpp) that
// integrates energy as it goes (sim/platform.hpp). The stream is priced as
// it is emitted (sim::CostStream) or stored as a TraceProgram and replayed
// (sim::simulate); both give the same report. A third consumer, a
// TraceSink, receives the stream together with the value every id takes
// (the static analysis' shadow run).
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "flexfloat/stats.hpp"
#include "types/format.hpp"

namespace tp::sim {

enum class InstrKind : std::uint8_t {
    IntAlu,  // integer ALU / address generation
    Branch,  // control flow (one delay slot modelled as a stall)
    Load,    // data memory read
    Store,   // data memory write
    FpArith, // FP operation executed on the transprecision FPU
    FpCast,  // FP<->FP or FP<->int conversion (single cycle)
};

/// One dynamic instruction. `dst`/`src1`/`src2` are SSA-style value ids
/// assigned by the tracing context (-1 when absent); the pipeline model
/// uses them to reproduce data-dependency stalls.
struct Instr {
    InstrKind kind = InstrKind::IntAlu;
    FpOp op = FpOp::Add;     // valid for FpArith
    FpFormat fmt{8, 23};     // operand format (FpArith/FpCast/Load/Store)
    /// Cast target format — meaningful for FpCast only, where the tracing
    /// context always fills it; everywhere else it stays kNoFormat, so a
    /// consumer that forgets to check kind (or has_cast_target()) reads an
    /// invalid format instead of silently misreading an arithmetic
    /// instruction as a binary32 cast.
    FpFormat fmt2 = kNoFormat;
    std::uint8_t bytes = 0;  // access width for Load/Store
    bool vectorizable = false; // emitted inside a tagged vector region
    std::uint32_t simd_group = 0; // 0 = scalar, else 1-based group id
    std::uint32_t stream = 0;     // array id, for grouping memory accesses
    std::int32_t dst = -1;
    std::int32_t src1 = -1;
    std::int32_t src2 = -1;
    std::int32_t src3 = -1; // third operand (fused multiply-add)

    [[nodiscard]] constexpr bool has_cast_target() const noexcept {
        return fmt2.valid();
    }
};

// Every emitted instruction is copied by value, 32 bytes at a time: into a
// cost buffer or a stored trace, through the vectorize window's buckets,
// and by the in-place rewrite of a stored trace. Guard both properties.
static_assert(sizeof(Instr) == 32, "Instr layout changed: 32 bytes expected");
static_assert(std::is_trivially_copyable_v<Instr>);

using Trace = std::vector<Instr>;

/// A SIMD group created by the vectorization pass: `lanes` element
/// operations retired by a single instruction slot. Member instructions are
/// adjacent in the rewritten trace, at indices first_index..last_index; the
/// group issues at `last_index`. (A streamed group is handed to the cost
/// model with its members and has no trace indices.)
struct SimdGroup {
    std::size_t first_index = 0; // trace index of the first member
    std::size_t last_index = 0;  // trace index at which the group issues
    int lanes = 0;
    int bytes = 0; // total access width for packed Load/Store groups
    InstrKind kind = InstrKind::FpArith;
    FpOp op = FpOp::Add;
    FpFormat fmt{8, 23};
};

/// The concrete value an SSA id took in a traced execution, plus the
/// format it was created in. A sink-mode context (TraceSink) hands one out
/// per id, in id order.
struct ValueRecord {
    double value = 0.0;
    FpFormat fmt = kNoFormat;
};

/// One program-output element read through TpArray::raw() in a sink-mode
/// run: the producing value id (-1 when the element was written by set_raw
/// only and never stored), the element format of the array it was read
/// from, and the value itself. The static analysis inverts its per-value
/// error model at exactly these taps.
struct OutputTap {
    double value = 0.0;
    FpFormat fmt = kNoFormat;
    std::int32_t value_id = -1;
};

/// Receives a traced run while the kernel executes it (TpContext's sink
/// mode), which stores no trace: every instruction in emission order, the
/// record of every value id, and every raw() readout. The static
/// analysis' shadow run folds its passes in one (analysis/error_model.hpp).
class TraceSink {
public:
    virtual ~TraceSink() = default;

    /// The run's next stretch: its instructions; the records of the ids
    /// assigned in it, in id order — those `instrs` define, and constants,
    /// which emit no instruction; and its raw() readouts, in call order.
    /// Ids are dense from 0; every id an instruction reads, and every id a
    /// readout names, arrives in this call or before.
    virtual void feed(std::span<const Instr> instrs,
                      std::span<const ValueRecord> values,
                      std::span<const OutputTap> taps) = 0;
};

/// A complete stored execution: the instruction stream, the SIMD groups
/// annotated by vectorize(), and the number of value ids in use.
struct TraceProgram {
    Trace instrs;
    std::vector<SimdGroup> groups;
    std::size_t value_count = 0;
};

} // namespace tp::sim
