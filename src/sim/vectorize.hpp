// Sub-word SIMD packing pass.
//
// FlexFloat itself does not vectorize (paper, Section V-A): vectorizable
// program sections are tagged manually in the source, and the toolchain is
// assumed to emit SIMD instructions for them. This pass models that step:
// within tagged regions it groups element operations of the same kind and
// format into SIMD groups of 32/width lanes (two 16-bit or four 8-bit
// lanes), and groups narrow memory accesses to the same array into packed
// 32-bit accesses. 32-bit operations are never grouped — the unit has a
// single 32-bit slice.
//
// The pass is a window over the instruction stream that emits scalars and
// groups in their rewritten order. It has two consumers: vectorize()
// writes them back into a stored program, and CostStream hands them to the
// platform's cost model while the kernel is still emitting.
#pragma once

#include <memory>
#include <span>

#include "sim/platform.hpp"
#include "sim/trace.hpp"

namespace tp::sim {

/// Annotates `program` with SIMD groups, rewriting `program.instrs` in
/// place (same length, members of a group moved next to each other).
/// Instructions that join a group get a non-zero simd_group id; the group
/// issues at the trace index of its last member.
///
/// The pass sees only the per-instruction `vectorizable` tag, not region
/// boundaries. Open groups close at the next non-vectorizable FP or memory
/// instruction, or when a member's producer or consumer forces them out;
/// integer and branch instructions pass through, so two regions separated
/// only by loop plumbing can share a group. A closed group of two or more
/// members becomes a SIMD group even when partially filled (the unit
/// silences the unused lanes); a lone member stays scalar.
///
/// TpContext::take_program(true) skips the pass on a trace with no
/// vectorizable instruction, where it would change nothing.
void vectorize(TraceProgram& program);

/// Lanes a format's width allows in a 32-bit datapath (1, 2 or 4).
[[nodiscard]] int simd_lanes_for(FpFormat format) noexcept;

/// Prices one execution while it is emitted, storing no trace: the
/// instructions, fed in emission order in pieces of any length, pass
/// through the vectorize window (when `simd`) into a CostModel. finish()
/// returns, bit for bit, the report simulate() gives for the same
/// instructions stored, vectorized when `simd`, and replayed: the window
/// hands the model scalars and groups in the rewritten trace's order.
///
/// A piece with no vectorizable instruction, fed while no group is open,
/// goes straight to the model: the window would pass it through unchanged.
/// TpContext's cost mode feeds it one buffer at a time, as its TraceSink.
class CostStream final : public TraceSink {
public:
    /// Prices on the default energy model and core parameters, as
    /// simulate() does by default.
    explicit CostStream(bool simd);
    ~CostStream() override;
    CostStream(const CostStream&) = delete;
    CostStream& operator=(const CostStream&) = delete;

    [[nodiscard]] bool simd() const noexcept { return window_ != nullptr; }

    /// Prices the next instructions of the run.
    void feed(std::span<const Instr> instrs);
    /// TraceSink: prices `instrs`; value records and readouts cost nothing.
    void feed(std::span<const Instr> instrs,
              std::span<const ValueRecord> /*values*/,
              std::span<const OutputTap> /*taps*/) override {
        feed(instrs);
    }

    /// Closes the open groups and returns the run's report. Call once.
    [[nodiscard]] RunReport finish();

private:
    class Window;
    CostModel model_;
    std::unique_ptr<Window> window_; // null without simd
};

} // namespace tp::sim
