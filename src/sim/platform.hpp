// The virtual platform: prices a traced execution through the pipeline
// model and the energy model, producing the quantities the paper's
// evaluation reports (cycles, memory accesses, energy split into FP
// operations / memory operations / other instructions).
//
// Both models are one CostModel, fed scalar instructions and SIMD groups in
// issue order. A run reaches it one of two ways, with bit-identical reports:
//   * streamed (sim::CostStream, sim/vectorize.hpp) — instructions are
//     priced while the kernel emits them, a small buffer at a time, and no
//     trace is stored; TpContext's cost mode and EvalEngine::report do this;
//   * replayed (simulate() below) — a stored TraceProgram, vectorized or
//     deliberately not, is walked once.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "fpu/energy_model.hpp"
#include "sim/trace.hpp"

namespace tp::sim {

/// Core-side modelling parameters.
struct CoreParams {
    /// Integer instructions spent computing the effective address of each
    /// data memory access (index scaling + base add on an RV32IMC-class
    /// core without post-increment addressing). A packed SIMD access pays
    /// this once, which is part of why vectorization shortens execution.
    int addr_ops_per_access = 2;
};

/// Energy split used throughout the paper's Fig. 7.
struct EnergyBreakdown {
    double fp_ops = 0.0;   // FPU arithmetic + conversions + operand moves
    double memory = 0.0;   // data memory accesses
    double other = 0.0;    // integer/branch instructions and stall cycles

    [[nodiscard]] double total() const noexcept { return fp_ops + memory + other; }

    /// Exact (bit-level) equality: simulation is deterministic, so two
    /// reports of one trace agree bit for bit and no tolerance belongs here.
    friend bool operator==(const EnergyBreakdown&, const EnergyBreakdown&) = default;
};

/// Per-format dynamic operation counts (Fig. 5's bars).
struct FormatActivity {
    std::uint64_t scalar_ops = 0;     // scalar FP arithmetic operations
    std::uint64_t vector_ops = 0;     // element ops retired in SIMD groups
    std::uint64_t vector_instrs = 0;  // SIMD instructions issued

    friend bool operator==(const FormatActivity&, const FormatActivity&) = default;
};

struct RunReport {
    std::uint64_t cycles = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t issue_slots = 0;

    std::uint64_t mem_accesses = 0;        // total accesses issued on the bus
    std::uint64_t mem_accesses_vector = 0; // of which packed/SIMD accesses
    std::uint64_t mem_bytes = 0;

    std::uint64_t fp_ops = 0;          // scalar FP arithmetic instructions
    std::uint64_t fp_simd_instrs = 0;  // SIMD FP instructions
    std::uint64_t fp_simd_lane_ops = 0;// element ops inside SIMD instructions
    std::uint64_t casts = 0;
    std::uint64_t cast_cycles = 0;
    std::uint64_t int_ops = 0;
    std::uint64_t addr_int_ops = 0; // implicit address-generation work
    std::uint64_t branches = 0;

    std::map<FpFormat, FormatActivity> per_format;

    EnergyBreakdown energy;

    void print(std::ostream& os) const;

    friend bool operator==(const RunReport&, const RunReport&) = default;
};

/// The pipeline model (rules in sim/pipeline.hpp) and the energy model in
/// one pass: each scalar instruction or SIMD group is issued against the
/// scoreboard and its energy added to the running sums, in the order given.
/// That order is the (rewritten) trace order, so the sums, and with them
/// every double in the report, do not depend on how the run was delivered.
///
/// Latencies, initiation intervals and energies come from fpu:: and the
/// EnergyModel, looked up once per format and run. The scoreboard is
/// indexed by SSA id and grows on demand; an id never written reads as
/// ready at cycle 0.
class CostModel {
public:
    /// Instructions a caller hands scalars() at a time: small enough that
    /// a batch stays in L1 between the caller's pass over it and the
    /// model's, large enough that per-batch work vanishes. TpContext's cost
    /// mode buffers this many before pricing them; simulate() replays
    /// scalar runs in batches of at most this many.
    static constexpr std::size_t kBatch = 256;

    CostModel(const fpu::EnergyModel& model, const CoreParams& core);

    /// Issues [first, last) one instruction per slot; simd_group is not
    /// read.
    void scalars(const Instr* first, const Instr* last);
    /// Issues one SIMD group in a single slot: its operands are the
    /// `count` adjacent members' sources and its results their
    /// destinations; kind, op, format, lanes and bytes come from `group`
    /// (its indices are not read).
    void group(const SimdGroup& group, const Instr* members, std::size_t count);

    /// Adds the drain (the last write-back ends the run) and the stall
    /// energy, and returns the report. Call once.
    [[nodiscard]] RunReport finish();

private:
    /// SIMD groups up to this many lanes are priced from FormatCost; wider
    /// ones (hand-built programs only) directly.
    static constexpr int kTabledLanes = 4;

    /// Per-run costs of FP arithmetic and casts in one format.
    struct FormatCost {
        FpFormat fmt = kNoFormat;
        std::array<std::int32_t, kFpOpCount> latency{};
        std::array<std::int32_t, kFpOpCount> interval{}; // 0 = pipelined
        std::array<double, kFpOpCount> energy{};         // scalar instruction
        /// Energy of a SIMD instruction, by op and lane count.
        std::array<std::array<double, kTabledLanes + 1>, kFpOpCount> simd_energy{};
        FpFormat cast_target = kNoFormat; // last cast target seen, and
        double cast_energy = 0.0;         // the energy of that cast
        FormatActivity activity;
    };

    /// Counters, scoreboard cursors and energy sums: copied into locals
    /// for each batch of instructions, so the step updates registers.
    struct Tally {
        std::int64_t next_free_slot = 0; // first cycle the issue stage is free
        std::int64_t fpu_busy_until = 0; // structural hazard for iterative ops
        std::uint64_t stall_cycles = 0;
        std::uint64_t issue_slots = 0;
        std::uint64_t mem_accesses = 0;
        std::uint64_t mem_accesses_vector = 0;
        std::uint64_t mem_bytes = 0;
        std::uint64_t fp_ops = 0;
        std::uint64_t fp_simd_instrs = 0;
        std::uint64_t fp_simd_lane_ops = 0;
        std::uint64_t casts = 0;
        std::uint64_t int_ops = 0;
        std::uint64_t branches = 0;
        double fp_energy = 0.0;
        double mem_energy = 0.0;
        double other_energy = 0.0;
    };

    FormatCost& cost_of(FpFormat fmt);
    std::size_t add_format(FpFormat fmt);
    [[nodiscard]] double simd_energy(FpOp op, FpFormat fmt, int lanes) const noexcept;
    void grow_scoreboard(std::size_t id);

    const fpu::EnergyModel& model_;
    CoreParams core_;
    std::int64_t cast_latency_;
    double addr_energy_;
    Tally tally_;
    std::vector<std::int64_t> ready_; // SSA id -> cycle its result is ready
    std::vector<FormatCost> formats_;
    /// Slot in formats_ keyed by the low bits of (exp_bits, mant_bits),
    /// which cover every valid format; a hit is confirmed before use.
    std::array<std::uint16_t, 1024> slot_hint_{};
};

/// Replays a stored program through the CostModel. The program must
/// already be vectorized (or deliberately not, for a scalar baseline).
[[nodiscard]] RunReport simulate(const TraceProgram& program,
                                 const fpu::EnergyModel& model =
                                     fpu::default_energy_model(),
                                 const CoreParams& core = CoreParams{});

} // namespace tp::sim
