// The virtual platform: replays a traced execution through the pipeline
// model and integrates the energy model over it, producing the quantities
// the paper's evaluation reports (cycles, memory accesses, energy split
// into FP operations / memory operations / other instructions).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>

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

/// Runs the pipeline and energy models over `program`.
/// The program must already be vectorized (or deliberately not, for a
/// scalar baseline).
[[nodiscard]] RunReport simulate(const TraceProgram& program,
                                 const fpu::EnergyModel& model =
                                     fpu::default_energy_model(),
                                 const CoreParams& core = CoreParams{});

} // namespace tp::sim
