// In-order single-issue pipeline model with a register scoreboard.
//
// Models the PULPino/RI5CY-class core the paper measures on:
//   * one instruction issues per cycle;
//   * FP operations have the latencies of the transprecision FPU
//     (2 cycles pipelined for 32/16-bit, 1 cycle for binary8 and casts;
//     iterative div/sqrt block the unit);
//   * a consumer stalls until its producer's result is ready — this is
//     where the paper's observation lives that binary16/32 latency cycles
//     may or may not be hidden depending on how well the compiler can
//     schedule independent work between producer and consumer;
//   * loads hit a single-cycle scratchpad (TCDM), taken branches pay one
//     bubble;
//   * a SIMD group retires its lanes in a single issue slot.
//
// These rules live in sim::CostModel (sim/platform.hpp), beside the energy
// rules, so that a streamed run and a replayed program are timed by the
// same code.
#pragma once

#include <cstdint>

#include "sim/trace.hpp"

namespace tp::sim {

struct PipelineResult {
    std::uint64_t cycles = 0;       // total execution cycles
    std::uint64_t stall_cycles = 0; // cycles lost to dependency/structural stalls
    std::uint64_t issue_slots = 0;  // instructions actually issued (groups = 1)
};

/// Replays the (possibly vectorized) program through sim::CostModel and
/// returns its timing fields. Each memory access (scalar or packed group)
/// additionally occupies `addr_ops_per_access` integer issue slots for
/// address generation.
[[nodiscard]] PipelineResult run_pipeline(const TraceProgram& program,
                                          int addr_ops_per_access = 2);

} // namespace tp::sim
