#include "sim/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "fpu/latency_model.hpp"

namespace tp::sim {
namespace {

/// Result latency of a scalar instruction.
int latency_of(const Instr& instr) noexcept {
    switch (instr.kind) {
    case InstrKind::IntAlu: return 1;
    case InstrKind::Branch: return 1;
    case InstrKind::Load: return 1; // single-cycle TCDM
    case InstrKind::Store: return 1;
    case InstrKind::FpArith: return fpu::latency_cycles(instr.op, instr.fmt);
    case InstrKind::FpCast: return fpu::cast_latency_cycles();
    }
    return 1;
}

} // namespace

PipelineResult run_pipeline(const TraceProgram& program, int addr_ops_per_access) {
    PipelineResult result;
    std::vector<std::int64_t> ready(program.value_count, 0);
    std::int64_t next_free_slot = 0; // first cycle the issue stage is free
    std::int64_t fpu_busy_until = 0; // structural hazard for iterative ops

    auto ready_of = [&](std::int32_t id) -> std::int64_t {
        if (id < 0) return 0;
        assert(static_cast<std::size_t>(id) < ready.size());
        return ready[static_cast<std::size_t>(id)];
    };

    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        const Instr& instr = program.instrs[i];

        if (instr.simd_group != 0) {
            const SimdGroup& group = program.groups[instr.simd_group - 1];
            if (group.last_index != i) continue; // issues with its last member
            if (group.kind == InstrKind::Load || group.kind == InstrKind::Store) {
                // Address generation for the single packed access.
                next_free_slot += addr_ops_per_access;
                result.issue_slots += static_cast<std::uint64_t>(addr_ops_per_access);
            }
            // Members are adjacent and never consume each other, so every
            // source is read before any member's result is booked.
            std::int64_t issue = next_free_slot;
            for (std::size_t m = group.first_index; m <= i; ++m) {
                const Instr& member = program.instrs[m];
                issue = std::max(issue, ready_of(member.src1));
                issue = std::max(issue, ready_of(member.src2));
                issue = std::max(issue, ready_of(member.src3));
            }
            result.stall_cycles +=
                static_cast<std::uint64_t>(issue - next_free_slot);
            int lat = 1;
            if (group.kind == InstrKind::FpArith) {
                lat = fpu::latency_cycles(group.op, group.fmt);
            }
            for (std::size_t m = group.first_index; m <= i; ++m) {
                const std::int32_t dst = program.instrs[m].dst;
                if (dst >= 0) ready[static_cast<std::size_t>(dst)] = issue + lat;
            }
            next_free_slot = issue + 1;
            ++result.issue_slots;
            continue;
        }

        if (instr.kind == InstrKind::Load || instr.kind == InstrKind::Store) {
            // Address generation precedes the access itself; these integer
            // slots also help hide FP latencies of earlier instructions.
            next_free_slot += addr_ops_per_access;
            result.issue_slots += static_cast<std::uint64_t>(addr_ops_per_access);
        }
        std::int64_t issue = next_free_slot;
        issue = std::max(issue, ready_of(instr.src1));
        issue = std::max(issue, ready_of(instr.src2));
        issue = std::max(issue, ready_of(instr.src3));
        if (instr.kind == InstrKind::FpArith &&
            !fpu::is_pipelined(instr.op, instr.fmt)) {
            issue = std::max(issue, fpu_busy_until);
        }
        result.stall_cycles += static_cast<std::uint64_t>(issue - next_free_slot);

        const int lat = latency_of(instr);
        if (instr.dst >= 0) {
            ready[static_cast<std::size_t>(instr.dst)] = issue + lat;
        }
        if (instr.kind == InstrKind::FpArith &&
            !fpu::is_pipelined(instr.op, instr.fmt)) {
            fpu_busy_until = issue + fpu::initiation_interval(instr.op, instr.fmt);
        }

        next_free_slot = issue + 1;
        if (instr.kind == InstrKind::Branch) {
            // Taken-branch bubble: the fetch stage loses one slot.
            ++next_free_slot;
            ++result.stall_cycles;
        }
        ++result.issue_slots;
    }

    // Drain: the last write-back defines total cycles.
    std::int64_t end = next_free_slot;
    for (std::int64_t r : ready) end = std::max(end, r);
    result.cycles = static_cast<std::uint64_t>(end);
    return result;
}

} // namespace tp::sim
