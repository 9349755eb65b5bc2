#include "sim/platform.hpp"

#include <ostream>

#include "fpu/latency_model.hpp"
#include "sim/pipeline.hpp"

namespace tp::sim {

RunReport simulate(const TraceProgram& program, const fpu::EnergyModel& model,
                   const CoreParams& core) {
    RunReport report;

    const PipelineResult timing =
        run_pipeline(program, core.addr_ops_per_access);
    report.cycles = timing.cycles;
    report.stall_cycles = timing.stall_cycles;
    report.issue_slots = timing.issue_slots;

    const auto addr_ops = static_cast<std::uint64_t>(core.addr_ops_per_access);
    const double addr_energy = core.addr_ops_per_access * model.int_op;

    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        const Instr& instr = program.instrs[i];

        if (instr.simd_group != 0) {
            const SimdGroup& group = program.groups[instr.simd_group - 1];
            if (group.last_index != i) continue; // account once per group
            switch (group.kind) {
            case InstrKind::FpArith: {
                ++report.fp_simd_instrs;
                report.fp_simd_lane_ops += static_cast<std::uint64_t>(group.lanes);
                auto& activity = report.per_format[group.fmt];
                activity.vector_ops += static_cast<std::uint64_t>(group.lanes);
                ++activity.vector_instrs;
                report.energy.fp_ops +=
                    model.fp_op_simd(group.op, group.fmt, group.lanes) +
                    model.idle_slice *
                        fpu::EnergyModel::idle_slices(group.fmt, group.lanes) +
                    model.fpu_reg_move;
                break;
            }
            case InstrKind::Load:
            case InstrKind::Store: {
                ++report.mem_accesses;
                ++report.mem_accesses_vector;
                report.mem_bytes += static_cast<std::uint64_t>(group.bytes);
                report.energy.memory += model.mem_access(group.bytes);
                report.addr_int_ops += addr_ops;
                report.energy.other += addr_energy;
                break;
            }
            default: break;
            }
            continue;
        }

        switch (instr.kind) {
        case InstrKind::IntAlu:
            ++report.int_ops;
            report.energy.other += model.int_op;
            break;
        case InstrKind::Branch:
            ++report.branches;
            report.energy.other += model.branch_op;
            break;
        case InstrKind::Load:
        case InstrKind::Store:
            ++report.mem_accesses;
            report.mem_bytes += instr.bytes;
            report.energy.memory += model.mem_access(instr.bytes);
            report.addr_int_ops += addr_ops;
            report.energy.other += addr_energy;
            break;
        case InstrKind::FpArith: {
            ++report.fp_ops;
            auto& activity = report.per_format[instr.fmt];
            ++activity.scalar_ops;
            report.energy.fp_ops +=
                model.fp_op(instr.op, instr.fmt) +
                model.idle_slice * fpu::EnergyModel::idle_slices(instr.fmt, 1) +
                model.fpu_reg_move;
            break;
        }
        case InstrKind::FpCast:
            ++report.casts;
            report.cast_cycles +=
                static_cast<std::uint64_t>(fpu::cast_latency_cycles());
            report.energy.fp_ops += model.cast(instr.fmt, instr.fmt2);
            break;
        }
    }

    report.energy.other += model.stall_cycle * static_cast<double>(report.stall_cycles);
    return report;
}

void RunReport::print(std::ostream& os) const {
    os << "cycles=" << cycles << " (stalls=" << stall_cycles << ")"
       << " mem_accesses=" << mem_accesses << " (vector=" << mem_accesses_vector
       << ")"
       << " fp_scalar=" << fp_ops << " fp_simd_instrs=" << fp_simd_instrs
       << " casts=" << casts << " int=" << int_ops << " branches=" << branches
       << "\nenergy[pJ]: fp=" << energy.fp_ops << " mem=" << energy.memory
       << " other=" << energy.other << " total=" << energy.total() << '\n';
}

} // namespace tp::sim
