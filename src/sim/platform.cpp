#include "sim/platform.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "fpu/latency_model.hpp"

namespace tp::sim {
namespace {

[[nodiscard]] bool is_memory(InstrKind kind) noexcept {
    return kind == InstrKind::Load || kind == InstrKind::Store;
}

} // namespace

CostModel::CostModel(const fpu::EnergyModel& model, const CoreParams& core)
    : model_(model),
      core_(core),
      cast_latency_(fpu::cast_latency_cycles()),
      addr_energy_(core.addr_ops_per_access * model.int_op) {}

CostModel::FormatCost& CostModel::cost_of(FpFormat fmt) {
    std::uint16_t& hint =
        slot_hint_[((fmt.exp_bits & 0xFu) << 6) | (fmt.mant_bits & 0x3Fu)];
    if (hint >= formats_.size() || !(formats_[hint].fmt == fmt)) {
        hint = static_cast<std::uint16_t>(add_format(fmt));
    }
    return formats_[hint];
}

std::size_t CostModel::add_format(FpFormat fmt) {
    // A format outside the hint table's range can collide with another.
    for (std::size_t s = 0; s < formats_.size(); ++s) {
        if (formats_[s].fmt == fmt) return s;
    }
    FormatCost cost;
    cost.fmt = fmt;
    for (std::size_t i = 0; i < kFpOpCount; ++i) {
        const auto op = static_cast<FpOp>(i);
        cost.latency[i] = fpu::latency_cycles(op, fmt);
        cost.interval[i] =
            fpu::is_pipelined(op, fmt) ? 0 : fpu::initiation_interval(op, fmt);
        assert((fpu::is_pipelined(op, fmt) || cost.interval[i] > 0) &&
               "interval 0 marks a pipelined op");
        cost.energy[i] = model_.fp_op(op, fmt) +
                         model_.idle_slice * fpu::EnergyModel::idle_slices(fmt, 1) +
                         model_.fpu_reg_move;
        for (int lanes = 0; lanes <= kTabledLanes; ++lanes) {
            cost.simd_energy[i][static_cast<std::size_t>(lanes)] =
                simd_energy(op, fmt, lanes);
        }
    }
    cost.cast_energy = model_.cast(fmt, cost.cast_target);
    formats_.push_back(cost);
    return formats_.size() - 1;
}

double CostModel::simd_energy(FpOp op, FpFormat fmt, int lanes) const noexcept {
    return model_.fp_op_simd(op, fmt, lanes) +
           model_.idle_slice * fpu::EnergyModel::idle_slices(fmt, lanes) +
           model_.fpu_reg_move;
}

void CostModel::grow_scoreboard(std::size_t id) {
    ready_.resize(std::max(id + 1, 2 * ready_.size()), 0);
}

void CostModel::scalars(const Instr* first, const Instr* last) {
    Tally t = tally_;
    std::int64_t* ready = ready_.data();
    std::size_t ids = ready_.size();
    const auto ready_of = [&](std::int32_t id) -> std::int64_t {
        const auto index = static_cast<std::uint32_t>(id); // -1 reads past ids
        return index < ids ? ready[index] : 0;
    };
    const std::int64_t addr_ops = core_.addr_ops_per_access;
    const double int_energy = model_.int_op;
    const double branch_energy = model_.branch_op;
    const double addr_energy = addr_energy_;

    for (; first != last; ++first) {
        const Instr& instr = *first;
        if (is_memory(instr.kind)) {
            // Address generation precedes the access itself; these integer
            // slots also help hide FP latencies of earlier instructions.
            t.next_free_slot += addr_ops;
            t.issue_slots += static_cast<std::uint64_t>(addr_ops);
        }
        std::int64_t issue = std::max({t.next_free_slot, ready_of(instr.src1),
                                       ready_of(instr.src2), ready_of(instr.src3)});
        std::int64_t latency = 1; // integer ALU, branch, single-cycle TCDM
        switch (instr.kind) {
        case InstrKind::IntAlu:
            ++t.int_ops;
            t.other_energy += int_energy;
            break;
        case InstrKind::Branch:
            ++t.branches;
            t.other_energy += branch_energy;
            break;
        case InstrKind::Load:
        case InstrKind::Store:
            ++t.mem_accesses;
            t.mem_bytes += instr.bytes;
            t.mem_energy += model_.mem_access(instr.bytes);
            t.other_energy += addr_energy;
            break;
        case InstrKind::FpArith: {
            FormatCost& cost = cost_of(instr.fmt);
            const auto op = static_cast<std::size_t>(instr.op);
            assert(op < kFpOpCount);
            if (cost.interval[op] != 0) {
                // Iterative div/sqrt block the unit.
                issue = std::max(issue, t.fpu_busy_until);
                t.fpu_busy_until = issue + cost.interval[op];
            }
            latency = cost.latency[op];
            ++t.fp_ops;
            ++cost.activity.scalar_ops;
            t.fp_energy += cost.energy[op];
            break;
        }
        case InstrKind::FpCast: {
            FormatCost& cost = cost_of(instr.fmt);
            if (!(cost.cast_target == instr.fmt2)) {
                cost.cast_target = instr.fmt2;
                cost.cast_energy = model_.cast(instr.fmt, instr.fmt2);
            }
            latency = cast_latency_;
            ++t.casts;
            t.fp_energy += cost.cast_energy;
            break;
        }
        }
        t.stall_cycles += static_cast<std::uint64_t>(issue - t.next_free_slot);
        if (instr.dst >= 0) {
            const auto id = static_cast<std::size_t>(instr.dst);
            if (id >= ids) {
                grow_scoreboard(id);
                ready = ready_.data();
                ids = ready_.size();
            }
            ready[id] = issue + latency;
        }
        t.next_free_slot = issue + 1;
        if (instr.kind == InstrKind::Branch) {
            // Taken-branch bubble: the fetch stage loses one slot.
            ++t.next_free_slot;
            ++t.stall_cycles;
        }
        ++t.issue_slots;
    }
    tally_ = t;
}

void CostModel::group(const SimdGroup& group, const Instr* members,
                      std::size_t count) {
    Tally& t = tally_;
    const bool memory = is_memory(group.kind);
    if (memory) {
        // Address generation for the single packed access.
        t.next_free_slot += core_.addr_ops_per_access;
        t.issue_slots += static_cast<std::uint64_t>(core_.addr_ops_per_access);
    }
    // Members are adjacent and never consume each other, so every source
    // is read before any member's result is booked.
    const auto ready_of = [this](std::int32_t id) -> std::int64_t {
        const auto index = static_cast<std::uint32_t>(id);
        return index < ready_.size() ? ready_[index] : 0;
    };
    std::int64_t issue = t.next_free_slot;
    for (std::size_t m = 0; m < count; ++m) {
        issue = std::max({issue, ready_of(members[m].src1),
                          ready_of(members[m].src2), ready_of(members[m].src3)});
    }
    t.stall_cycles += static_cast<std::uint64_t>(issue - t.next_free_slot);

    std::int64_t latency = 1;
    if (group.kind == InstrKind::FpArith) {
        FormatCost& cost = cost_of(group.fmt);
        const auto op = static_cast<std::size_t>(group.op);
        assert(op < kFpOpCount);
        latency = cost.latency[op];
        const auto lanes = static_cast<std::uint64_t>(group.lanes);
        ++t.fp_simd_instrs;
        t.fp_simd_lane_ops += lanes;
        cost.activity.vector_ops += lanes;
        ++cost.activity.vector_instrs;
        t.fp_energy += group.lanes >= 0 && group.lanes <= kTabledLanes
                           ? cost.simd_energy[op][static_cast<std::size_t>(group.lanes)]
                           : simd_energy(group.op, group.fmt, group.lanes);
    } else if (memory) {
        ++t.mem_accesses;
        ++t.mem_accesses_vector;
        t.mem_bytes += static_cast<std::uint64_t>(group.bytes);
        t.mem_energy += model_.mem_access(group.bytes);
        t.other_energy += addr_energy_;
    }
    for (std::size_t m = 0; m < count; ++m) {
        if (members[m].dst < 0) continue;
        const auto id = static_cast<std::size_t>(members[m].dst);
        if (id >= ready_.size()) grow_scoreboard(id);
        ready_[id] = issue + latency;
    }
    t.next_free_slot = issue + 1;
    ++t.issue_slots;
}

RunReport CostModel::finish() {
    const Tally& t = tally_;
    RunReport report;
    // Drain: the last write-back defines total cycles.
    std::int64_t end = t.next_free_slot;
    for (const std::int64_t r : ready_) end = std::max(end, r);
    report.cycles = static_cast<std::uint64_t>(end);
    report.stall_cycles = t.stall_cycles;
    report.issue_slots = t.issue_slots;
    report.mem_accesses = t.mem_accesses;
    report.mem_accesses_vector = t.mem_accesses_vector;
    report.mem_bytes = t.mem_bytes;
    report.fp_ops = t.fp_ops;
    report.fp_simd_instrs = t.fp_simd_instrs;
    report.fp_simd_lane_ops = t.fp_simd_lane_ops;
    report.casts = t.casts;
    report.cast_cycles = t.casts * static_cast<std::uint64_t>(cast_latency_);
    report.int_ops = t.int_ops;
    report.addr_int_ops =
        t.mem_accesses * static_cast<std::uint64_t>(core_.addr_ops_per_access);
    report.branches = t.branches;
    for (const FormatCost& cost : formats_) {
        if (cost.activity != FormatActivity{}) {
            report.per_format.emplace(cost.fmt, cost.activity);
        }
    }
    report.energy.fp_ops = t.fp_energy;
    report.energy.memory = t.mem_energy;
    report.energy.other =
        t.other_energy + model_.stall_cycle * static_cast<double>(t.stall_cycles);
    return report;
}

RunReport simulate(const TraceProgram& program, const fpu::EnergyModel& model,
                   const CoreParams& core) {
    CostModel cost{model, core};
    const Instr* const instrs = program.instrs.data();
    const std::size_t size = program.instrs.size();
    for (std::size_t i = 0; i < size;) {
        if (instrs[i].simd_group != 0) {
            const SimdGroup& group = program.groups[instrs[i].simd_group - 1];
            // A group issues with its last member.
            if (group.last_index == i) {
                assert(group.first_index <= group.last_index);
                cost.group(group, instrs + group.first_index,
                           group.last_index - group.first_index + 1);
            }
            ++i;
            continue;
        }
        // A scalar run goes to the model in batches, so the model reads
        // each batch while the scan that delimited it left it in cache.
        const std::size_t limit = std::min(size, i + CostModel::kBatch);
        std::size_t end = i + 1;
        while (end < limit && instrs[end].simd_group == 0) ++end;
        cost.scalars(instrs + i, instrs + end);
        i = end;
    }
    return cost.finish();
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
