#include "sim/vectorize.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>

#include <gtest/gtest.h>

#include "app_bindings.hpp"
#include "apps/app.hpp"
#include "fpu/latency_model.hpp"
#include "sim/context.hpp"
#include "sim/pipeline.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"

namespace {

using tp::sim::CostStream;
using tp::sim::Instr;
using tp::sim::InstrKind;
using tp::sim::RunReport;
using tp::sim::SimdGroup;
using tp::sim::TpContext;
using tp::sim::Trace;
using tp::sim::TraceProgram;

// Reference passes, kept verbatim from the implementations they were
// replaced by, as oracles:
//   * vectorize — the map-based pass, except that a group records its first
//     member's index; the dense in-place pass must reproduce its traces and
//     groups exactly;
//   * run_pipeline and simulate — the separate pipeline and energy loops
//     over a stored program, verbatim except that simulate names
//     reference::run_pipeline; sim::CostModel, replayed or streamed, must
//     reproduce their reports bit for bit. They size the scoreboard from
//     value_count, so they need programs whose ids stay below it.
namespace reference {

using namespace tp;
using namespace tp::sim;

/// Key identifying operations that may share a SIMD group.
struct GroupKey {
    InstrKind kind = InstrKind::FpArith;
    FpOp op = FpOp::Add;
    FpFormat fmt{8, 23};
    std::uint32_t stream = 0;

    [[nodiscard]] auto tie() const noexcept {
        return std::make_tuple(static_cast<int>(kind), static_cast<int>(op),
                               fmt.exp_bits, fmt.mant_bits, stream);
    }
    friend bool operator<(const GroupKey& a, const GroupKey& b) noexcept {
        return a.tie() < b.tie();
    }
};

/// Rewrites a trace so that groupable element operations inside tagged
/// vector regions become adjacent SIMD groups, preserving dependency order.
/// This mirrors what a sub-word vectorizing compiler does with an unrolled
/// loop body: packs independent lanes, keeps serial chains scalar.
class Vectorizer {
public:
    explicit Vectorizer(TraceProgram& program) : program_(program) {}

    void run() {
        Trace input = std::move(program_.instrs);
        program_.instrs = Trace{};
        program_.instrs.reserve(input.size());
        program_.groups.clear();

        for (const Instr& instr : input) {
            process(instr);
        }
        flush_all();
        program_.instrs.shrink_to_fit();
    }

private:
    struct Bucket {
        std::vector<Instr> members;
    };

    void process(const Instr& instr) {
        if (!instr.vectorizable) {
            // Loop plumbing (int/branch) passes through without disturbing
            // open groups; any other scalar instruction may consume pending
            // results, so its producers must be flushed first.
            if (instr.kind == InstrKind::IntAlu || instr.kind == InstrKind::Branch) {
                emit_scalar(instr);
                return;
            }
            flush_producers_of(instr);
            // A scalar FP instruction outside the region ends the region's
            // schedule for safety: flush everything.
            flush_all();
            emit_scalar(instr);
            return;
        }

        const int lanes = lanes_for(instr);
        if (lanes <= 1 || !groupable(instr)) {
            flush_producers_of(instr);
            emit_scalar(instr);
            return;
        }

        const GroupKey key = key_of(instr);
        // A member must not consume a value pending in its own bucket —
        // that would fuse a serial chain into one SIMD slot. Commit the
        // open bucket and start a fresh one with this instruction.
        if (consumes_from(instr, key)) {
            commit(key);
        }
        Bucket& fresh = buckets_[key]; // commit() may have erased it
        fresh.members.push_back(instr);
        if (instr.dst >= 0) pending_dst_[instr.dst] = key;
        if (static_cast<int>(fresh.members.size()) == lanes) {
            commit(key);
        }
    }

    [[nodiscard]] static bool groupable(const Instr& instr) noexcept {
        switch (instr.kind) {
        case InstrKind::FpArith:
            // Only add/sub/mul exist as SIMD datapaths (paper, Fig. 3).
            return instr.op == FpOp::Add || instr.op == FpOp::Sub ||
                   instr.op == FpOp::Mul;
        case InstrKind::Load:
        case InstrKind::Store:
            return instr.bytes > 0 && instr.bytes < 4;
        default:
            return false;
        }
    }

    [[nodiscard]] static int lanes_for(const Instr& instr) noexcept {
        if (instr.kind == InstrKind::Load || instr.kind == InstrKind::Store) {
            return instr.bytes > 0 ? 4 / instr.bytes : 1;
        }
        return simd_lanes_for(instr.fmt);
    }

    [[nodiscard]] static GroupKey key_of(const Instr& instr) noexcept {
        GroupKey key;
        key.kind = instr.kind;
        key.fmt = instr.fmt;
        if (instr.kind == InstrKind::FpArith) {
            key.op = instr.op;
        } else {
            key.stream = instr.stream;
        }
        return key;
    }

    [[nodiscard]] bool consumes_from(const Instr& instr, const GroupKey& key) const {
        for (std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            if (src < 0) continue;
            const auto it = pending_dst_.find(src);
            if (it != pending_dst_.end() && !(it->second < key) && !(key < it->second)) {
                return true;
            }
        }
        return false;
    }

    void flush_producers_of(const Instr& instr) {
        for (std::int32_t src : {instr.src1, instr.src2, instr.src3}) {
            if (src < 0) continue;
            const auto it = pending_dst_.find(src);
            if (it != pending_dst_.end()) commit(it->second);
        }
    }

    /// Emits the bucket's members: a single member stays scalar; several
    /// members become one SIMD group (partially filled groups are legal —
    /// the unit simply silences the unused lanes). Producers pending in
    /// other buckets are committed first so the output trace stays in
    /// dependency order.
    void commit(GroupKey key) {
        const auto bucket_it = buckets_.find(key);
        if (bucket_it == buckets_.end()) return;
        Bucket bucket = std::move(bucket_it->second);
        buckets_.erase(bucket_it);
        for (const Instr& m : bucket.members) {
            if (m.dst >= 0) pending_dst_.erase(m.dst);
        }
        for (const Instr& m : bucket.members) {
            flush_producers_of(m);
        }
        if (bucket.members.size() == 1) {
            Instr scalar = bucket.members.front();
            scalar.simd_group = 0;
            program_.instrs.push_back(scalar);
            return;
        }

        SimdGroup group;
        group.lanes = static_cast<int>(bucket.members.size());
        group.kind = key.kind;
        group.op = key.op;
        group.fmt = key.fmt;
        group.first_index = program_.instrs.size();
        const auto group_id = static_cast<std::uint32_t>(program_.groups.size() + 1);
        for (Instr m : bucket.members) {
            m.simd_group = group_id;
            group.bytes += m.bytes;
            program_.instrs.push_back(m);
        }
        group.last_index = program_.instrs.size() - 1;
        program_.groups.push_back(std::move(group));
    }

    void flush_all() {
        while (!buckets_.empty()) {
            commit(buckets_.begin()->first);
        }
    }

    void emit_scalar(const Instr& instr) {
        program_.instrs.push_back(instr);
        assert(instr.simd_group == 0);
    }

    TraceProgram& program_;
    std::map<GroupKey, Bucket> buckets_;
    std::unordered_map<std::int32_t, GroupKey> pending_dst_;
};

void vectorize(TraceProgram& program) {
    Vectorizer{program}.run();
}

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

RunReport simulate(const TraceProgram& program,
                   const fpu::EnergyModel& model = fpu::default_energy_model(),
                   const CoreParams& core = CoreParams{}) {
    RunReport report;

    const PipelineResult timing =
        reference::run_pipeline(program, core.addr_ops_per_access);
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

} // namespace reference

/// Every Instr and SimdGroup field of `got` equals `want`'s; reports the
/// first difference.
::testing::AssertionResult same_program(const TraceProgram& got,
                                        const TraceProgram& want) {
    if (got.value_count != want.value_count) {
        return ::testing::AssertionFailure() << "value_count differs";
    }
    if (got.instrs.size() != want.instrs.size()) {
        return ::testing::AssertionFailure()
               << "trace length " << got.instrs.size() << " vs "
               << want.instrs.size();
    }
    for (std::size_t i = 0; i < got.instrs.size(); ++i) {
        const Instr& a = got.instrs[i];
        const Instr& b = want.instrs[i];
        const bool same =
            a.kind == b.kind && a.op == b.op && a.fmt == b.fmt &&
            a.fmt2 == b.fmt2 && a.bytes == b.bytes &&
            a.vectorizable == b.vectorizable && a.simd_group == b.simd_group &&
            a.stream == b.stream && a.dst == b.dst && a.src1 == b.src1 &&
            a.src2 == b.src2 && a.src3 == b.src3;
        if (!same) {
            return ::testing::AssertionFailure()
                   << "instruction " << i << " differs (dst " << a.dst
                   << " vs " << b.dst << ", group " << a.simd_group << " vs "
                   << b.simd_group << ")";
        }
    }
    if (got.groups.size() != want.groups.size()) {
        return ::testing::AssertionFailure()
               << got.groups.size() << " groups vs " << want.groups.size();
    }
    for (std::size_t g = 0; g < got.groups.size(); ++g) {
        const SimdGroup& a = got.groups[g];
        const SimdGroup& b = want.groups[g];
        const bool same = a.first_index == b.first_index &&
                          a.last_index == b.last_index && a.lanes == b.lanes &&
                          a.bytes == b.bytes && a.kind == b.kind &&
                          a.op == b.op && a.fmt == b.fmt;
        if (!same) {
            return ::testing::AssertionFailure() << "group " << g << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(Vectorize, LanesForWidths) {
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary8), 4);
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary16), 2);
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary16Alt), 2);
    EXPECT_EQ(tp::sim::simd_lanes_for(tp::kBinary32), 1);
}

TEST(Vectorize, IndependentBinary8AddsGroupByFour) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 8; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a + b);
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    EXPECT_EQ(program.groups[0].lanes, 4);
    EXPECT_EQ(program.groups[1].lanes, 4);
    for (const auto& instr : program.instrs) {
        EXPECT_NE(instr.simd_group, 0u); // everything grouped
    }
}

TEST(Vectorize, SixteenBitGroupsByTwo) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary16);
            (void)(a * a);
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    EXPECT_EQ(program.groups[0].lanes, 2);
}

TEST(Vectorize, ThirtyTwoBitNeverGroups) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary32);
            (void)(a + a);
        }
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
}

TEST(Vectorize, SerialChainStaysScalar) {
    // acc = ((((acc+x)+x)+x)+x) is a dependence chain: fusing it into one
    // SIMD slot would be wrong, so members must stay scalar.
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        auto acc = ctx.constant(0.0, tp::kBinary8);
        const auto x = ctx.constant(1.0, tp::kBinary8);
        for (int i = 0; i < 4; ++i) acc = acc + x;
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
    for (const auto& instr : program.instrs) {
        EXPECT_EQ(instr.simd_group, 0u);
    }
}

TEST(Vectorize, OutsideRegionNothingGroups) {
    TpContext ctx;
    for (int i = 0; i < 8; ++i) {
        const auto a = ctx.constant(1.0, tp::kBinary8);
        (void)(a + a);
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
}

TEST(Vectorize, NarrowLoadsPackIntoWordAccess) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 8);
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 8; ++i) (void)arr.load(static_cast<std::size_t>(i));
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    EXPECT_EQ(program.groups[0].kind, InstrKind::Load);
    EXPECT_EQ(program.groups[0].lanes, 4);
    EXPECT_EQ(program.groups[0].bytes, 4);
}

TEST(Vectorize, LoadsFromDifferentArraysDoNotMix) {
    TpContext ctx;
    auto a = ctx.make_array(tp::kBinary16, 4);
    auto b = ctx.make_array(tp::kBinary16, 4);
    {
        const auto region = ctx.vector_region();
        (void)a.load(0);
        (void)b.load(0);
        (void)a.load(1);
        (void)b.load(1);
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 2u);
    for (const auto& group : program.groups) {
        EXPECT_EQ(group.lanes, 2);
        EXPECT_EQ(group.bytes, 4);
    }
}

TEST(Vectorize, LoadFeedingGroupedMulStaysGrouped) {
    // The canonical pattern: packed loads feed a packed multiply.
    TpContext ctx;
    auto a = ctx.make_array(tp::kBinary8, 4);
    auto b = ctx.make_array(tp::kBinary8, 4);
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto x = a.load(static_cast<std::size_t>(i));
            const auto y = b.load(static_cast<std::size_t>(i));
            (void)(x * y);
        }
    }
    TraceProgram program = ctx.take_program(true);
    // Three groups: load a, load b, mul.
    ASSERT_EQ(program.groups.size(), 3u);
    int loads = 0;
    int muls = 0;
    for (const auto& group : program.groups) {
        EXPECT_EQ(group.lanes, 4);
        if (group.kind == InstrKind::Load) ++loads;
        if (group.kind == InstrKind::FpArith) ++muls;
    }
    EXPECT_EQ(loads, 2);
    EXPECT_EQ(muls, 1);
}

TEST(Vectorize, PartialGroupAtRegionEnd) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 3; ++i) { // 3 of 4 lanes
            const auto a = ctx.constant(1.0, tp::kBinary8);
            (void)(a + a);
        }
    }
    // A scalar op outside the region forces the flush.
    const auto s = ctx.constant(1.0, tp::kBinary32);
    (void)(s + s);
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 1u);
    EXPECT_EQ(program.groups[0].lanes, 3); // partial group, lanes silenced
}

TEST(Vectorize, DependencyOrderPreserved) {
    // Producers must appear before consumers in the rewritten trace.
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 8);
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 8; ++i) {
            const auto x = arr.load(static_cast<std::size_t>(i));
            (void)(x * x);
        }
    }
    TraceProgram program = ctx.take_program(true);
    std::map<std::int32_t, std::size_t> def_pos;
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        if (program.instrs[i].dst >= 0) def_pos[program.instrs[i].dst] = i;
    }
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        for (std::int32_t src :
             {program.instrs[i].src1, program.instrs[i].src2}) {
            if (src < 0) continue;
            const auto it = def_pos.find(src);
            if (it == def_pos.end()) continue;
            EXPECT_LE(it->second, i) << "consumer before producer at " << i;
        }
    }
}

TEST(Vectorize, CmpNeverGroups) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a < b);
        }
    }
    TraceProgram program = ctx.take_program(true);
    EXPECT_TRUE(program.groups.empty());
}

TEST(Vectorize, SimdDisabledLeavesTraceAlone) {
    TpContext ctx;
    {
        const auto region = ctx.vector_region();
        for (int i = 0; i < 4; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            (void)(a + a);
        }
    }
    TraceProgram program = ctx.take_program(false);
    EXPECT_TRUE(program.groups.empty());
    for (const auto& instr : program.instrs) EXPECT_EQ(instr.simd_group, 0u);
}

TEST(Vectorize, GroupsSpanRegionsSeparatedOnlyByIntegerWork) {
    // The pass sees vectorizable tags, not region boundaries: loop plumbing
    // between two regions leaves their open groups open, so two lanes from
    // each region pack into one 4-lane binary8 group.
    TpContext ctx;
    for (int region_index = 0; region_index < 2; ++region_index) {
        if (region_index > 0) ctx.loop_iteration();
        const auto region = ctx.vector_region();
        for (int i = 0; i < 2; ++i) {
            const auto a = ctx.constant(1.0, tp::kBinary8);
            const auto b = ctx.constant(2.0, tp::kBinary8);
            (void)(a + b);
        }
    }
    TraceProgram program = ctx.take_program(true);
    ASSERT_EQ(program.groups.size(), 1u);
    EXPECT_EQ(program.groups[0].lanes, 4);
    EXPECT_EQ(program.groups[0].first_index, 2u); // after the int + branch
    EXPECT_EQ(program.groups[0].last_index, 5u);
}

/// The apps of the oracle tests: every registered app plus pca-manual-vec,
/// each run under tp::testing::conformance_bindings.
std::vector<std::string> oracle_app_names() {
    std::vector<std::string> names = tp::apps::app_names();
    names.emplace_back("pca-manual-vec");
    return names;
}

/// Feeds `instrs` to a CostStream in random-length pieces: a third of them
/// one instruction long, the rest up to 48, and a cut right after one
/// vectorizable instruction in four, so that pieces often end while a
/// group is open. Counts those cuts into `cuts_after_vectorizable`.
RunReport stream_in_pieces(const Trace& instrs, bool simd, std::uint64_t seed,
                           std::size_t& cuts_after_vectorizable) {
    std::mt19937_64 rng{seed};
    CostStream stream{simd};
    std::size_t begin = 0;
    while (begin < instrs.size()) {
        std::size_t end =
            begin + (rng() % 3 == 0 ? 1 : 1 + static_cast<std::size_t>(rng() % 48));
        end = std::min(end, instrs.size());
        for (std::size_t i = begin; i + 1 < end; ++i) {
            if (instrs[i].vectorizable && rng() % 4 == 0) {
                end = i + 1;
                break;
            }
        }
        if (instrs[end - 1].vectorizable) ++cuts_after_vectorizable;
        stream.feed(std::span{instrs}.subspan(begin, end - begin));
        begin = end;
    }
    return stream.finish();
}

TEST(Vectorize, MatchesReferenceOnApps) {
    // take_program(true) from one run against the reference pass over
    // take_program(false) from an identical second run. jacobi, pca and iir
    // never enter a vector region, so this also covers the skip. Both
    // programs, and the unvectorized one, replay to the reference loops'
    // reports.
    for (const std::string& name : oracle_app_names()) {
        const auto app = tp::apps::make_app(name);
        app->prepare(0);
        for (const auto& [label, config] : tp::testing::conformance_bindings(*app)) {
            SCOPED_TRACE(name + " under " + label);
            TpContext simd_ctx;
            (void)app->run(simd_ctx, config);
            const TraceProgram got = simd_ctx.take_program(true);
            TpContext scalar_ctx;
            (void)app->run(scalar_ctx, config);
            TraceProgram want = scalar_ctx.take_program(false);
            const TraceProgram scalar = want;
            reference::vectorize(want);
            ASSERT_TRUE(same_program(got, want));
            EXPECT_TRUE(tp::sim::simulate(got) == reference::simulate(want));
            EXPECT_TRUE(tp::sim::simulate(scalar) == reference::simulate(scalar));
        }
    }
}

TEST(Vectorize, StreamedMatchesReplayedOnApps) {
    // The stored, unvectorized trace fed to a CostStream in pieces, and the
    // same run priced in a cost-mode TpContext, against the replay of the
    // stored program, vectorized when simd is on.
    std::size_t cuts_after_vectorizable = 0;
    std::uint64_t seed = 0;
    for (const std::string& name : oracle_app_names()) {
        const auto app = tp::apps::make_app(name);
        app->prepare(0);
        for (const auto& [label, config] : tp::testing::conformance_bindings(*app)) {
            TpContext ctx;
            (void)app->run(ctx, config);
            const TraceProgram scalar = ctx.take_program(false);
            for (const bool simd : {false, true}) {
                SCOPED_TRACE(name + " under " + label + (simd ? ", simd" : ""));
                TraceProgram program = scalar;
                if (simd) tp::sim::vectorize(program);
                const RunReport replayed = tp::sim::simulate(program);
                EXPECT_TRUE(stream_in_pieces(scalar.instrs, simd, ++seed,
                                             cuts_after_vectorizable) == replayed);
                TpContext cost_ctx{TpContext::Costing{.simd = simd}};
                (void)app->run(cost_ctx, config);
                EXPECT_TRUE(cost_ctx.take_report() == replayed);
            }
        }
    }
    EXPECT_GT(cuts_after_vectorizable, 0u);
}

/// A synthetic trace in the shape the tracer records: loads and stores over
/// three streams of fixed element formats, arithmetic (div and fma
/// included), casts, compares, and integer and branch instructions. About
/// one FP or memory instruction in ten lies outside a vector region.
/// Operands are recent values or register constants (ids with no
/// instruction), so serial chains and cross-bucket dependencies both occur.
TraceProgram random_trace(std::uint64_t seed) {
    using tp::FpOp;
    std::mt19937_64 rng{seed};
    const auto below = [&rng](std::uint64_t n) { return rng() % n; };
    constexpr std::array<tp::FpFormat, 4> kFormats{
        tp::kBinary8, tp::kBinary16, tp::kBinary16Alt, tp::kBinary32};
    constexpr std::array<FpOp, 8> kArith{FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Add,
                                         FpOp::Mul, FpOp::Div, FpOp::Fma, FpOp::Sqrt};
    std::array<tp::FpFormat, 3> stream_format{};
    for (tp::FpFormat& format : stream_format) format = kFormats[below(4)];

    TraceProgram program;
    std::int32_t next_id = 0;
    const auto operand = [&]() -> std::int32_t {
        if (next_id < 4 || below(5) == 0) return next_id++; // constant
        return next_id - 1 - static_cast<std::int32_t>(below(std::min(next_id, 12)));
    };
    const std::size_t length = 100 + below(400);
    for (std::size_t n = 0; n < length; ++n) {
        Instr instr;
        const std::uint64_t roll = below(100);
        if (roll < 30) {
            const auto stream = static_cast<std::uint32_t>(below(3));
            instr.kind = roll < 20 ? InstrKind::Load : InstrKind::Store;
            instr.fmt = stream_format[stream];
            instr.bytes = static_cast<std::uint8_t>(instr.fmt.storage_bytes());
            instr.stream = stream + 1;
            if (instr.kind == InstrKind::Store) instr.src1 = operand();
        } else if (roll < 65) {
            instr.kind = InstrKind::FpArith;
            instr.op = kArith[below(kArith.size())];
            instr.fmt = kFormats[below(4)];
            instr.src1 = operand();
            if (instr.op != FpOp::Sqrt) instr.src2 = operand();
            if (instr.op == FpOp::Fma) instr.src3 = operand();
        } else if (roll < 73) {
            instr.kind = InstrKind::FpCast;
            instr.fmt = kFormats[below(4)];
            instr.fmt2 = kFormats[below(4)];
            instr.src1 = operand();
        } else if (roll < 78) {
            instr.kind = InstrKind::FpArith;
            instr.op = FpOp::Cmp;
            instr.fmt = kFormats[below(4)];
            instr.src1 = operand();
            instr.src2 = operand();
        } else {
            instr.kind = roll < 93 ? InstrKind::IntAlu : InstrKind::Branch;
        }
        const bool fp_or_memory =
            instr.kind != InstrKind::IntAlu && instr.kind != InstrKind::Branch;
        const bool produces = fp_or_memory && instr.kind != InstrKind::Store &&
                              instr.op != FpOp::Cmp;
        if (produces) instr.dst = next_id++;
        instr.vectorizable = fp_or_memory && instr.op != FpOp::Cmp && below(10) != 0;
        program.instrs.push_back(instr);
    }
    program.value_count = static_cast<std::size_t>(next_id);
    return program;
}

TEST(Vectorize, MatchesReferenceOnRandomTraces) {
    // Real kernels open their buckets in key order, so the app oracle
    // cannot tell key-ordered flushes from slot-ordered ones; random
    // traces open them in every order.
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const TraceProgram input = random_trace(seed);
        TraceProgram got = input;
        tp::sim::vectorize(got);
        TraceProgram want = input;
        reference::vectorize(want);
        ASSERT_TRUE(same_program(got, want));
        const RunReport replayed = tp::sim::simulate(got);
        EXPECT_TRUE(replayed == reference::simulate(want));
        EXPECT_TRUE(tp::sim::simulate(input) == reference::simulate(input));

        // Ids beyond value_count (a hand-built program) grow the pending
        // table and the scoreboard instead of indexing past them.
        TraceProgram undersized = input;
        undersized.value_count = 0;
        EXPECT_TRUE(tp::sim::simulate(undersized) == tp::sim::simulate(input));
        tp::sim::vectorize(undersized);
        EXPECT_TRUE(tp::sim::simulate(undersized) == replayed);
        undersized.value_count = want.value_count;
        ASSERT_TRUE(same_program(undersized, want));
    }
}

TEST(Vectorize, StreamedMatchesReplayedOnRandomTraces) {
    std::size_t cuts_after_vectorizable = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const TraceProgram input = random_trace(seed);
        TraceProgram vectorized = input;
        tp::sim::vectorize(vectorized);
        EXPECT_TRUE(stream_in_pieces(input.instrs, false, seed,
                                     cuts_after_vectorizable) ==
                    tp::sim::simulate(input));
        EXPECT_TRUE(stream_in_pieces(input.instrs, true, seed,
                                     cuts_after_vectorizable) ==
                    tp::sim::simulate(vectorized));
    }
    EXPECT_GT(cuts_after_vectorizable, 0u);
}

TEST(Vectorize, CostModeContextStartsAFreshRunAfterEachReport) {
    // More instructions than one cost buffer holds, with open groups
    // across its boundaries; take_report() resets, so a second identical
    // run prices the same.
    const auto run = [](TpContext& ctx) {
        auto arr = ctx.make_array(tp::kBinary8, 1000);
        for (int rep = 0; rep < 3; ++rep) {
            ctx.loop_iteration();
            const auto region = ctx.vector_region();
            for (std::size_t i = 0; i < arr.size(); ++i) {
                const auto x = arr.load(i);
                arr.store(i, x * x);
            }
        }
    };
    TpContext traced;
    run(traced);
    const RunReport want = tp::sim::simulate(traced.take_program(true));
    TpContext cost{TpContext::Costing{.simd = true}};
    run(cost);
    EXPECT_TRUE(cost.take_report() == want);
    run(cost);
    EXPECT_TRUE(cost.take_report() == want);
    EXPECT_GT(want.fp_simd_instrs, 0u);
}

} // namespace
