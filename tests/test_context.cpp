#include "sim/context.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "flexfloat/stats.hpp"
#include "sim/plain_context.hpp"
#include "sim/platform.hpp"
#include "types/encoding.hpp"

namespace {

using tp::sim::InstrKind;
using tp::sim::PlainContext;
using tp::sim::simulate;
using tp::sim::TpContext;

TEST(Context, ValuesComputeWithFlexFloatSemantics) {
    TpContext ctx;
    const auto a = ctx.constant(0.3, tp::kBinary8);
    EXPECT_EQ(a.value(), 0.3125); // sanitized on construction
    const auto b = ctx.constant(0.25, tp::kBinary8);
    EXPECT_EQ((a + b).value(), tp::quantize(0.3125 + 0.25, tp::kBinary8));
}

TEST(Context, ConstantEmitsNoInstruction) {
    TpContext ctx;
    (void)ctx.constant(1.0, tp::kBinary32);
    EXPECT_TRUE(ctx.take_program(false).instrs.empty());
}

TEST(Context, ArithmeticEmitsTypedInstr) {
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary16);
    const auto b = ctx.constant(2.0, tp::kBinary16);
    (void)(a * b);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::FpArith);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::Mul);
    EXPECT_EQ(program.instrs[0].fmt, tp::kBinary16);
    EXPECT_GE(program.instrs[0].dst, 0);
}

TEST(Context, CastEmitsCastInstr) {
    TpContext ctx;
    const auto a = ctx.constant(1.5, tp::kBinary32);
    const auto b = a.cast_to(tp::kBinary8);
    EXPECT_EQ(b.format(), tp::kBinary8);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::FpCast);
    EXPECT_EQ(program.instrs[0].fmt, tp::kBinary32);
    EXPECT_EQ(program.instrs[0].fmt2, tp::kBinary8);
}

TEST(Context, LoadsAndStoresCarryWidth) {
    TpContext ctx;
    auto arr8 = ctx.make_array(tp::kBinary8, 4);
    auto arr32 = ctx.make_array(tp::kBinary32, 4);
    arr8.set_raw(0, 0.5);
    (void)arr8.load(0);
    const auto v = ctx.constant(1.0, tp::kBinary32);
    arr32.store(1, v);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 2u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::Load);
    EXPECT_EQ(program.instrs[0].bytes, 1);
    EXPECT_EQ(program.instrs[1].kind, InstrKind::Store);
    EXPECT_EQ(program.instrs[1].bytes, 4);
    EXPECT_EQ(arr32.raw(1), 1.0);
}

TEST(Context, StoreQuantizesToElementFormat) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary8, 1);
    const auto v = ctx.constant(0.3, tp::kBinary8);
    arr.store(0, v);
    EXPECT_EQ(arr.raw(0), 0.3125);
}

TEST(Context, SetRawQuantizes) {
    TpContext ctx;
    auto arr = ctx.make_array(tp::kBinary16, 1);
    arr.set_raw(0, 1.0 + std::ldexp(1.0, -11));
    EXPECT_EQ(arr.raw(0), 1.0);
}

// Untraced runs execute on the plain context (App::run selects it for an
// untraced TpContext, which itself always traces).
TEST(Context, UntracedModeStillComputes) {
    PlainContext ctx;
    auto arr = ctx.make_array(tp::kBinary16, 2);
    arr.set_raw(0, 1.5);
    const auto x = arr.load(0);
    const auto y = x * x;
    arr.store(1, y);
    EXPECT_EQ(arr.raw(1), 2.25);
}

/// Every op of the kernel surface, written once over the context: the
/// app battery checks traced/plain parity per kernel, this covers the ops
/// no kernel uses (from_int, fma, abs, negation, division), in and out of
/// a vector region.
template <class Ctx>
std::vector<double> every_op(Ctx& ctx) {
    std::vector<double> out;
    for (const tp::FpFormat format : {tp::kBinary8, tp::kBinary16, tp::kBinary16Alt,
                                      tp::kBinary32, tp::kBinary64}) {
        auto data = ctx.make_array(format, 8);
        for (std::size_t i = 0; i < data.size(); ++i) {
            data.set_raw(i, 0.37 * static_cast<double>(i + 1) * (i % 2 ? -1.0 : 1.0));
        }
        auto acc = ctx.from_int(3, format);
        const auto half = ctx.constant(0.5, format);
        const auto body = [&](std::size_t i) {
            const auto x = data.load(i);
            acc = fma(x, half, acc) / (abs(acc) + half);
            acc = sqrt(abs(acc)) - (x < acc ? -x : x);
            out.push_back(static_cast<double>((x <= acc) + (x > acc) + (x >= half)));
            data.store(i, acc);
        };
        for (std::size_t i = 0; i < 4; ++i) body(i);
        {
            const auto region = ctx.vector_region();
            for (std::size_t i = 4; i < data.size(); ++i) body(i);
        }
        out.push_back(acc.cast_to(tp::kBinary16).value());
        for (std::size_t i = 0; i < data.size(); ++i) out.push_back(data.raw(i));
    }
    return out;
}

struct CountedOps {
    std::vector<double> out;
    std::map<tp::FpFormat, tp::OpCounts> ops;
    std::map<tp::StatsRegistry::CastKey, std::array<std::uint64_t, 2>> casts;
};

template <class Ctx>
CountedOps counted_every_op(Ctx& ctx) {
    tp::StatsRegistry& stats = tp::thread_stats();
    stats.reset();
    stats.set_enabled(true);
    CountedOps run{every_op(ctx), {}, {}};
    stats.set_enabled(false);
    run.ops = stats.ops();
    run.casts = stats.casts();
    stats.reset();
    return run;
}

TEST(Context, PlainAndTracedOpsAgree) {
    TpContext traced;
    PlainContext plain;
    const CountedOps t = counted_every_op(traced);
    const CountedOps p = counted_every_op(plain);
    EXPECT_FALSE(traced.take_program(false).instrs.empty());
    ASSERT_EQ(t.out.size(), p.out.size());
    for (std::size_t i = 0; i < t.out.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t.out[i]),
                  std::bit_cast<std::uint64_t>(p.out[i]))
            << "element " << i << ": " << t.out[i] << " vs " << p.out[i];
    }
    EXPECT_TRUE(t.ops == p.ops);
    EXPECT_TRUE(t.casts == p.casts);
}

TEST(Context, FromIntEmitsConversion) {
    TpContext ctx;
    const auto v = ctx.from_int(7, tp::kBinary16);
    EXPECT_EQ(v.value(), 7.0);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::FpCast);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::FromInt);
}

TEST(Context, ComparisonEmitsCmp) {
    TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary16);
    const auto b = ctx.constant(2.0, tp::kBinary16);
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(a > b);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 2u);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::Cmp);
}

TEST(Context, LoopOverheadEmitsIntAndBranch) {
    TpContext ctx;
    ctx.loop_iteration();
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 2u);
    EXPECT_EQ(program.instrs[0].kind, InstrKind::IntAlu);
    EXPECT_EQ(program.instrs[1].kind, InstrKind::Branch);
}

TEST(Context, SimulateProducesConsistentReport) {
    TpContext ctx;
    auto a = ctx.make_array(tp::kBinary16, 8);
    auto out = ctx.make_array(tp::kBinary16, 8);
    for (std::size_t i = 0; i < 8; ++i) a.set_raw(i, 0.25 * static_cast<double>(i));
    for (std::size_t i = 0; i < 8; ++i) {
        ctx.loop_iteration();
        const auto x = a.load(i);
        out.store(i, x * x);
    }
    const auto report = simulate(ctx.take_program(false));
    EXPECT_EQ(report.mem_accesses, 16u);
    EXPECT_EQ(report.fp_ops, 8u);
    EXPECT_EQ(report.int_ops, 8u);
    EXPECT_EQ(report.branches, 8u);
    EXPECT_GT(report.cycles, 0u);
    EXPECT_GT(report.energy.total(), 0.0);
    EXPECT_GT(report.energy.fp_ops, 0.0);
    EXPECT_GT(report.energy.memory, 0.0);
    EXPECT_GT(report.energy.other, 0.0);
    // Per-format activity recorded under binary16.
    const auto it = report.per_format.find(tp::kBinary16);
    ASSERT_NE(it, report.per_format.end());
    EXPECT_EQ(it->second.scalar_ops, 8u);
}

TEST(Context, VectorizedRunReducesAccessesAndEnergy) {
    const auto build = [](TpContext& ctx) {
        auto a = ctx.make_array(tp::kBinary8, 32);
        auto b = ctx.make_array(tp::kBinary8, 32);
        auto c = ctx.make_array(tp::kBinary8, 32);
        const auto region = ctx.vector_region();
        for (std::size_t i = 0; i < 32; ++i) {
            const auto x = a.load(i);
            const auto y = b.load(i);
            c.store(i, x + y);
        }
    };
    TpContext scalar_ctx;
    build(scalar_ctx);
    const auto scalar = simulate(scalar_ctx.take_program(false));
    TpContext simd_ctx;
    build(simd_ctx);
    const auto simd = simulate(simd_ctx.take_program(true));
    EXPECT_LT(simd.mem_accesses, scalar.mem_accesses);
    EXPECT_EQ(simd.mem_accesses_vector, simd.mem_accesses);
    EXPECT_LT(simd.energy.total(), scalar.energy.total());
    EXPECT_LT(simd.cycles, scalar.cycles);
}

/// Test-only app whose kernel reports the backend override in force and
/// which instantiation ran — bit identity cannot show either.
class BackendProbeApp final : public tp::apps::KernelApp<BackendProbeApp> {
public:
    BackendProbeApp() : KernelApp({{"x", 1}}) {}

    [[nodiscard]] std::string_view name() const override { return "probe"; }
    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<BackendProbeApp>(*this);
    }
    void prepare(unsigned /*input_set*/) override {}

    template <class Ctx>
    std::vector<double> kernel(Ctx& /*ctx*/, const tp::apps::TypeConfig& /*config*/) {
        return {tp::arith::force_emulated() ? 1.0 : 0.0,
                std::is_same_v<Ctx, PlainContext> ? 1.0 : 0.0};
    }
};

/// Keeps a sink-mode run and counts breaches of the TraceSink contract:
/// an id an instruction defines or reads, or a readout names, whose record
/// has not arrived by the end of the call that delivers it.
class CheckingSink final : public tp::sim::TraceSink {
public:
    void feed(std::span<const tp::sim::Instr> instrs,
              std::span<const tp::sim::ValueRecord> values,
              std::span<const tp::sim::OutputTap> taps) override {
        records.insert(records.end(), values.begin(), values.end());
        const auto arrived = [this](std::int32_t id) {
            return id < 0 || static_cast<std::size_t>(id) < records.size();
        };
        for (const tp::sim::Instr& instr : instrs) {
            for (const std::int32_t id :
                 {instr.dst, instr.src1, instr.src2, instr.src3}) {
                late += arrived(id) ? 0 : 1;
            }
        }
        for (const tp::sim::OutputTap& tap : taps) {
            late += arrived(tap.value_id) ? 0 : 1;
        }
        trace.insert(trace.end(), instrs.begin(), instrs.end());
        readouts.insert(readouts.end(), taps.begin(), taps.end());
    }

    tp::sim::Trace trace;
    std::vector<tp::sim::ValueRecord> records;
    std::vector<tp::sim::OutputTap> readouts;
    std::size_t late = 0;
};

// Sink mode hands on exactly the trace the stored mode keeps, each
// instruction with the records of the ids it touches, one record per id in
// the defining instruction's result format, and every raw() readout in
// output order.
TEST(Context, SinkModeHandsOnTheStoredTraceWithEveryRecord) {
    for (const std::string& name : tp::apps::app_names()) {
        auto app = tp::apps::make_app(name);
        for (const tp::apps::TypeConfig& config :
             {app->uniform_config(tp::kBinary32),
              tp::analysis::staircase_config(app->signal_table().size())}) {
            app->prepare(1);
            TpContext stored;
            const std::vector<double> stored_out = app->run(stored, config);
            const tp::sim::TraceProgram program = stored.take_program(false);

            app->prepare(1);
            CheckingSink sink;
            TpContext ctx{TpContext::Sinking{&sink}};
            const std::vector<double> out = app->run(ctx, config);
            ctx.flush();

            EXPECT_EQ(out, stored_out) << name;
            EXPECT_EQ(sink.late, 0u) << name;
            ASSERT_EQ(sink.records.size(), program.value_count) << name;
            ASSERT_EQ(sink.trace.size(), program.instrs.size()) << name;
            for (std::size_t i = 0; i < program.instrs.size(); ++i) {
                const tp::sim::Instr& a = sink.trace[i];
                const tp::sim::Instr& b = program.instrs[i];
                ASSERT_TRUE(a.kind == b.kind && a.op == b.op && a.fmt == b.fmt &&
                            a.fmt2 == b.fmt2 && a.bytes == b.bytes &&
                            a.vectorizable == b.vectorizable &&
                            a.stream == b.stream && a.dst == b.dst &&
                            a.src1 == b.src1 && a.src2 == b.src2 &&
                            a.src3 == b.src3)
                    << name << " instruction " << i;
                if (b.dst < 0) continue;
                const tp::FpFormat result =
                    b.kind == InstrKind::FpCast ? b.fmt2 : b.fmt;
                EXPECT_EQ(sink.records[static_cast<std::size_t>(b.dst)].fmt,
                          result)
                    << name << " instruction " << i;
            }
            // Kernels build their output from raw() reads, in call order.
            ASSERT_FALSE(sink.readouts.empty()) << name;
            std::size_t k = 0;
            for (const tp::sim::OutputTap& tap : sink.readouts) {
                while (k < out.size() && std::bit_cast<std::uint64_t>(out[k]) !=
                                             std::bit_cast<std::uint64_t>(tap.value)) {
                    ++k;
                }
                ASSERT_LT(k, out.size()) << name << ": a readout not in the output";
                ++k;
            }
        }
    }
}

TEST(KernelApp, UntracedForceEmulatedReachesPlainKernel) {
    BackendProbeApp app;
    const tp::apps::TypeConfig config = app.uniform_config(tp::kBinary32);
    // TP_FORCE_EMULATED (set by the sanitizer CI leg) forces it everywhere.
    const double ambient = tp::arith::force_emulated() ? 1.0 : 0.0;

    TpContext untraced{TpContext::Config{.trace = false}};
    {
        // The thread scope reaches the plain kernel App::run selects.
        const tp::arith::ScopedForceEmulated scope;
        EXPECT_EQ(app.run(untraced, config), (std::vector<double>{1.0, 1.0}));
    }
    EXPECT_EQ(tp::arith::force_emulated() ? 1.0 : 0.0, ambient);

    EXPECT_EQ(app.run(untraced, config), (std::vector<double>{ambient, 1.0}));

    TpContext traced;
    EXPECT_EQ(app.run(traced, config), (std::vector<double>{ambient, 0.0}));
}

} // namespace
