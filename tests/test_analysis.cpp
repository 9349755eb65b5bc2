// Static precision-dataflow analysis (src/analysis/): the streamed shadow
// run (signal flow, error model, ranges), lint, and the derived warm-start
// bounds — including the Instr::fmt2 sentinel regression and the
// soundness/identity contract of SearchOptions::static_bounds on a real
// app. The all-apps soundness battery lives in the conformance suite
// (tests/app_conformance.hpp); these tests pin the building blocks.
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string_view>

#include <gtest/gtest.h>

#include "analysis/derive_bounds.hpp"
#include "analysis/error_model.hpp"
#include "analysis/lint.hpp"
#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "shadow_recorder.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/quality.hpp"
#include "tuning/search.hpp"
#include "types/encoding.hpp"

namespace tp {
namespace {

using analysis::LintKind;

// --- Instr::fmt2 sentinel (regression) --------------------------------------

// fmt2 used to default to binary32, so any consumer that read it without
// checking the kind silently saw a valid-looking cast target on every
// arithmetic instruction. It now defaults to the invalid sentinel.
TEST(TraceInstr, Fmt2DefaultsToInvalidSentinel) {
    const sim::Instr instr;
    EXPECT_FALSE(instr.fmt2.valid());
    EXPECT_FALSE(instr.has_cast_target());
    EXPECT_FALSE(kNoFormat.valid());
}

TEST(TraceInstr, CastsAlwaysCarryATarget) {
    auto app = apps::make_app("dwt");
    app->prepare(0);
    sim::TpContext ctx;
    (void)app->run(ctx, app->uniform_config(kBinary16));
    const sim::TraceProgram program = ctx.take_program(false);
    for (const sim::Instr& instr : program.instrs) {
        if (instr.kind == sim::InstrKind::FpCast) {
            EXPECT_TRUE(instr.has_cast_target());
        } else {
            EXPECT_FALSE(instr.has_cast_target());
        }
    }
}

// --- lint_trace on hand-built traces ----------------------------------------

sim::Instr make_cast(FpFormat from, FpFormat to, std::int32_t src,
                     std::int32_t dst) {
    sim::Instr instr;
    instr.kind = sim::InstrKind::FpCast;
    instr.fmt = from;
    instr.fmt2 = to;
    instr.src1 = src;
    instr.dst = dst;
    return instr;
}

TEST(LintTrace, PinsRedundantCast) {
    sim::TraceProgram program;
    program.instrs.push_back(make_cast(kBinary32, kBinary32, 0, 1));
    program.value_count = 2;
    const analysis::LintReport report = analysis::lint_trace(program);
    EXPECT_EQ(report.count(LintKind::RedundantCast), 1u);
    EXPECT_EQ(report.count(LintKind::DoubleRounding), 0u);
}

TEST(LintTrace, PinsDoubleRoundingChain) {
    // binary64 -> e8m15 -> binary16: the intermediate's 16 precision bits
    // are below 2*11+2, so the two roundings can differ from one direct
    // rounding. Executed twice to check occurrence folding.
    sim::TraceProgram program;
    program.instrs.push_back(make_cast(kBinary64, FpFormat{8, 15}, 0, 1));
    program.instrs.push_back(make_cast(FpFormat{8, 15}, kBinary16, 1, 2));
    program.instrs.push_back(make_cast(kBinary64, FpFormat{8, 15}, 3, 4));
    program.instrs.push_back(make_cast(FpFormat{8, 15}, kBinary16, 4, 5));
    program.value_count = 6;
    const analysis::LintReport report = analysis::lint_trace(program);
    ASSERT_EQ(report.count(LintKind::DoubleRounding), 1u);
    EXPECT_NE(report.diagnostics[0].message.find("2 occurrences"),
              std::string::npos);
}

TEST(LintTrace, WideIntermediateIsInnocuous) {
    // binary64 -> binary32 -> binary16: 24 >= 2*11 + 2, the classic safe
    // double rounding — no diagnostic.
    sim::TraceProgram program;
    program.instrs.push_back(make_cast(kBinary64, kBinary32, 0, 1));
    program.instrs.push_back(make_cast(kBinary32, kBinary16, 1, 2));
    program.value_count = 3;
    EXPECT_TRUE(analysis::lint_trace(program).empty());
}

TEST(LintTrace, IgnoresNonCastInstructions) {
    // An FpArith whose fmt2 happens to equal fmt must not be mistaken for
    // a redundant cast (the pre-sentinel failure mode), and FromInt
    // conversions (fmt == fmt2 by construction) are not redundant casts.
    sim::TraceProgram program;
    sim::Instr arith;
    arith.kind = sim::InstrKind::FpArith;
    arith.op = FpOp::Add;
    arith.fmt = kBinary32;
    arith.fmt2 = kBinary32;
    arith.dst = 2;
    arith.src1 = 0;
    arith.src2 = 1;
    program.instrs.push_back(arith);
    sim::Instr from_int = make_cast(kBinary32, kBinary32, -1, 3);
    from_int.op = FpOp::FromInt;
    program.instrs.push_back(from_int);
    program.value_count = 4;
    EXPECT_TRUE(analysis::lint_trace(program).empty());
}

TEST(Lint, CollectsAndFoldsCastSites) {
    const std::size_t S = 3;
    const auto tags = analysis::tagging_config(S);
    sim::TraceProgram program;
    program.instrs.push_back(make_cast(tags.at(0), tags.at(1), 0, 1));
    program.instrs.push_back(make_cast(tags.at(1), tags.at(2), 1, 2));
    program.instrs.push_back(make_cast(tags.at(0), tags.at(1), 3, 4));
    sim::Instr from_int = make_cast(tags.at(2), tags.at(2), -1, 5);
    from_int.op = FpOp::FromInt;
    program.instrs.push_back(from_int); // not a format-boundary cast

    const auto sites = analysis::collect_cast_sites(program, S);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0].src_signal, 0);
    EXPECT_EQ(sites[0].dst_signal, 1);
    EXPECT_EQ(sites[0].first_instr, 0u);
    EXPECT_EQ(sites[0].occurrences, 2u);
    EXPECT_EQ(sites[1].src_signal, 1);
    EXPECT_EQ(sites[1].dst_signal, 2);
    EXPECT_EQ(sites[1].occurrences, 1u);
}

// --- tagging / capture -------------------------------------------------------

TEST(SignalFlow, TaggingConfigRoundTrips) {
    const auto config = analysis::tagging_config(9);
    for (std::size_t s = 0; s < 9; ++s) {
        const FpFormat tag = config.at(static_cast<apps::SignalId>(s));
        EXPECT_TRUE(tag.valid());
        EXPECT_EQ(analysis::signal_of_tag(tag, 9), static_cast<std::int32_t>(s));
    }
    EXPECT_EQ(analysis::signal_of_tag(kBinary32, 9), analysis::kUnknownSignal);
    // binary64 IS signal 0's tag; formats past the signal count are not tags.
    EXPECT_EQ(analysis::signal_of_tag(kBinary64, 3), 0);
    EXPECT_EQ(analysis::signal_of_tag(FpFormat{11, 49}, 3),
              analysis::kUnknownSignal);
    EXPECT_THROW((void)analysis::tagging_config(52), std::invalid_argument);
}

TEST(SignalFlow, ShadowCaptureTracksGolden) {
    // The binary64 shadow run follows the golden execution; only app-level
    // input staging through the near-binary64 tag formats perturbs it. The
    // sink hears of every id and every raw() readout.
    for (const char* name : {"jacobi", "knn", "fft"}) {
        auto app = apps::make_app(name);
        const auto golden = app->golden(0);
        const auto run = analysis::shadow_run(*app, 0, {});
        ASSERT_EQ(run.output.size(), golden.size()) << name;
        EXPECT_LE(tuning::output_error(golden, run.output), 1e-9) << name;
        const auto recorded = testing::record_shadow_run(*app, 0);
        EXPECT_EQ(recorded.values.size(), run.value_count) << name;
        EXPECT_EQ(recorded.output, run.output) << name;
        EXPECT_FALSE(run.taps.empty()) << name;
        EXPECT_EQ(run.taps.size(), recorded.taps.size()) << name;
    }
}

TEST(SignalFlow, BuildsSignalLevelDag) {
    auto app = apps::make_app("jacobi");
    const auto run = analysis::shadow_run(*app, 0, {});
    const std::size_t S = app->signals().size();
    const auto recorded = testing::record_shadow_run(*app, 0);
    const auto value_signal = testing::value_signals(recorded, S);
    ASSERT_EQ(value_signal.size(), run.value_count);
    // Every value maps to a signal (tag formats only).
    std::size_t tagged = 0;
    for (const std::int32_t sig : value_signal) {
        if (sig >= 0) ++tagged;
        EXPECT_LT(sig, static_cast<std::int32_t>(S));
    }
    EXPECT_EQ(tagged, run.value_count);
    // Jacobi averages neighbours: some signal accumulates and some signal
    // depends on another.
    const analysis::SignalFlowGraph& flow = run.flow;
    ASSERT_EQ(flow.signal_count, S);
    bool any_edge = false;
    bool any_chain = false;
    for (std::size_t a = 0; a < S; ++a) {
        any_chain = any_chain || flow.max_accumulation_chain[a] > 1;
        for (std::size_t b = 0; b < S; ++b) {
            any_edge = any_edge || (a != b && flow.depends_on[a][b] != 0);
        }
    }
    EXPECT_TRUE(any_edge);
    EXPECT_TRUE(any_chain);
}

TEST(SignalFlow, AlignmentTransfersSignalsAndDetectsMismatch) {
    auto app = apps::make_app("dwt");
    const auto shadow = testing::record_shadow_run(*app, 0);
    const std::size_t S = app->signals().size();
    const auto value_signal = testing::value_signals(shadow, S);

    // A real run only aligns with the shadow run when its config keeps
    // every signal's format distinct — a uniform config elides the casts
    // the tag config emits at signal junctions, so the instruction streams
    // differ structurally. The staircase config is the designated probe.
    auto observed =
        testing::record_run(*app, 0, analysis::staircase_config(S), false);
    const auto mapped =
        testing::align_value_signals(observed, value_signal, shadow);
    ASSERT_EQ(mapped.size(), observed.values.size());
    // Every aligned value is attributed to a real signal of the app.
    for (const std::int32_t sig : mapped) {
        EXPECT_GE(sig, 0);
        EXPECT_LT(sig, static_cast<std::int32_t>(S));
    }

    // A structurally diverged trace (as from a flipped data-dependent
    // branch) is rejected, not mis-attributed.
    observed.instrs.pop_back();
    EXPECT_TRUE(
        testing::align_value_signals(observed, value_signal, shadow).empty());

    // The stream fallback maps every tagged array to its signal and
    // survives divergence (stream ids come from make_array order).
    const auto streams = testing::stream_signals(shadow, S);
    int tagged = 0;
    for (const std::int32_t sig : streams) {
        tagged += sig >= 0;
        EXPECT_LT(sig, static_cast<std::int32_t>(S));
    }
    EXPECT_GE(tagged, 2);
}

// --- error model / ranges ----------------------------------------------------

TEST(ErrorModel, ObservationsAndCoefficientsArePopulated) {
    auto app = apps::make_app("svm");
    const std::size_t S = app->signals().size();
    analysis::ShadowOptions options;
    options.drift_steps.assign(S, std::ldexp(1.0, -24));
    options.inflation = 4.0;
    const auto run = analysis::shadow_run(*app, 0, options);
    ASSERT_EQ(run.observed.size(), S);
    bool any_observation = false;
    for (const auto& obs : run.observed) {
        any_observation = any_observation || obs.count > 0;
        EXPECT_GE(obs.max_value, obs.min_value);
    }
    EXPECT_TRUE(any_observation);
    // Output taps carry accumulated error sensitivity to some signal: every
    // svm output element is a stored value, so the tap variance is the sum
    // of the tapped values' variance rows alone.
    ASSERT_FALSE(run.taps.empty());
    for (const auto& tap : run.taps) EXPECT_GE(tap.value_id, 0);
    ASSERT_EQ(run.tap_variance.size(), S);
    double total = 0.0;
    for (const double c : run.tap_variance) total += c;
    EXPECT_GT(total, 0.0);

    const auto& ranges = run.ranges;
    ASSERT_EQ(ranges.size(), S);
    for (std::size_t s = 0; s < S; ++s) {
        if (!ranges[s].populated) continue;
        EXPECT_LE(ranges[s].lo, run.observed[s].min_value);
        EXPECT_GE(ranges[s].hi, run.observed[s].max_value);
        EXPECT_GE(ranges[s].exp_floor_bits, 1);
        EXPECT_LE(ranges[s].exp_floor_bits, 11);
    }
}

// --- analyze: signal-level lint ----------------------------------------------

TEST(Analyze, InfeasibleAccumulationAtAbsurdEpsilon) {
    auto app = apps::make_app("jacobi");
    analysis::DeriveOptions options;
    options.input_sets = {0};
    const auto result = analysis::analyze(*app, 1e-12, options);
    EXPECT_GT(result.lint.count(LintKind::InfeasibleAccumulation), 0u);
    bool any_above_floor = false;
    for (const auto& sb : result.signals) {
        any_above_floor = any_above_floor || sb.lower_bits > kMinPrecisionBits;
    }
    EXPECT_TRUE(any_above_floor);
    EXPECT_FALSE(result.to_string().empty());
}

/// Minimal two-signal app whose values all sit deep in the subnormal range
/// of the e=5 formats — the SubnormalRange lint target.
class TinyValuesApp final : public apps::KernelApp<TinyValuesApp> {
public:
    TinyValuesApp()
        : KernelApp({{"in", kN}, {"out", kN}}) {}

    [[nodiscard]] std::string_view name() const override { return "tiny"; }
    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<TinyValuesApp>(*this);
    }
    void prepare(unsigned input_set) override {
        for (std::size_t i = 0; i < kN; ++i) {
            input_[i] = 1e-30 * static_cast<double>(i + 1 + input_set);
        }
    }
    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const apps::TypeConfig& config) {
        auto in = ctx.make_array(config.at(0), kN);
        auto out = ctx.make_array(config.at(1), kN);
        for (std::size_t i = 0; i < kN; ++i) in.set_raw(i, input_[i]);
        for (std::size_t i = 0; i < kN; ++i) {
            const typename Ctx::Value v = in.load(i);
            out.store(i, apps::to(v + v, config.at(1)));
            ctx.loop_iteration();
        }
        std::vector<double> output;
        output.reserve(kN);
        for (std::size_t i = 0; i < kN; ++i) output.push_back(out.raw(i));
        return output;
    }

private:
    static constexpr std::size_t kN = 16;
    std::array<double, kN> input_{};
};

TEST(Analyze, SubnormalRangeDiagnosed) {
    TinyValuesApp app;
    analysis::DeriveOptions options;
    options.input_sets = {0};
    const auto result = analysis::analyze(app, 1e-2, options);
    EXPECT_EQ(result.lint.count(LintKind::SubnormalRange), 2u);
    for (const auto& sb : result.signals) {
        // 1e-30 needs e=8's range; the floor must see that.
        EXPECT_GE(sb.exp_floor_bits, 1);
    }
    ASSERT_EQ(result.ranges.size(), 2u);
    EXPECT_TRUE(result.ranges[0].populated);
    EXPECT_LT(result.ranges[0].max_abs, std::ldexp(1.0, -14));
}

// --- derive_warm_start + SearchOptions::static_bounds ------------------------

TEST(DeriveBounds, WarmStartIsSoundAndPrunesTrials) {
    auto app = apps::make_app("dwt");
    tuning::SearchOptions options;
    options.epsilon = 1e-3;
    options.input_sets = {0, 1};
    options.max_passes = 2;

    const tuning::WarmStart warm = analysis::derive_warm_start(
        *app, options.epsilon, options.input_sets, options.type_system);
    ASSERT_EQ(warm.seed_bits.size(), app->signals().size());
    ASSERT_EQ(warm.lower_bounds.size(), app->signals().size());
    for (std::size_t i = 0; i < warm.seed_bits.size(); ++i) {
        EXPECT_EQ(warm.seed_bits[i], kMaxPrecisionBits);
        EXPECT_GE(warm.lower_bounds[i], kMinPrecisionBits);
        EXPECT_LE(warm.lower_bounds[i], kMaxPrecisionBits);
    }

    tuning::EvalEngine cold_engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const tuning::TuningResult cold = distributed_search(cold_engine, options);

    // Soundness: no tuned signal below its derived bound.
    for (std::size_t i = 0; i < cold.signals.size(); ++i) {
        EXPECT_GE(cold.signals[i].precision_bits, warm.lower_bounds[i])
            << cold.signals[i].name;
    }

    // static_bounds resolves to exactly this warm start: same tuned
    // signals, never more submitted trials, and the pruned bisection steps
    // booked on the engine.
    tuning::EvalEngine bounded_engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    tuning::SearchOptions bounded_options = options;
    bounded_options.static_bounds = true;
    const tuning::TuningResult bounded =
        distributed_search(bounded_engine, bounded_options);
    ASSERT_EQ(bounded.signals.size(), cold.signals.size());
    for (std::size_t i = 0; i < cold.signals.size(); ++i) {
        EXPECT_EQ(bounded.signals[i].precision_bits,
                  cold.signals[i].precision_bits)
            << cold.signals[i].name;
        EXPECT_EQ(bounded.signals[i].bound, cold.signals[i].bound)
            << cold.signals[i].name;
    }
    EXPECT_LE(bounded.program_runs, cold.program_runs);
    EXPECT_GT(bounded_engine.stats().trials_skipped_by_bounds, 0u);
    EXPECT_EQ(cold_engine.stats().trials_skipped_by_bounds, 0u);
}

// --- analyze: dead-cast lint -------------------------------------------------

/// Two-signal app whose output demands binary32-level precision: at a
/// tight epsilon the derived bounds pin BOTH signals' reachable member
/// sets to {binary32}, so the in->out cast elides under every reachable
/// binding — the DeadCast lint target.
class CoupledPrecisionApp final : public apps::KernelApp<CoupledPrecisionApp> {
public:
    CoupledPrecisionApp()
        : KernelApp({{"in", kN}, {"out", kN}}) {}

    [[nodiscard]] std::string_view name() const override { return "coupled"; }
    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<CoupledPrecisionApp>(*this);
    }
    void prepare(unsigned input_set) override {
        for (std::size_t i = 0; i < kN; ++i) {
            input_[i] =
                1.0 + 1e-6 * static_cast<double>(i + 1 + input_set);
        }
    }
    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const apps::TypeConfig& config) {
        auto in = ctx.make_array(config.at(0), kN);
        auto out = ctx.make_array(config.at(1), kN);
        for (std::size_t i = 0; i < kN; ++i) in.set_raw(i, input_[i]);
        for (std::size_t i = 0; i < kN; ++i) {
            const typename Ctx::Value v = in.load(i);
            out.store(i, apps::to(v + v, config.at(1)));
            ctx.loop_iteration();
        }
        std::vector<double> output;
        output.reserve(kN);
        for (std::size_t i = 0; i < kN; ++i) output.push_back(out.raw(i));
        return output;
    }

private:
    static constexpr std::size_t kN = 16;
    std::array<double, kN> input_{};
};

TEST(Analyze, DeadCastDiagnosedWhenBoundsPinBothEndpoints) {
    CoupledPrecisionApp app;
    analysis::DeriveOptions options;
    options.input_sets = {0};

    // Tight epsilon: representing 1.0 + O(1e-6) outputs to within the
    // budget needs more than binary16's 11 bits at both endpoints, so
    // only binary32 remains reachable and the cast is provably dead.
    const auto tight = analysis::analyze(app, 1e-12, options);
    EXPECT_GE(tight.lint.count(LintKind::DeadCast), 1u);
    bool found = false;
    for (const auto& d : tight.lint.diagnostics) {
        if (d.kind != LintKind::DeadCast) continue;
        found = true;
        EXPECT_NE(d.message.find("in -> out"), std::string::npos) << d.message;
        EXPECT_NE(d.message.find("binary32"), std::string::npos) << d.message;
    }
    EXPECT_TRUE(found);
    EXPECT_NE(tight.to_string().find("dead-cast"), std::string::npos);

    // Loose epsilon: several member formats stay reachable for each
    // endpoint, so nothing is provably dead.
    const auto loose = analysis::analyze(app, 1e-1, options);
    EXPECT_EQ(loose.lint.count(LintKind::DeadCast), 0u);
}

TEST(DeriveBounds, StaticBoundsComposeWithCallerWarmStart) {
    auto app = apps::make_app("dwt");
    tuning::SearchOptions options;
    options.epsilon = 1e-2;
    options.input_sets = {0};
    options.max_passes = 2;
    options.static_bounds = true;
    // A caller-provided warm start survives: lower bounds combine by max.
    tuning::WarmStart caller;
    caller.seed_bits.assign(app->signals().size(), kMaxPrecisionBits);
    caller.lower_bounds.assign(app->signals().size(), kMinPrecisionBits + 1);
    options.warm_start = caller;

    tuning::EvalEngine engine{
        *app, tuning::EvalEngine::Options{.threads = 1, .memoize = true}};
    const tuning::TuningResult result = distributed_search(engine, options);
    for (const auto& sr : result.signals) {
        EXPECT_GE(sr.precision_bits, kMinPrecisionBits + 1) << sr.name;
    }
}

} // namespace
} // namespace tp
