#include "tuning/search.hpp"

#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "tuning/config_io.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/quality.hpp"

namespace {

using tp::tuning::distributed_search;
using tp::tuning::SearchOptions;

TEST(Quality, MeetsRequirementThresholds) {
    const std::vector<double> golden{1.0, 2.0, 3.0};
    const std::vector<double> close{1.01, 2.01, 3.01};
    // Amplitude error ~0.0046 -> power ratio ~2.2e-5.
    EXPECT_TRUE(tp::tuning::meets_requirement(golden, close, 1e-1));
    EXPECT_TRUE(tp::tuning::meets_requirement(golden, close, 1e-4));
    EXPECT_FALSE(tp::tuning::meets_requirement(golden, close, 1e-5));
    EXPECT_TRUE(tp::tuning::meets_requirement(golden, golden, 0.0));
}

TEST(ConfigIo, RoundTrip) {
    tp::tuning::PrecisionConfig config{{"grid", 12}, {"coeff", 3}};
    std::stringstream ss;
    tp::tuning::write_precision_config(ss, config);
    const auto parsed = tp::tuning::read_precision_config(ss);
    EXPECT_EQ(parsed, config);
}

TEST(ConfigIo, ParsesCommentsAndBlankLines) {
    std::istringstream is{"# header\n\ngrid 12 # trailing\n  coeff 3\n"};
    const auto parsed = tp::tuning::read_precision_config(is);
    EXPECT_EQ(parsed.at("grid"), 12);
    EXPECT_EQ(parsed.at("coeff"), 3);
}

TEST(ConfigIo, RejectsMalformedLines) {
    std::istringstream missing{"grid\n"};
    EXPECT_THROW((void)tp::tuning::read_precision_config(missing),
                 std::runtime_error);
    std::istringstream range{"grid 40\n"};
    EXPECT_THROW((void)tp::tuning::read_precision_config(range),
                 std::runtime_error);
    std::istringstream zero{"grid 0\n"};
    EXPECT_THROW((void)tp::tuning::read_precision_config(zero),
                 std::runtime_error);
    // Precision 1 would construct the invalid format {e, m=0}
    // (kMinPrecisionBits is 2) — the boundary must reject it too.
    std::istringstream below_min{"grid 1\n"};
    EXPECT_THROW((void)tp::tuning::read_precision_config(below_min),
                 std::runtime_error);
    std::istringstream trailing{"grid 5 junk\n"};
    EXPECT_THROW((void)tp::tuning::read_precision_config(trailing),
                 std::runtime_error);
    std::istringstream not_a_number{"grid twelve\n"};
    EXPECT_THROW((void)tp::tuning::read_precision_config(not_a_number),
                 std::runtime_error);
    // A signal named twice is ambiguous, not "last one wins": the error
    // names the second line and the signal, also on the warm-start path.
    const auto app = tp::apps::make_app("jacobi");
    std::istringstream duplicate{"grid 8\ngrid 20\ngrid_in 5\ncoeff 6\ntmp 7\n"};
    try {
        (void)tp::tuning::read_warm_start_seed(duplicate, app->signal_table());
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("'grid'"), std::string::npos) << what;
    }
}

TEST(ConfigIo, ValidatesAgainstSignalTable) {
    const auto app = tp::apps::make_app("jacobi");
    const auto& table = app->signal_table();

    // Every declared signal parses and validates.
    std::istringstream good{"grid 12\ncoeff 3\ngrid_in 5\ntmp 24\n"};
    const auto parsed = tp::tuning::read_precision_config(good, table);
    EXPECT_EQ(parsed.size(), 4u);
    EXPECT_EQ(parsed.at("grid_in"), 5);

    // An unknown signal is rejected loudly, not carried along.
    std::istringstream unknown{"grid 12\nnosuchsignal 7\n"};
    try {
        (void)tp::tuning::read_precision_config(unknown, table);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("nosuchsignal"), std::string::npos);
    }

    tp::tuning::PrecisionConfig stale{{"grid", 12}, {"renamed_signal", 3}};
    EXPECT_THROW(tp::tuning::validate_precision_config(stale, table),
                 std::runtime_error);
}

TEST(ConfigIo, RoundTripSurvivesCommentsAndBlankLines) {
    const auto app = tp::apps::make_app("dwt");
    const auto& table = app->signal_table();
    tp::tuning::PrecisionConfig config;
    for (const auto& spec : app->signals()) config[spec.name] = 11;
    config["acc"] = 24;

    // write -> decorate with comments/blank lines -> read+validate.
    std::stringstream ss;
    tp::tuning::write_precision_config(ss, config);
    std::string text = "# leading comment\n\n" + ss.str() + "\n  # trailing\n";
    std::istringstream is{text};
    const auto parsed = tp::tuning::read_precision_config(is, table);
    EXPECT_EQ(parsed, config);

    // A tuning result's exported config round-trips and validates too.
    auto search_app = tp::apps::make_app("dwt");
    SearchOptions options;
    options.input_sets = {0};
    options.max_passes = 1;
    const auto result = distributed_search(*search_app, options);
    std::stringstream rs;
    tp::tuning::write_precision_config(rs, result.precision_config());
    EXPECT_EQ(tp::tuning::read_precision_config(rs, table),
              result.precision_config());
}

// A saved config is a warm-start seed: the export of a tuning result
// reads back — against the app's signal table — as the exact per-signal
// bits vector, in declaration order.
TEST(ConfigIo, WarmStartSeedRoundTrip) {
    auto app = tp::apps::make_app("jacobi");
    SearchOptions options;
    options.input_sets = {0};
    options.max_passes = 1;
    const auto result = distributed_search(*app, options);

    std::stringstream ss;
    tp::tuning::write_precision_config(ss, result.precision_config());
    const std::vector<int> seed =
        tp::tuning::read_warm_start_seed(ss, app->signal_table());
    ASSERT_EQ(seed.size(), result.signals.size());
    for (std::size_t i = 0; i < seed.size(); ++i) {
        EXPECT_EQ(seed[i], result.signals[i].precision_bits)
            << result.signals[i].name;
    }
}

TEST(ConfigIo, SeedBitsRequireCompleteCoverage) {
    const auto app = tp::apps::make_app("jacobi");
    const auto& table = app->signal_table();

    // A config missing a declared signal names the gap.
    tp::tuning::PrecisionConfig partial{{"grid", 12}, {"coeff", 3}};
    try {
        (void)tp::tuning::seed_bits_from_config(partial, table);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("grid_in"), std::string::npos);
    }

    // An unknown signal is rejected by validation, same as read paths.
    tp::tuning::PrecisionConfig unknown{
        {"grid", 12}, {"coeff", 3}, {"grid_in", 5}, {"tmp", 24}, {"ghost", 7}};
    EXPECT_THROW((void)tp::tuning::seed_bits_from_config(unknown, table),
                 std::runtime_error);
}

SearchOptions fast_options(double epsilon, tp::TypeSystemKind kind) {
    SearchOptions options;
    options.epsilon = epsilon;
    options.type_system = tp::TypeSystem{kind};
    options.input_sets = {0, 1};
    options.max_passes = 2;
    return options;
}

TEST(Search, TunedConfigMeetsRequirementOnAllSets) {
    auto app = tp::apps::make_app("conv");
    const auto options = fast_options(1e-1, tp::TypeSystemKind::V2);
    const auto result = distributed_search(*app, options);
    ASSERT_EQ(result.signals.size(), app->signals().size());
    EXPECT_GT(result.program_runs, 0u);

    const auto config = result.type_config();
    for (unsigned set : options.input_sets) {
        const auto golden = app->golden(set);
        app->prepare(set);
        tp::sim::TpContext ctx{tp::sim::TpContext::Config{.trace = false}};
        const auto out = app->run(ctx, config);
        EXPECT_TRUE(tp::tuning::meets_requirement(golden, out, options.epsilon))
            << "set " << set
            << " err=" << tp::tuning::output_error(golden, out);
    }
}

TEST(Search, LooserRequirementNeverNeedsMorePrecision) {
    auto app = tp::apps::make_app("dwt");
    const auto loose =
        distributed_search(*app, fast_options(1e-1, tp::TypeSystemKind::V2));
    const auto tight =
        distributed_search(*app, fast_options(1e-3, tp::TypeSystemKind::V2));
    std::size_t loose_total = 0;
    std::size_t tight_total = 0;
    for (std::size_t i = 0; i < loose.signals.size(); ++i) {
        loose_total += static_cast<std::size_t>(loose.signals[i].precision_bits);
        tight_total += static_cast<std::size_t>(tight.signals[i].precision_bits);
    }
    EXPECT_LE(loose_total, tight_total);
}

TEST(Search, SomeSignalsShrinkAtLooseRequirement) {
    auto app = tp::apps::make_app("knn");
    const auto result =
        distributed_search(*app, fast_options(1e-1, tp::TypeSystemKind::V2));
    bool any_narrow = false;
    for (const auto& sr : result.signals) {
        any_narrow = any_narrow || sr.bound != tp::FormatKind::Binary32;
    }
    EXPECT_TRUE(any_narrow) << "KNN at 1e-1 should scale below binary32";
}

TEST(Search, BindingMatchesTypeSystemBands) {
    auto app = tp::apps::make_app("conv");
    for (const auto kind : {tp::TypeSystemKind::V1, tp::TypeSystemKind::V2}) {
        const auto result = distributed_search(*app, fast_options(1e-2, kind));
        const tp::TypeSystem ts{kind};
        for (const auto& sr : result.signals) {
            EXPECT_EQ(sr.bound, ts.format_for_precision(sr.precision_bits));
            if (kind == tp::TypeSystemKind::V1) {
                EXPECT_NE(sr.bound, tp::FormatKind::Binary16Alt);
            }
        }
    }
}

TEST(Search, TableAndHistogramAccounting) {
    auto app = tp::apps::make_app("svm");
    const auto result =
        distributed_search(*app, fast_options(1e-1, tp::TypeSystemKind::V2));
    const auto per_format = result.variables_per_format();
    int total = 0;
    for (int count : per_format) total += count;
    EXPECT_EQ(total, static_cast<int>(result.signals.size()));

    const auto histogram = result.locations_per_precision();
    std::size_t locations = 0;
    for (std::size_t bits = 1; bits <= tp::kMaxPrecisionBits; ++bits) {
        locations += histogram[bits];
    }
    std::size_t expected = 0;
    for (const auto& spec : app->signals()) expected += spec.elements;
    EXPECT_EQ(locations, expected);
}

TEST(Search, PrecisionConfigExport) {
    auto app = tp::apps::make_app("conv");
    const auto result =
        distributed_search(*app, fast_options(1e-1, tp::TypeSystemKind::V1));
    const auto config = result.precision_config();
    EXPECT_EQ(config.size(), result.signals.size());
    for (const auto& sr : result.signals) {
        EXPECT_EQ(config.at(sr.name), sr.precision_bits);
    }
}

// The determinism contract of the parallel engine (search.hpp): pools of
// 2, 4 and 8 threads must each return a TuningResult bit-identical to the
// serial reference path, program_runs included.
void expect_parallel_matches_serial(const std::string& app_name) {
    auto serial_app = tp::apps::make_app(app_name);
    SearchOptions serial_options = fast_options(1e-2, tp::TypeSystemKind::V2);
    serial_options.threads = 1;
    const auto serial = distributed_search(*serial_app, serial_options);

    for (const unsigned threads : {2u, 4u, 8u}) {
        auto parallel_app = tp::apps::make_app(app_name);
        SearchOptions parallel_options = serial_options;
        parallel_options.threads = threads;
        const auto parallel =
            distributed_search(*parallel_app, parallel_options);
        const std::string label =
            app_name + " threads=" + std::to_string(threads);

        EXPECT_EQ(serial.program_runs, parallel.program_runs) << label;
        EXPECT_EQ(serial.epsilon, parallel.epsilon) << label;
        EXPECT_EQ(serial.type_system, parallel.type_system) << label;
        ASSERT_EQ(serial.signals.size(), parallel.signals.size()) << label;
        for (std::size_t i = 0; i < serial.signals.size(); ++i) {
            EXPECT_EQ(serial.signals[i].name, parallel.signals[i].name);
            EXPECT_EQ(serial.signals[i].elements, parallel.signals[i].elements);
            EXPECT_EQ(serial.signals[i].precision_bits,
                      parallel.signals[i].precision_bits)
                << label << " signal " << serial.signals[i].name;
            EXPECT_EQ(serial.signals[i].bound, parallel.signals[i].bound)
                << label << " signal " << serial.signals[i].name;
        }
        // The memberwise predicate covers any future TuningResult field.
        EXPECT_TRUE(serial == parallel) << label;
    }
}

TEST(Search, ParallelMatchesSerialPca) { expect_parallel_matches_serial("pca"); }

TEST(Search, ParallelMatchesSerialDwt) { expect_parallel_matches_serial("dwt"); }

TEST(Search, DeterministicAcrossRuns) {
    auto app1 = tp::apps::make_app("dwt");
    auto app2 = tp::apps::make_app("dwt");
    const auto a =
        distributed_search(*app1, fast_options(1e-2, tp::TypeSystemKind::V2));
    const auto b =
        distributed_search(*app2, fast_options(1e-2, tp::TypeSystemKind::V2));
    ASSERT_EQ(a.signals.size(), b.signals.size());
    for (std::size_t i = 0; i < a.signals.size(); ++i) {
        EXPECT_EQ(a.signals[i].precision_bits, b.signals[i].precision_bits);
    }
}

// A malformed warm start is rejected before any trial runs: the search
// throws std::invalid_argument and the engine submits nothing.
TEST(Search, WarmStartIsValidatedAgainstTheSignalTable) {
    auto app = tp::apps::make_app("dwt");
    const std::size_t n = app->signals().size();
    auto options = fast_options(1e-2, tp::TypeSystemKind::V2);

    const auto expect_rejected = [&](tp::tuning::WarmStart bad) {
        options.warm_start = std::move(bad);
        EXPECT_THROW((void)distributed_search(*app, options),
                     std::invalid_argument);
    };

    tp::tuning::WarmStart wrong_size;
    wrong_size.seed_bits.assign(n + 1, 12);
    expect_rejected(wrong_size);

    tp::tuning::WarmStart out_of_range;
    out_of_range.seed_bits.assign(n, 12);
    out_of_range.seed_bits[0] = tp::kMaxPrecisionBits + 1;
    expect_rejected(out_of_range);

    tp::tuning::WarmStart below_min;
    below_min.seed_bits.assign(n, 12);
    below_min.seed_bits[0] = tp::kMinPrecisionBits - 1;
    expect_rejected(below_min);

    tp::tuning::WarmStart bad_bounds;
    bad_bounds.seed_bits.assign(n, 12);
    bad_bounds.lower_bounds.assign(n, 8);
    bad_bounds.lower_bounds[0] = tp::kMaxPrecisionBits + 1; // off the lattice
    expect_rejected(bad_bounds);

    tp::tuning::WarmStart short_bounds;
    short_bounds.seed_bits.assign(n, 12);
    short_bounds.lower_bounds.assign(n - 1, 4); // bounds are all-or-none
    expect_rejected(short_bounds);
}

// A request no search can answer — no input sets, or an epsilon that is
// NaN, infinite, zero or negative — throws std::invalid_argument before
// the engine runs anything, static bounds or not: no golden run, no trial.
// A sweep is checked whole before its first search: neither an empty one
// nor one whose bad entry comes after a good one runs anything.
TEST(Search, MalformedRequestIsRejectedBeforeAnyRun) {
    auto app = tp::apps::make_app("dwt");
    tp::tuning::EvalEngine engine{
        *app, tp::tuning::EvalEngine::Options{.threads = 1, .memoize = true}};

    for (const bool static_bounds : {false, true}) {
        auto no_sets = fast_options(1e-2, tp::TypeSystemKind::V2);
        no_sets.input_sets = {};
        no_sets.static_bounds = static_bounds;
        EXPECT_THROW((void)distributed_search(engine, no_sets),
                     std::invalid_argument);

        for (const double epsilon :
             {std::numeric_limits<double>::quiet_NaN(),
              std::numeric_limits<double>::infinity(), 0.0, -1e-2}) {
            auto bad = fast_options(epsilon, tp::TypeSystemKind::V2);
            bad.static_bounds = static_bounds;
            EXPECT_THROW((void)distributed_search(engine, bad),
                         std::invalid_argument)
                << "epsilon " << epsilon;
        }
    }

    const auto base = fast_options(1e-2, tp::TypeSystemKind::V2);
    EXPECT_THROW((void)tp::tuning::sweep_search(engine, base, {}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)tp::tuning::sweep_search(
            engine, base, {1e-3, std::numeric_limits<double>::quiet_NaN()}),
        std::invalid_argument);
    EXPECT_EQ(engine.stats(), tp::tuning::EvalStats{});
}

// A warm start seeded from a result at the SAME requirement can only
// remove work: per-signal bits never exceed the cold search's and
// program_runs shrinks (the clamped bisections and elided verifications
// are reported, not silently dropped). The seed itself caps the probes:
// seeded at the lattice top, which caps nothing, the search keeps only the
// elided verifications and submits more trials.
TEST(Search, WarmStartFromOwnResultIsFrugalAndNoLessPrecise) {
    const auto options = fast_options(1e-2, tp::TypeSystemKind::V2);
    auto cold_app = tp::apps::make_app("pca");
    const auto cold = distributed_search(*cold_app, options);

    auto warm_options = options;
    warm_options.warm_start = tp::tuning::warm_start_from(cold);
    auto warm_app = tp::apps::make_app("pca");
    const auto warm = distributed_search(*warm_app, warm_options);

    EXPECT_LT(warm.program_runs, cold.program_runs);
    ASSERT_EQ(warm.signals.size(), cold.signals.size());
    for (std::size_t i = 0; i < warm.signals.size(); ++i) {
        EXPECT_LE(warm.signals[i].precision_bits,
                  cold.signals[i].precision_bits)
            << warm.signals[i].name;
    }

    tp::tuning::WarmStart top_seed;
    top_seed.seed_bits.assign(cold.signals.size(), tp::kMaxPrecisionBits);
    auto top_options = options;
    top_options.warm_start = top_seed;
    auto top_app = tp::apps::make_app("pca");
    const auto top = distributed_search(*top_app, top_options);
    EXPECT_LT(warm.program_runs, top.program_runs);
}

// sweep_search's chaining is exactly "seed each epsilon with
// warm_start_from of the tightest completed predecessor": the in-order
// sweep must reproduce a hand-rolled chain bit for bit, and the
// unchained sweep must reproduce independent searches.
TEST(Search, SweepSearchMatchesHandRolledWarmStartChain) {
    const std::vector<double> epsilons{1e-3, 1e-2, 1e-1};
    const auto base = fast_options(0.0, tp::TypeSystemKind::V2);

    auto sweep_app = tp::apps::make_app("dwt");
    const auto chained =
        tp::tuning::sweep_search(*sweep_app, base, epsilons, true);
    ASSERT_EQ(chained.size(), epsilons.size());

    auto manual_app = tp::apps::make_app("dwt");
    std::vector<tp::tuning::TuningResult> manual;
    for (const double epsilon : epsilons) {
        auto options = base;
        options.epsilon = epsilon;
        if (!manual.empty()) {
            options.warm_start = tp::tuning::warm_start_from(manual.back());
        }
        manual.push_back(distributed_search(*manual_app, options));
    }
    for (std::size_t e = 0; e < epsilons.size(); ++e) {
        EXPECT_TRUE(chained[e] == manual[e]) << "epsilon " << epsilons[e];
    }

    auto independent_app = tp::apps::make_app("dwt");
    const auto independent =
        tp::tuning::sweep_search(*independent_app, base, epsilons, false);
    for (std::size_t e = 0; e < epsilons.size(); ++e) {
        auto options = base;
        options.epsilon = epsilons[e];
        auto direct_app = tp::apps::make_app("dwt");
        EXPECT_TRUE(independent[e] == distributed_search(*direct_app, options))
            << "epsilon " << epsilons[e];
    }
}

} // namespace
