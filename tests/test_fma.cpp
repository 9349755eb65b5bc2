// Fused multiply-add across all backends: softfloat (integer), flexfloat
// (binary64 fast path / exact fallback), FlexFloatDyn, the FPU model and
// the traced context.
#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "flexfloat/flexfloat.hpp"
#include "flexfloat/flexfloat_dyn.hpp"
#include "flexfloat/fma_exact.hpp"
#include "fpu/transprecision_fpu.hpp"
#include "sim/context.hpp"
#include "sim/pipeline.hpp"
#include "softfloat/softfloat.hpp"
#include "types/encoding.hpp"
#include "util/random.hpp"

namespace {

namespace sf = tp::softfloat;
using tp::decode;
using tp::encode;
using tp::FpFormat;

/// Round-to-odd oracle. A round-to-NEAREST binary64 intermediate is wrong
/// for fma (ties at the target can be broken by an addend far below the
/// 53-bit reach), but a round-to-ODD intermediate is innocuous with just
/// two spare bits: compute toward zero, then force the last bit when the
/// result was inexact. Independent of the softfloat implementation.
std::uint64_t oracle_fma(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         FpFormat f) {
    const double da = decode(a, f);
    const double db = decode(b, f);
    const double dc = decode(c, f);
    const int old_mode = std::fegetround();
    std::fesetround(FE_TOWARDZERO);
    std::feclearexcept(FE_INEXACT);
    double t = std::fma(da, db, dc);
    const bool inexact = std::fetestexcept(FE_INEXACT) != 0;
    std::fesetround(old_mode);
    // Note: an inexact zero (deep underflow toward zero) must also jam to
    // the minimal subnormal of the right sign — |= 1 on the pattern does.
    if (inexact && std::isfinite(t)) {
        auto bits = std::bit_cast<std::uint64_t>(t);
        bits |= 1; // round-to-odd: jam the sticky into the last bit
        t = std::bit_cast<double>(bits);
    }
    return encode(t, f);
}

void expect_fma(std::uint64_t a, std::uint64_t b, std::uint64_t c, FpFormat f) {
    const std::uint64_t got = sf::fma(a, b, c, f);
    const std::uint64_t want = oracle_fma(a, b, c, f);
    const bool got_nan = sf::is_nan(got, f);
    const bool want_nan = std::isnan(decode(want, f));
    if (got_nan || want_nan) {
        ASSERT_EQ(got_nan, want_nan) << std::hex << a << ' ' << b << ' ' << c;
        return;
    }
    ASSERT_EQ(got, want) << std::hex << "a=" << a << " b=" << b << " c=" << c;
}

TEST(SoftFloatFma, ExhaustiveBinary8PairsSampledAddend) {
    // All (a, b) pairs with a rotating sample of addends: ~2M cases.
    const FpFormat f = tp::kBinary8;
    for (std::uint64_t a = 0; a < 256; ++a) {
        for (std::uint64_t b = 0; b < 256; ++b) {
            for (std::uint64_t c = (a * 7 + b) % 8; c < 256; c += 8) {
                expect_fma(a, b, c, f);
            }
        }
    }
}

class FmaRandom : public ::testing::TestWithParam<FpFormat> {};

TEST_P(FmaRandom, MatchesRoundToOddOracle) {
    const FpFormat f = GetParam();
    tp::util::Xoshiro256 rng{0xF3A + f.exp_bits * 41u + f.mant_bits};
    const std::uint64_t mask = tp::bit_mask(f);
    for (int i = 0; i < 300000; ++i) {
        expect_fma(rng() & mask, rng() & mask, rng() & mask, f);
    }
}

INSTANTIATE_TEST_SUITE_P(NarrowFormats, FmaRandom,
                         ::testing::Values(tp::kBinary8, tp::kBinary16,
                                           tp::kBinary16Alt, FpFormat{3, 3},
                                           FpFormat{6, 9}, FpFormat{8, 11}),
                         [](const auto& info) {
                             return "e" + std::to_string(info.param.exp_bits) +
                                    "m" + std::to_string(info.param.mant_bits);
                         });

TEST(SoftFloatFma, Binary32AlgebraicProperties) {
    // binary32 sits outside the double-fma oracle envelope; check the
    // algebraic anchors instead.
    const FpFormat f = tp::kBinary32;
    tp::util::Xoshiro256 rng{0xFA32};
    const std::uint64_t mask = tp::bit_mask(f);
    const std::uint64_t one = encode(1.0, f);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t a = rng() & mask;
        const std::uint64_t b = rng() & mask;
        const std::uint64_t c = rng() & mask;
        if (sf::is_nan(a, f) || sf::is_nan(b, f) || sf::is_nan(c, f)) continue;
        // fma(a, b, 0) == a * b whenever the product is not a zero whose
        // sign the +0 addend would flip.
        const std::uint64_t prod = sf::mul(a, b, f);
        if (!sf::is_zero(prod, f) && !sf::is_nan(prod, f)) {
            ASSERT_EQ(sf::fma(a, b, 0, f), prod);
        }
        // fma(a, 1, c) == a + c.
        const std::uint64_t sum = sf::add(a, c, f);
        const std::uint64_t got = sf::fma(a, one, c, f);
        if (sf::is_nan(sum, f)) {
            ASSERT_TRUE(sf::is_nan(got, f));
        } else {
            ASSERT_EQ(got, sum);
        }
    }
}

TEST(SoftFloatFma, Binary32WithinOneUlpOfDoubleFma) {
    const FpFormat f = tp::kBinary32;
    tp::util::Xoshiro256 rng{0x1A32};
    const std::uint64_t mask = tp::bit_mask(f);
    const std::uint64_t sign_bit = 1ULL << 31;
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t a = rng() & mask;
        const std::uint64_t b = rng() & mask;
        const std::uint64_t c = rng() & mask;
        if (sf::is_nan(a, f) || sf::is_nan(b, f) || sf::is_nan(c, f)) continue;
        const std::uint64_t got = sf::fma(a, b, c, f);
        const std::uint64_t approx = oracle_fma(a, b, c, f);
        if (sf::is_nan(got, f) || std::isnan(decode(approx, f))) continue;
        if (sf::is_zero(got, f) && sf::is_zero(approx, f)) continue;
        ASSERT_EQ(got & sign_bit, approx & sign_bit);
        const std::uint64_t mg = got & ~sign_bit;
        const std::uint64_t ma = approx & ~sign_bit;
        ASSERT_LE(mg > ma ? mg - ma : ma - mg, 1u)
            << std::hex << "a=" << a << " b=" << b << " c=" << c;
    }
}

TEST(SoftFloatFma, SingleRoundingBeatsMulThenAdd) {
    // The defining FMA property: there exist inputs where mul-then-add
    // double-rounds but fma does not.
    const FpFormat f = tp::kBinary16;
    tp::util::Xoshiro256 rng{0x0FF5};
    const std::uint64_t mask = tp::bit_mask(f);
    int divergences = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t a = rng() & mask;
        const std::uint64_t b = rng() & mask;
        const std::uint64_t c = rng() & mask;
        if (sf::is_nan(a, f) || sf::is_nan(b, f) || sf::is_nan(c, f)) continue;
        const std::uint64_t fused = sf::fma(a, b, c, f);
        const std::uint64_t split = sf::add(sf::mul(a, b, f), c, f);
        if (sf::is_nan(fused, f) || sf::is_nan(split, f)) continue;
        if (fused != split) ++divergences;
    }
    EXPECT_GT(divergences, 0);
}

TEST(SoftFloatFma, SpecialValues) {
    const FpFormat f = tp::kBinary16;
    const std::uint64_t inf = sf::infinity(f, false);
    const std::uint64_t ninf = sf::infinity(f, true);
    const std::uint64_t one = encode(1.0, f);
    const std::uint64_t zero = 0;
    EXPECT_TRUE(sf::is_nan(sf::fma(inf, zero, one, f), f));   // inf * 0
    EXPECT_TRUE(sf::is_nan(sf::fma(one, inf, ninf, f), f));   // inf - inf
    EXPECT_EQ(sf::fma(inf, one, one, f), inf);
    EXPECT_EQ(sf::fma(one, one, ninf, f), ninf);
    EXPECT_TRUE(sf::is_nan(sf::fma(sf::quiet_nan(f), one, one, f), f));
    // Exact cancellation gives +0: 1 * 1 + (-1).
    EXPECT_EQ(sf::fma(one, one, encode(-1.0, f), f), 0u);
    // Zero product passes the addend through.
    EXPECT_EQ(sf::fma(zero, one, encode(2.5, f), f), encode(2.5, f));
}

TEST(FlexFloatFma, MatchesSoftFloatOnEveryPaperFormat) {
    tp::util::Xoshiro256 rng{0xFF3A};
    const auto check = [&]<int E, int M>(std::integral_constant<int, E>,
                                         std::integral_constant<int, M>) {
        constexpr FpFormat f{E, M};
        const std::uint64_t mask = tp::bit_mask(f);
        for (int i = 0; i < 50000; ++i) {
            const std::uint64_t a = rng() & mask;
            const std::uint64_t b = rng() & mask;
            const std::uint64_t c = rng() & mask;
            if (sf::is_nan(a, f) || sf::is_nan(b, f) || sf::is_nan(c, f)) continue;
            const auto fa = tp::flexfloat<E, M>::from_bits(a);
            const auto fb = tp::flexfloat<E, M>::from_bits(b);
            const auto fc = tp::flexfloat<E, M>::from_bits(c);
            const std::uint64_t got = fma(fa, fb, fc).bits();
            const std::uint64_t want = sf::fma(a, b, c, f);
            if (sf::is_nan(got, f) || sf::is_nan(want, f)) {
                ASSERT_EQ(sf::is_nan(got, f), sf::is_nan(want, f));
                continue;
            }
            ASSERT_EQ(got, want)
                << "E=" << E << " M=" << M << std::hex << " a=" << a
                << " b=" << b << " c=" << c;
        }
    };
    check(std::integral_constant<int, 5>{}, std::integral_constant<int, 2>{});
    check(std::integral_constant<int, 5>{}, std::integral_constant<int, 10>{});
    check(std::integral_constant<int, 8>{}, std::integral_constant<int, 7>{});
    check(std::integral_constant<int, 8>{}, std::integral_constant<int, 23>{});
}

TEST(FlexFloatFma, DynMatchesTemplate) {
    tp::util::Xoshiro256 rng{0xD13A};
    for (int i = 0; i < 20000; ++i) {
        const double a = rng.normal(0.0, 10.0);
        const double b = rng.normal(0.0, 10.0);
        const double c = rng.normal(0.0, 10.0);
        const tp::FlexFloatDyn da{a, tp::kBinary16};
        const tp::FlexFloatDyn db{b, tp::kBinary16};
        const tp::FlexFloatDyn dc{c, tp::kBinary16};
        const tp::binary16_t ta = a;
        const tp::binary16_t tb = b;
        const tp::binary16_t tc = c;
        ASSERT_EQ(fma(da, db, dc).value(), static_cast<double>(fma(ta, tb, tc)));
    }
}

TEST(FlexFloatFma, NearestDoubleFmaOracleWouldBeWrong) {
    // Documents why flexfloat routes fma through the integer path: there
    // exist ties the 53-bit round-to-nearest intermediate resolves wrongly.
    const FpFormat f = tp::kBinary16Alt;
    tp::util::Xoshiro256 rng{0x0DD1};
    const std::uint64_t mask = tp::bit_mask(f);
    int divergences = 0;
    for (int i = 0; i < 500000; ++i) {
        const std::uint64_t a = rng() & mask;
        const std::uint64_t b = rng() & mask;
        const std::uint64_t c = rng() & mask;
        if (sf::is_nan(a, f) || sf::is_nan(b, f) || sf::is_nan(c, f)) continue;
        const std::uint64_t nearest_oracle =
            encode(std::fma(decode(a, f), decode(b, f), decode(c, f)), f);
        const std::uint64_t exact = sf::fma(a, b, c, f);
        if (sf::is_nan(exact, f)) continue;
        if (exact != nearest_oracle) ++divergences;
    }
    EXPECT_GT(divergences, 0);
}

TEST(FpuFma, ExecuteAndAccount) {
    tp::fpu::TransprecisionFpu fpu;
    const tp::FlexFloatDyn a{1.5, tp::kBinary16};
    const tp::FlexFloatDyn b{2.0, tp::kBinary16};
    const tp::FlexFloatDyn c{0.25, tp::kBinary16};
    EXPECT_EQ(fpu.execute_fma(a, b, c).value(), 3.25);
    EXPECT_EQ(fpu.counters().scalar_ops, 1u);
    EXPECT_THROW((void)fpu.execute_fma(a, b, tp::FlexFloatDyn{1.0, tp::kBinary8}),
                 std::invalid_argument);
    // An FMA costs less than a separate mul + add at the same format.
    const auto& m = tp::fpu::default_energy_model();
    EXPECT_LT(m.fp_op(tp::FpOp::Fma, tp::kBinary16),
              m.fp_op(tp::FpOp::Add, tp::kBinary16) +
                  m.fp_op(tp::FpOp::Mul, tp::kBinary16));
    EXPECT_FALSE(tp::fpu::TransprecisionFpu::supports(tp::FpOp::Fma, tp::kBinary32));
}

TEST(ContextFma, EmitsTernaryInstr) {
    tp::sim::TpContext ctx;
    const auto a = ctx.constant(1.5, tp::kBinary16);
    const auto b = ctx.constant(2.0, tp::kBinary16);
    const auto c = ctx.constant(0.25, tp::kBinary16);
    const auto r = fma(a, b, c);
    EXPECT_EQ(r.value(), 3.25);
    const auto program = ctx.take_program(false);
    ASSERT_EQ(program.instrs.size(), 1u);
    EXPECT_EQ(program.instrs[0].op, tp::FpOp::Fma);
    EXPECT_GE(program.instrs[0].src3, 0);
}

TEST(ContextFma, DependencyThroughThirdOperandStalls) {
    tp::sim::TpContext ctx;
    const auto a = ctx.constant(1.0, tp::kBinary32);
    const auto c = a * a;      // 2-cycle producer
    (void)fma(a, a, c);        // consumer via src3
    const auto program = ctx.take_program(false);
    const auto result = tp::sim::run_pipeline(program);
    EXPECT_GE(result.stall_cycles, 1u);
}

} // namespace
