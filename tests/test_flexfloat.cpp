#include "flexfloat/flexfloat.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>

#include <gtest/gtest.h>

#include "flexfloat/arith_backend.hpp"
#include "flexfloat/sanitize.hpp"
#include "softfloat/softfloat.hpp"
#include "types/encoding.hpp"
#include "util/random.hpp"

namespace {

namespace sf = tp::softfloat;
using tp::flexfloat;
using tp::FpFormat;

TEST(FlexFloat, LiteralConstructionRoundsToFormat) {
    const tp::binary16_t a = 1.0 + std::ldexp(1.0, -11); // ties to even
    EXPECT_EQ(static_cast<double>(a), 1.0);
    const tp::binary8_t b = 0.3; // nearest binary8 is 0.3125
    EXPECT_EQ(static_cast<double>(b), 0.3125);
    const tp::binary32_t c = 0.1f;
    EXPECT_EQ(static_cast<double>(c), static_cast<double>(0.1f));
}

TEST(FlexFloat, IntLiteralsWorkThroughDoubleConversion) {
    const tp::binary16_t a = 2; // int -> double -> flexfloat
    EXPECT_EQ(static_cast<double>(a), 2.0);
}

TEST(FlexFloat, DefaultIsZero) {
    const tp::binary16_t a;
    EXPECT_EQ(static_cast<double>(a), 0.0);
}

TEST(FlexFloat, ArithmeticInfixNotation) {
    const tp::binary16_t a = 1.5;
    const tp::binary16_t b = 0.25;
    EXPECT_EQ(static_cast<double>(a + b), 1.75);
    EXPECT_EQ(static_cast<double>(a - b), 1.25);
    EXPECT_EQ(static_cast<double>(a * b), 0.375);
    EXPECT_EQ(static_cast<double>(a / b), 6.0);
    EXPECT_EQ(static_cast<double>(-a), -1.5);
    tp::binary16_t c = a;
    c += b;
    c *= b;
    EXPECT_EQ(static_cast<double>(c), 0.4375);
}

TEST(FlexFloat, NoImplicitMixedFormatArithmetic) {
    // Distinct instantiations must not convert into each other implicitly;
    // this is the compile-time control the paper highlights.
    static_assert(!std::is_convertible_v<tp::binary16_t, tp::binary16alt_t>);
    static_assert(!std::is_convertible_v<tp::binary32_t, tp::binary16_t>);
    static_assert(std::is_constructible_v<tp::binary16alt_t, tp::binary16_t>);
    // Conversion to native types is explicit only.
    static_assert(!std::is_convertible_v<tp::binary16_t, double>);
    static_assert(std::is_constructible_v<double, tp::binary16_t>);
    // Construction from native FP types is implicit (literals work).
    static_assert(std::is_convertible_v<double, tp::binary16_t>);
    static_assert(std::is_convertible_v<float, tp::binary8_t>);
}

TEST(FlexFloat, ExplicitCastBetweenInstances) {
    const tp::binary32_t wide = 3.14159f;
    const auto narrow = tp::flexfloat_cast<5, 10>(wide);
    EXPECT_EQ(static_cast<double>(narrow),
              tp::quantize(static_cast<double>(wide), tp::kBinary16));
    const tp::binary16alt_t alt{wide}; // constructor form
    EXPECT_EQ(static_cast<double>(alt),
              tp::quantize(static_cast<double>(wide), tp::kBinary16Alt));
}

TEST(FlexFloat, Binary16SaturatesLargeValuesButBinary16AltDoesNot) {
    // The paper's core argument for binary16alt: it shares binary32's
    // dynamic range, so large-magnitude conversions do not saturate.
    const tp::binary32_t big = 1.0e20f;
    const auto as16 = tp::flexfloat_cast<5, 10>(big);
    const auto as16alt = tp::flexfloat_cast<8, 7>(big);
    EXPECT_TRUE(std::isinf(static_cast<double>(as16)));
    EXPECT_FALSE(std::isinf(static_cast<double>(as16alt)));
    EXPECT_NEAR(static_cast<double>(as16alt), 1.0e20, 1.0e20 * 0.01);
}

TEST(FlexFloat, Binary8MirrorsBinary16Range) {
    // Conversions binary8 <-> binary16 only affect precision, not range.
    const tp::binary16_t v = 40000.0;
    const auto as8 = tp::flexfloat_cast<5, 2>(v);
    EXPECT_TRUE(std::isfinite(static_cast<double>(as8)));
}

TEST(FlexFloat, BitsRoundTrip) {
    const tp::binary16_t a = -1.5;
    EXPECT_EQ(a.bits(), 0xbe00u);
    EXPECT_EQ(static_cast<double>(tp::binary16_t::from_bits(0xbe00u)), -1.5);
}

TEST(FlexFloat, ComparisonSemantics) {
    const tp::binary16_t a = 1.0;
    const tp::binary16_t b = 2.0;
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(a <= b);
    EXPECT_TRUE(b > a);
    EXPECT_TRUE(b >= a);
    EXPECT_TRUE(a != b);
    EXPECT_FALSE(a == b);
    const tp::binary16_t nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(nan == nan);
    EXPECT_FALSE(nan < a);
    EXPECT_FALSE(nan >= a);
}

TEST(FlexFloat, SqrtAndAbs) {
    const tp::binary16_t a = 2.25;
    EXPECT_EQ(static_cast<double>(sqrt(a)), 1.5);
    EXPECT_EQ(static_cast<double>(abs(tp::binary16_t{-3.0})), 3.0);
}

TEST(FlexFloat, StreamInsertion) {
    std::ostringstream os;
    os << tp::binary16_t{1.5};
    EXPECT_EQ(os.str(), "1.5");
}

TEST(FlexFloat, NaNAndInfPropagation) {
    const tp::binary16_t inf = std::numeric_limits<double>::infinity();
    const tp::binary16_t one = 1.0;
    EXPECT_TRUE(std::isinf(static_cast<double>(inf + one)));
    EXPECT_TRUE(std::isnan(static_cast<double>(inf - inf)));
    EXPECT_TRUE(std::isnan(static_cast<double>(inf * tp::binary16_t{0.0})));
}

TEST(FlexFloat, DenormalSupport) {
    const double sub = std::ldexp(3.0, -24); // 3 binary16 subnormal ulps
    const tp::binary16_t a = sub;
    EXPECT_EQ(static_cast<double>(a), sub);
    EXPECT_EQ(a.bits(), 0x0003u);
}

// --- bit-exactness against the independent softfloat oracle ---------------

template <int E, int M>
void cross_check_ops(std::uint64_t seed, int iterations) {
    constexpr FpFormat f{E, M};
    tp::util::Xoshiro256 rng{seed};
    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t abits = rng() & tp::bit_mask(f);
        const std::uint64_t bbits = rng() & tp::bit_mask(f);
        if (sf::is_nan(abits, f) || sf::is_nan(bbits, f)) continue;
        const auto a = flexfloat<E, M>::from_bits(abits);
        const auto b = flexfloat<E, M>::from_bits(bbits);
        ASSERT_EQ((a + b).bits(), sf::add(abits, bbits, f)) << i;
        ASSERT_EQ((a - b).bits(), sf::sub(abits, bbits, f)) << i;
        ASSERT_EQ((a * b).bits(), sf::mul(abits, bbits, f)) << i;
        const auto q = (a / b).bits();
        const auto qs = sf::div(abits, bbits, f);
        if (sf::is_nan(q, f) || sf::is_nan(qs, f)) {
            ASSERT_EQ(sf::is_nan(q, f), sf::is_nan(qs, f)) << i;
        } else {
            ASSERT_EQ(q, qs) << i;
        }
    }
}

TEST(FlexFloatBitExact, Binary8) { cross_check_ops<5, 2>(1, 100000); }
TEST(FlexFloatBitExact, Binary16) { cross_check_ops<5, 10>(2, 100000); }
TEST(FlexFloatBitExact, Binary16Alt) { cross_check_ops<8, 7>(3, 100000); }
TEST(FlexFloatBitExact, Binary32) { cross_check_ops<8, 23>(4, 100000); }
TEST(FlexFloatBitExact, OddFormat_e6m9) { cross_check_ops<6, 9>(5, 100000); }
TEST(FlexFloatBitExact, TinyFormat_e3m3) { cross_check_ops<3, 3>(6, 100000); }

// --- the sanitize fast path must equal the exact quantize ------------------

// sanitize's fast path, and tp::arith::cast on the resolved backend and
// forced-emulated, all match the bit-level quantize() reference on every
// (e, m) of the format lattice. PlainArray and TpArray round their
// set_raw() writes with arith::cast, so this is also their check.
TEST(FlexFloatSanitize, FastPathMatchesQuantizeEverywhere) {
    tp::util::Xoshiro256 rng{0x5A71};
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (int e = 1; e <= 11; ++e) {
        for (int m = 1; m <= 52; ++m) {
            const FpFormat f{static_cast<std::uint8_t>(e),
                             static_cast<std::uint8_t>(m)};
            // Half the samples sit in the format's own range, edges
            // included (overflow, underflow, subnormals); half span binary64.
            const int lo = std::ilogb(tp::min_subnormal(f)) - 2;
            const int hi = std::ilogb(tp::max_finite(f)) + 2;
            for (int i = 0; i < 1000; ++i) {
                const int exp = static_cast<int>(
                    i % 2 ? rng.uniform_int(lo, hi) : rng.uniform_int(-1060, 1023));
                double v = std::ldexp(rng.uniform(1.0, 2.0), exp);
                if (rng() & 1) v = -v;
                const double slow = tp::quantize(v, f);
                const double fast = tp::detail::sanitize(v, f);
                const double cast = tp::arith::cast(v, f);
                double emulated = 0.0;
                {
                    const tp::arith::ScopedForceEmulated scope;
                    emulated = tp::arith::cast(v, f);
                }
                ASSERT_EQ(bits(fast), bits(slow)) << "sanitize v=" << v << " e=" << e
                                                  << " m=" << m;
                ASSERT_EQ(bits(cast), bits(slow)) << "cast v=" << v << " e=" << e
                                                  << " m=" << m;
                ASSERT_EQ(bits(emulated), bits(slow))
                    << "emulated cast v=" << v << " e=" << e << " m=" << m;
            }
        }
    }
}

TEST(FlexFloatSanitize, SpecialInputs) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isinf(tp::detail::sanitize(inf, tp::kBinary16)));
    EXPECT_TRUE(std::isnan(tp::detail::sanitize(nan, tp::kBinary8)));
    EXPECT_EQ(tp::detail::sanitize(0.0, tp::kBinary8), 0.0);
    EXPECT_TRUE(std::signbit(tp::detail::sanitize(-0.0, tp::kBinary8)));
    // Double subnormals flush through the slow path correctly.
    const double dsub = std::ldexp(1.0, -1050);
    EXPECT_EQ(tp::detail::sanitize(dsub, tp::kBinary64), dsub);
    EXPECT_EQ(tp::detail::sanitize(dsub, tp::kBinary32), 0.0);
}

TEST(FlexFloatSanitize, OverflowBoundary) {
    // Largest binary16 value and the first value that rounds to infinity.
    EXPECT_EQ(tp::detail::sanitize(65504.0, tp::kBinary16), 65504.0);
    EXPECT_EQ(tp::detail::sanitize(65519.9, tp::kBinary16), 65504.0);
    EXPECT_TRUE(std::isinf(tp::detail::sanitize(65520.0, tp::kBinary16)));
    EXPECT_TRUE(std::isinf(tp::detail::sanitize(-65520.0, tp::kBinary16)));
    EXPECT_LT(tp::detail::sanitize(-65520.0, tp::kBinary16), 0.0);
}

} // namespace
