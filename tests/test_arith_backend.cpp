// Differential battery for the unified arithmetic-backend seam
// (flexfloat/arith_backend.hpp).
//
// The contract under test: the native fast path (hardware double / float /
// _Float16 with a conversion round-trip at the format boundary) is
// BIT-IDENTICAL to the emulated compute-in-binary64-then-sanitize path for
// every operation — including subnormal results, overflow to infinity, NaN
// canonicalization and round-to-nearest-even ties. The battery checks this
// three ways:
//
//   1. directly: detail::native_arith<T> vs arith::emulated over adversarial
//      and random operands (independent of any override knob, so the native
//      code keeps real coverage even under TP_FORCE_EMULATED=1);
//   2. through the public entry points across the full (e, m) lattice,
//      native resolution vs a forced-emulated thread scope;
//   3. against the softfloat module as an independent correctly-rounding
//      oracle for the three hardware-mappable formats.
//
// On top sit the override-knob semantics (env / thread scope) and
// app-level byte-identity: goldens, kernel outputs and full
// distributed_search runs on pca, fft, jacobi, svm and conv must not change
// by a single bit when the backend is switched.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "flexfloat/flexfloat.hpp"
#include "flexfloat/flexfloat_dyn.hpp"
#include "sim/context.hpp"
#include "softfloat/softfloat.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"
#include "types/encoding.hpp"
#include "types/format.hpp"

namespace {

using tp::BackendKind;
using tp::FpFormat;
using tp::FpOp;
using tp::kBinary16;
using tp::kBinary16Alt;
using tp::kBinary32;
using tp::kBinary64;
using tp::kBinary8;

std::uint64_t bits_of(double value) noexcept {
    return std::bit_cast<std::uint64_t>(value);
}

// GCC 12 misdetects overlapping copies in std::string operator+ chains under
// -O2 (PR105651); building the name with append avoids the warning.
std::string format_name(FpFormat format) {
    std::string name = "e";
    name.append(std::to_string(format.exp_bits));
    name.append("m");
    name.append(std::to_string(format.mant_bits));
    return name;
}

/// Bitwise comparison with a failure budget, so a systematic mismatch
/// reports a handful of concrete counterexamples instead of megabytes.
class BitChecker {
public:
    void check(double actual, double expected, const std::string& what) {
        ++checks_;
        if (bits_of(actual) == bits_of(expected)) return;
        if (++mismatches_ > kReportBudget) return;
        std::ostringstream oss;
        oss << std::hexfloat << what << ": got " << actual << " (0x" << std::hex
            << bits_of(actual) << "), want " << expected << " (0x"
            << bits_of(expected) << ")";
        ADD_FAILURE() << oss.str();
    }
    void finish() const {
        EXPECT_EQ(mismatches_, 0u) << "of " << checks_ << " checks";
        EXPECT_GT(checks_, 0u);
    }

private:
    static constexpr std::size_t kReportBudget = 8;
    std::size_t checks_ = 0;
    std::size_t mismatches_ = 0;
};

/// Adversarial operands, all exactly representable in `format`: signed
/// zeros, the subnormal/normal/overflow boundaries, specials, and a few
/// quantized ordinary values.
std::vector<double> adversarial_operands(FpFormat format) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double sub = tp::min_subnormal(format);
    const double nrm = tp::min_normal(format);
    const double max = tp::max_finite(format);
    std::vector<double> ops{0.0,  -0.0, sub,  -sub, nrm, -nrm,
                            max,  -max, inf,  -inf, nan};
    for (const double seed : {1.0, -3.0, 1.0 / 3.0, 0.7, 1e-3}) {
        ops.push_back(tp::quantize(seed, format));
    }
    return ops;
}

/// Uniform random bit patterns of the format, decoded — covers every
/// representable value class including subnormals, infinities and NaN.
std::vector<double> random_operands(FpFormat format, std::size_t count) {
    std::mt19937_64 rng{0x9e3779b9u ^
                        (static_cast<std::uint64_t>(format.exp_bits) << 8) ^
                        format.mant_bits};
    std::vector<double> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        ops.push_back(tp::decode(rng() & tp::bit_mask(format), format));
    }
    return ops;
}

constexpr FpOp kBinaryOps[] = {FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div};
constexpr FpOp kUnaryOps[] = {FpOp::Neg, FpOp::Abs, FpOp::Sqrt};

// --- classifier (satellite: FpFormat::backend()) ---------------------------

TEST(BackendClassifier, HardwareMappableFormats) {
    static_assert(kBinary64.backend() == BackendKind::kNativeF64);
    static_assert(kBinary32.backend() == BackendKind::kNativeF32);
    static_assert(kBinary8.backend() == BackendKind::kEmulated);
    static_assert(kBinary16Alt.backend() == BackendKind::kEmulated);
#if TP_NATIVE_F16
    static_assert(kBinary16.backend() == BackendKind::kNativeF16);
#else
    static_assert(kBinary16.backend() == BackendKind::kEmulated);
#endif
}

TEST(BackendClassifier, OnlyTheExactShapesAreNative) {
    int native = 0;
    for (int e = 1; e <= 11; ++e) {
        for (int m = 1; m <= 52; ++m) {
            const FpFormat format{static_cast<std::uint8_t>(e),
                                  static_cast<std::uint8_t>(m)};
            if (format.backend() != BackendKind::kEmulated) ++native;
        }
    }
    EXPECT_EQ(native, 2 + TP_NATIVE_F16);
}

TEST(BackendClassifier, Names) {
    EXPECT_EQ(tp::name_of(BackendKind::kEmulated), "emulated");
    EXPECT_EQ(tp::name_of(BackendKind::kNativeF64), "native_f64");
    EXPECT_EQ(tp::name_of(BackendKind::kNativeF32), "native_f32");
    EXPECT_EQ(tp::name_of(BackendKind::kNativeF16), "native_f16");
}

// --- override knob ---------------------------------------------------------

TEST(BackendKnob, ScopeIsThreadLocalAndRestores) {
    // The process-wide env override (TP_FORCE_EMULATED) may be active in a
    // forced-emulated CI configuration; every expectation is relative to it.
    const bool env = tp::arith::detail::g_env_force_emulated;
    EXPECT_EQ(tp::arith::force_emulated(), env);
    {
        const tp::arith::ScopedForceEmulated scope;
        EXPECT_TRUE(tp::arith::force_emulated());
        {
            // A nested scope asking for "off" cannot undo an enclosing "on".
            const tp::arith::ScopedForceEmulated inner{false};
            EXPECT_TRUE(tp::arith::force_emulated());
        }
        EXPECT_TRUE(tp::arith::force_emulated());
        // The override is per-thread: a fresh thread sees only the env.
        bool other_thread_forced = true;
        std::thread probe{[&] { other_thread_forced = tp::arith::force_emulated(); }};
        probe.join();
        EXPECT_EQ(other_thread_forced, env);
    }
    EXPECT_EQ(tp::arith::force_emulated(), env);

    // The binary64 shadow scope is a second, independent bit of the same
    // thread override: thread-local, restored on exit, and nesting with
    // the emulation scope in either order without clearing it.
    EXPECT_FALSE(tp::arith::binary64());
    {
        const tp::arith::ScopedBinary64 shadow;
        EXPECT_TRUE(tp::arith::binary64());
        EXPECT_EQ(tp::arith::force_emulated(), env);
        {
            const tp::arith::ScopedForceEmulated forced;
            EXPECT_TRUE(tp::arith::binary64());
            EXPECT_TRUE(tp::arith::force_emulated());
            EXPECT_EQ(tp::arith::resolve(kBinary16Alt), BackendKind::kNativeF64);
        }
        EXPECT_TRUE(tp::arith::binary64());
        EXPECT_EQ(tp::arith::force_emulated(), env);
        bool other_thread_shadow = true;
        std::thread probe{[&] { other_thread_shadow = tp::arith::binary64(); }};
        probe.join();
        EXPECT_FALSE(other_thread_shadow);
    }
    EXPECT_FALSE(tp::arith::binary64());
    {
        const tp::arith::ScopedForceEmulated forced;
        {
            const tp::arith::ScopedBinary64 shadow;
            EXPECT_TRUE(tp::arith::binary64());
            EXPECT_TRUE(tp::arith::force_emulated());
        }
        EXPECT_FALSE(tp::arith::binary64());
        EXPECT_TRUE(tp::arith::force_emulated());
    }
    EXPECT_FALSE(tp::arith::binary64());
    EXPECT_EQ(tp::arith::force_emulated(), env);
}

TEST(BackendKnob, ResolveHonorsOverride) {
    const bool env = tp::arith::detail::g_env_force_emulated;
    EXPECT_EQ(tp::arith::resolve(kBinary32),
              env ? BackendKind::kEmulated : BackendKind::kNativeF32);
    EXPECT_EQ(tp::arith::resolve(kBinary64),
              env ? BackendKind::kEmulated : BackendKind::kNativeF64);
    EXPECT_EQ(tp::arith::resolve(kBinary16Alt), BackendKind::kEmulated);
    {
        const tp::arith::ScopedForceEmulated scope;
        EXPECT_EQ(tp::arith::resolve(kBinary32), BackendKind::kEmulated);
        EXPECT_EQ(tp::arith::resolve(kBinary64), BackendKind::kEmulated);
    }

    // ScopedBinary64 resolves every format to binary64 and wins over both
    // emulation overrides (the env one included, when set): arith, fma and
    // cast return the plain, unrounded binary64 result.
    const tp::arith::ScopedForceEmulated forced;
    const tp::arith::ScopedBinary64 shadow;
    const double third = 1.0 / 3.0;
    const double tenth = 0.1;
    for (const FpFormat format : {kBinary32, kBinary16Alt, FpFormat{5, 3}}) {
        const std::string tag = format_name(format);
        EXPECT_EQ(tp::arith::resolve(format), BackendKind::kNativeF64) << tag;
        EXPECT_EQ(bits_of(tp::arith::arith(FpOp::Add, third, tenth, format)),
                  bits_of(third + tenth)) << tag;
        EXPECT_EQ(bits_of(tp::arith::arith(FpOp::Div, tenth, third, format)),
                  bits_of(tenth / third)) << tag;
        EXPECT_EQ(bits_of(tp::arith::arith(FpOp::Sqrt, tenth, tenth, format)),
                  bits_of(std::sqrt(tenth))) << tag;
        EXPECT_EQ(bits_of(tp::arith::fma(third, tenth, third, format)),
                  bits_of(std::fma(third, tenth, third))) << tag;
        EXPECT_EQ(bits_of(tp::arith::cast(third, format)), bits_of(third)) << tag;
        // ...which is not the format's rounding (quantize, the bit-level
        // reference, ignores every override).
        EXPECT_NE(tp::quantize(third, format), third) << tag;
    }
}

// --- native path vs emulated, directly -------------------------------------

// Calls detail::native_arith<T> / round_native<T> without going through
// resolve(), so the native code is exercised even when the process runs
// forced-emulated.
template <typename T>
void direct_native_battery(FpFormat format) {
    BitChecker check;
    std::vector<double> ops = adversarial_operands(format);
    const std::vector<double> extra = random_operands(format, 40);
    ops.insert(ops.end(), extra.begin(), extra.end());

    const std::string tag = format_name(format);
    for (const double a : ops) {
        for (const double b : ops) {
            for (const FpOp op : kBinaryOps) {
                check.check(tp::arith::detail::native_arith<T>(op, a, b),
                            tp::arith::emulated(op, a, b, format),
                            tag + " binary op " +
                                std::to_string(static_cast<int>(op)));
            }
        }
        for (const FpOp op : kUnaryOps) {
            check.check(tp::arith::detail::native_arith<T>(op, a, a),
                        tp::arith::emulated(op, a, a, format),
                        tag + " unary op " +
                            std::to_string(static_cast<int>(op)));
        }
        // The cast entry point takes ARBITRARY binary64 inputs, not just
        // representable ones; sweep the operand scaled off-format too.
        for (const double scale : {1.0, 1.0 + 1e-9, 1e17, 1e-17}) {
            check.check(tp::arith::detail::round_native<T>(a * scale),
                        tp::arith::emulated_cast(a * scale, format),
                        tag + " cast");
        }
    }
    check.finish();
}

TEST(BackendNativeDirect, Binary64) { direct_native_battery<double>(kBinary64); }
TEST(BackendNativeDirect, Binary32) { direct_native_battery<float>(kBinary32); }
#if TP_NATIVE_F16
TEST(BackendNativeDirect, Binary16) {
    direct_native_battery<_Float16>(kBinary16);
}
#endif

TEST(BackendNativeDirect, CastOfArbitraryDoubles) {
    BitChecker check;
    std::mt19937_64 rng{20260808};
    for (int i = 0; i < 20000; ++i) {
        const double value = std::bit_cast<double>(rng());
        check.check(tp::arith::detail::round_native<double>(value),
                    tp::arith::emulated_cast(value, kBinary64), "f64 cast");
        check.check(tp::arith::detail::round_native<float>(value),
                    tp::arith::emulated_cast(value, kBinary32), "f32 cast");
#if TP_NATIVE_F16
        check.check(tp::arith::detail::round_native<_Float16>(value),
                    tp::arith::emulated_cast(value, kBinary16), "f16 cast");
#endif
    }
    check.finish();
}

TEST(BackendNativeDirect, OverflowBoundaryCasts) {
    BitChecker check;
    // The guard constants are exactly the smallest magnitudes that round to
    // infinity under RNE; probe both sides and the tie itself.
    for (const double boundary : {0x1.ffffffp+127, 0x1.ffep+15}) {
        const FpFormat format = boundary > 1e30 ? kBinary32 : kBinary16;
        for (const double value :
             {boundary, -boundary, std::nextafter(boundary, 0.0),
              std::nextafter(boundary, 1e308), boundary * 2}) {
            check.check(tp::arith::cast(value, format),
                        tp::arith::emulated_cast(value, format),
                        format_name(format) + " boundary cast");
        }
    }
    check.finish();
}

// --- round-to-nearest-even ties, explicitly --------------------------------

TEST(BackendTies, Binary32RoundsTiesToEven) {
    const double ulp = 0x1p-23, half = 0x1p-24;
    // 1.0 has an even mantissa: the half-ulp tie stays put.
    EXPECT_EQ(tp::arith::arith(FpOp::Add, 1.0, half, kBinary32), 1.0);
    // 1.0 + ulp is odd: the tie rounds up to the even neighbour.
    EXPECT_EQ(tp::arith::arith(FpOp::Add, 1.0 + ulp, half, kBinary32),
              1.0 + 2 * ulp);
    // Overflow rounds to infinity on both paths.
    const double max = tp::max_finite(kBinary32);
    EXPECT_EQ(tp::arith::arith(FpOp::Add, max, max, kBinary32),
              std::numeric_limits<double>::infinity());
    // Subnormal arithmetic stays exact.
    const double sub = tp::min_subnormal(kBinary32);
    EXPECT_EQ(tp::arith::arith(FpOp::Add, sub, sub, kBinary32), 2 * sub);
    EXPECT_EQ(tp::arith::arith(FpOp::Mul, tp::min_normal(kBinary32),
                               tp::quantize(0.5, kBinary32), kBinary32),
              tp::min_normal(kBinary32) / 2);
}

TEST(BackendTies, Binary16RoundsTiesToEven) {
    const double ulp = 0x1p-10, half = 0x1p-11;
    EXPECT_EQ(tp::arith::arith(FpOp::Add, 1.0, half, kBinary16), 1.0);
    EXPECT_EQ(tp::arith::arith(FpOp::Add, 1.0 + ulp, half, kBinary16),
              1.0 + 2 * ulp);
    const double max = tp::max_finite(kBinary16); // 65504
    EXPECT_EQ(tp::arith::arith(FpOp::Add, max, max, kBinary16),
              std::numeric_limits<double>::infinity());
    const double sub = tp::min_subnormal(kBinary16);
    EXPECT_EQ(tp::arith::arith(FpOp::Add, sub, sub, kBinary16), 2 * sub);
}

// --- full (e, m) lattice through the public entry points --------------------

TEST(BackendLattice, PublicApiBitIdenticalUnderForcedEmulation) {
    BitChecker check;
    for (int e = 1; e <= 11; ++e) {
        for (int m = 1; m <= 52; ++m) {
            const FpFormat format{static_cast<std::uint8_t>(e),
                                  static_cast<std::uint8_t>(m)};
            std::vector<double> ops = adversarial_operands(format);
            const std::vector<double> extra = random_operands(format, 6);
            ops.insert(ops.end(), extra.begin(), extra.end());
            const std::string tag = format_name(format);

            for (const double a : ops) {
                for (const double b : ops) {
                    for (const FpOp op : kBinaryOps) {
                        const double fast = tp::arith::arith(op, a, b, format);
                        double slow;
                        {
                            const tp::arith::ScopedForceEmulated scope;
                            slow = tp::arith::arith(op, a, b, format);
                        }
                        check.check(fast, slow, tag + " binary");
                    }
                }
                for (const FpOp op : kUnaryOps) {
                    const double fast = tp::arith::arith(op, a, a, format);
                    double slow;
                    {
                        const tp::arith::ScopedForceEmulated scope;
                        slow = tp::arith::arith(op, a, a, format);
                    }
                    check.check(fast, slow, tag + " unary");
                }
            }
            // fma over a reduced triple set (the operand list cubed would
            // dominate the whole suite).
            for (std::size_t i = 0; i < 8 && i < ops.size(); ++i) {
                for (std::size_t j = 0; j < 8; ++j) {
                    for (std::size_t k = 0; k < 8; ++k) {
                        const double fast =
                            tp::arith::fma(ops[i], ops[j], ops[k], format);
                        double slow;
                        {
                            const tp::arith::ScopedForceEmulated scope;
                            slow = tp::arith::fma(ops[i], ops[j], ops[k], format);
                        }
                        check.check(fast, slow, tag + " fma");
                    }
                }
            }
        }
    }
    check.finish();
}

// --- softfloat as the independent correctly-rounding oracle -----------------

void oracle_battery(FpFormat format, std::size_t random_rounds) {
    BitChecker check;
    std::vector<double> ops = adversarial_operands(format);
    const std::vector<double> extra = random_operands(format, 12);
    ops.insert(ops.end(), extra.begin(), extra.end());
    const std::string tag = format_name(format);

    const auto check_all = [&](double a, double b, double c) {
        const std::uint64_t ab = tp::encode(a, format);
        const std::uint64_t bb = tp::encode(b, format);
        const std::uint64_t cb = tp::encode(c, format);
        const auto oracle = [&](std::uint64_t bits) {
            return tp::decode(bits, format);
        };
        // Both the resolved path and the forced-emulated one must agree
        // with the oracle; mismatch of either is a real rounding bug.
        for (const bool forced : {false, true}) {
            std::unique_ptr<tp::arith::ScopedForceEmulated> scope;
            if (forced) scope = std::make_unique<tp::arith::ScopedForceEmulated>();
            const std::string mode = forced ? tag + "/emulated" : tag + "/fast";
            check.check(tp::arith::arith(FpOp::Add, a, b, format),
                        oracle(tp::softfloat::add(ab, bb, format)), mode + " add");
            check.check(tp::arith::arith(FpOp::Sub, a, b, format),
                        oracle(tp::softfloat::sub(ab, bb, format)), mode + " sub");
            check.check(tp::arith::arith(FpOp::Mul, a, b, format),
                        oracle(tp::softfloat::mul(ab, bb, format)), mode + " mul");
            check.check(tp::arith::arith(FpOp::Div, a, b, format),
                        oracle(tp::softfloat::div(ab, bb, format)), mode + " div");
            check.check(tp::arith::arith(FpOp::Sqrt, a, a, format),
                        oracle(tp::softfloat::sqrt(ab, format)), mode + " sqrt");
            check.check(tp::arith::arith(FpOp::Neg, a, a, format),
                        oracle(tp::softfloat::neg(ab, format)), mode + " neg");
            check.check(tp::arith::arith(FpOp::Abs, a, a, format),
                        oracle(tp::softfloat::abs(ab, format)), mode + " abs");
            check.check(tp::arith::fma(a, b, c, format),
                        oracle(tp::softfloat::fma(ab, bb, cb, format)),
                        mode + " fma");
        }
    };

    for (const double a : ops) {
        for (const double b : ops) {
            check_all(a, b, b);
        }
    }
    std::mt19937_64 rng{0xf00dULL ^ format.exp_bits ^
                        (static_cast<std::uint64_t>(format.mant_bits) << 16)};
    const std::uint64_t mask = tp::bit_mask(format);
    for (std::size_t i = 0; i < random_rounds; ++i) {
        check_all(tp::decode(rng() & mask, format),
                  tp::decode(rng() & mask, format),
                  tp::decode(rng() & mask, format));
    }
    check.finish();
}

TEST(BackendOracle, Binary64) { oracle_battery(kBinary64, 1500); }
TEST(BackendOracle, Binary32) { oracle_battery(kBinary32, 1500); }
TEST(BackendOracle, Binary16) { oracle_battery(kBinary16, 1500); }

// --- the flexfloat layers route through the seam ----------------------------

template <typename Fn>
auto with_backend(bool forced, Fn&& kernel) {
    const tp::arith::ScopedForceEmulated scope{forced};
    return kernel();
}

TEST(BackendLayers, FlexfloatTemplateBitIdentical) {
    const auto kernel = [] {
        std::vector<double> out;
        const auto chain = [&out](auto x0, auto step) {
            auto acc = x0;
            for (int i = 1; i <= 40; ++i) {
                auto t = acc * step + x0;
                acc = t / (step + decltype(x0){i});
                acc = sqrt(abs(acc)) - fma(x0, step, acc);
                out.push_back(static_cast<double>(acc));
            }
        };
        chain(tp::binary32_t{0.7}, tp::binary32_t{1.1});
        chain(tp::binary16_t{0.7}, tp::binary16_t{1.1});
        chain(tp::flexfloat<11, 52>{0.7}, tp::flexfloat<11, 52>{1.1});
        chain(tp::flexfloat<6, 9>{0.7}, tp::flexfloat<6, 9>{1.1}); // exotic
        return out;
    };
    const std::vector<double> fast = with_backend(false, kernel);
    const std::vector<double> slow = with_backend(true, kernel);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(bits_of(fast[i]), bits_of(slow[i])) << "element " << i;
    }
}

TEST(BackendLayers, FlexFloatDynBitIdentical) {
    const auto kernel = [] {
        std::vector<double> out;
        for (const FpFormat format : {kBinary64, kBinary32, kBinary16,
                                      kBinary16Alt, FpFormat{7, 12}}) {
            tp::FlexFloatDyn acc{0.7, format};
            const tp::FlexFloatDyn step{1.1, format};
            for (int i = 1; i <= 40; ++i) {
                acc = (acc * step + acc) / step;
                acc = abs(sqrt(abs(acc)) - fma(acc, step, acc));
                out.push_back(acc.value());
            }
            out.push_back(acc.cast_to(kBinary16).value());
        }
        return out;
    };
    const std::vector<double> fast = with_backend(false, kernel);
    const std::vector<double> slow = with_backend(true, kernel);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(bits_of(fast[i]), bits_of(slow[i])) << "element " << i;
    }
}

// The traced TpValue ops route through the same entry points, so the
// thread-scoped knob pins them to the emulated backend too.
TEST(BackendLayers, TpContextConfigKnobBitIdentical) {
    const auto kernel = [] {
        tp::sim::TpContext ctx;
        std::vector<double> out;
        for (const FpFormat format : {kBinary64, kBinary32, kBinary16,
                                      kBinary16Alt}) {
            tp::sim::TpArray data = ctx.make_array(format, 16);
            for (std::size_t i = 0; i < data.size(); ++i) {
                data.set_raw(i, 0.017 * static_cast<double>(i + 1) * (i % 2 ? -1 : 1));
            }
            tp::sim::TpValue acc = ctx.from_int(1, format);
            for (std::size_t i = 0; i < data.size(); ++i) {
                const tp::sim::TpValue x = data.load(i);
                acc = fma(x, x, acc) / (acc + x);
                acc = sqrt(abs(acc)) - x;
                data.store(i, acc);
            }
            out.push_back(acc.value());
            out.push_back(acc.cast_to(kBinary16).value());
            for (std::size_t i = 0; i < data.size(); ++i) out.push_back(data.raw(i));
        }
        return out;
    };
    const std::vector<double> fast = with_backend(false, kernel);
    const std::vector<double> slow = with_backend(true, kernel);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(bits_of(fast[i]), bits_of(slow[i])) << "element " << i;
    }
}

// --- app-level byte-identity (golden, outputs, full searches) ---------------

// pca and fft, plus jacobi, svm and conv, the three kernels with the most
// work per run. Engines here are pool-less, so every kernel they run,
// goldens included, runs on the calling thread: a thread scope around a
// call pins all of it to the emulated backend.
constexpr const char* kBackendApps[] = {"pca", "fft", "jacobi", "svm", "conv"};

TEST(BackendApps, GoldenAndOutputsByteIdentical) {
    for (const char* name : kBackendApps) {
        const auto app = tp::apps::make_app(name);
        tp::tuning::EvalEngine fast{*app, tp::tuning::EvalEngine::Options{}};
        tp::tuning::EvalEngine slow{*app, tp::tuning::EvalEngine::Options{}};

        const std::vector<double>& golden_fast = fast.golden(0);
        const std::vector<double> golden_slow =
            with_backend(true, [&slow] { return slow.golden(0); });
        ASSERT_EQ(golden_fast.size(), golden_slow.size()) << name;
        for (std::size_t i = 0; i < golden_fast.size(); ++i) {
            EXPECT_EQ(bits_of(golden_fast[i]), bits_of(golden_slow[i]))
                << name << " golden element " << i;
        }

        for (const FpFormat format : {kBinary32, kBinary16}) {
            const auto config = app->uniform_config(format);
            // The engines keep only each trial's error, so the outputs come
            // from App::run under the same backend pins.
            const auto run = [&app, &config] {
                app->prepare(0);
                tp::sim::TpContext ctx{tp::sim::TpContext::Config{.trace = false}};
                return app->run(ctx, config);
            };
            const std::vector<double> out_fast = with_backend(false, run);
            const std::vector<double> out_slow = with_backend(true, run);
            ASSERT_EQ(out_fast.size(), out_slow.size()) << name;
            for (std::size_t i = 0; i < out_fast.size(); ++i) {
                EXPECT_EQ(bits_of(out_fast[i]), bits_of(out_slow[i]))
                    << name << "/" << format_name(format) << " element " << i;
            }
            const double error_slow = with_backend(
                true, [&slow, &config] { return slow.output_error(0, config); });
            EXPECT_EQ(bits_of(fast.output_error(0, config)), bits_of(error_slow))
                << name << "/" << format_name(format) << " error";
        }
    }
}

TEST(BackendApps, FullSearchByteIdentical) {
    for (const char* name : kBackendApps) {
        const auto app = tp::apps::make_app(name);
        // The full default search, on a fresh pool-less engine per call.
        const auto search = [&app] {
            return tp::tuning::distributed_search(*app, tp::tuning::SearchOptions{});
        };
        const tp::tuning::TuningResult native = with_backend(false, search);
        const tp::tuning::TuningResult emulated = with_backend(true, search);
        // TuningResult::operator== is the determinism contract's bit-identity
        // predicate: per-signal precisions, bindings and trial counts.
        EXPECT_TRUE(native == emulated) << name;
    }
}

} // namespace
