// tp::arith — the unified arithmetic-backend seam of the FlexFloat layer.
//
// Every rounded FP operation in this repository (the flexfloat<E, M>
// template operators and FlexFloatDyn's runtime-format ops, which both
// kernel instantiations compute on) funnels through the entry points
// below, so the rounding semantics of the emulation live in exactly one
// place:
//
//     arith(op, a, b, fmt)   +, -, *, /, neg, abs, sqrt  (b ignored for unary)
//     fma(a, b, c, fmt)      fused multiply-add, single rounding
//     cast(value, fmt)       re-round an arbitrary binary64 to fmt
//
// Operands are binary64 values already exactly representable in `fmt` (the
// invariant every FlexFloat value maintains); results are returned the same
// way. Per format, one of two backends executes the operation:
//
//   * kEmulated — compute on binary64, re-round with detail::sanitize()
//     (the paper's Section III-A scheme, exact by innocuous double
//     rounding); fma takes the exact integer path (fma_exact.hpp).
//   * kNativeF64/F32/F16 — for formats that map onto hardware FP types
//     (binary64 <-> double, binary32 <-> float, binary16 <-> _Float16 where
//     the compiler AND hardware support it), the operands — exactly
//     representable in the format, so the narrowing conversion never rounds
//     — are converted to the hardware type and the operation is computed in
//     that type directly: the FPU's own rounding IS the target rounding, no
//     re-round step at all. fma uses the hardware fma/fmaf for f64/f32
//     (binary16 keeps the exact integer path: float fmaf re-rounded to half
//     would double-round). This is the soft<->native std::bit_cast
//     boundary-conversion idiom: the value's representation only changes at
//     the format boundary, the arithmetic itself runs on silicon.
//
// The two backends are BIT-IDENTICAL for every operation — including
// subnormal results, overflow to infinity, NaN canonicalization and
// round-to-nearest-even ties — which tests/test_arith_backend.cpp
// property-tests across the whole (e, m) lattice against the softfloat
// oracle. Backend choice is therefore purely a speed lever, and stats /
// trace recording (which lives in the callers) fires identically on both.
//
// Override knob, two modes. The emulated path stays selectable everywhere,
// for differential testing, via
//   * env TP_FORCE_EMULATED=1  — whole process (read once at startup);
//   * ScopedForceEmulated — current thread, until the scope ends (traced
//     and plain kernel instantiations alike; a pool-less tuning EvalEngine
//     runs every kernel on the calling thread, so a scope around its calls
//     covers its trials and goldens).
// ScopedBinary64 — current thread, until the scope ends — resolves EVERY
// format to the binary64 native backend, so arith, fma and cast return the
// plain binary64 result without re-rounding it to the operand format. It is
// the static analysis' shadow run (analysis::shadow_run): formats stay
// attached to values as pure dataflow tags while control flow follows the
// binary64 reference. It wins over both emulation overrides.
#pragma once

#include <cstdint>
#include <limits>

#include "flexfloat/fma_exact.hpp"
#include "flexfloat/sanitize.hpp"
#include "flexfloat/stats.hpp"
#include "types/format.hpp"

namespace tp::arith {

namespace detail {

/// Cached truthiness of env TP_FORCE_EMULATED ("" / "0" / "false" / "off"
/// are false, anything else true). Read once, in arith_backend.cpp.
[[nodiscard]] bool read_env_force_emulated() noexcept;

// The per-thread override is one byte of mode bits. kForceEmulated is 1,
// the value the process-wide env flag promotes to, so resolve() ORs the two
// and tests once.
inline constexpr std::uint8_t kForceEmulated = 1;
inline constexpr std::uint8_t kBinary64 = 2;

// Process-wide env override (immutable after static init) and the
// per-thread scopes' mode bits. The thread_local is constant-initialized
// so the hot path pays a plain TLS load, no init guard.
inline const bool g_env_force_emulated = read_env_force_emulated();
inline thread_local std::uint8_t t_override = 0;

/// Sets `Bit` in the thread's override for the scope's lifetime (when
/// `on`), then restores that bit to what it was.
template <std::uint8_t Bit>
class ScopedOverride {
public:
    explicit ScopedOverride(bool on = true) noexcept
        : previous_(t_override & Bit) {
        if (on) t_override |= Bit;
    }
    ~ScopedOverride() {
        t_override = static_cast<std::uint8_t>((t_override & ~Bit) | previous_);
    }
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

private:
    std::uint8_t previous_;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The canonical quiet NaN every backend returns: positive sign, quiet bit
/// set, zero payload — the same value decode()/quantize() produce.
inline constexpr double kCanonicalNaN =
    std::numeric_limits<double>::quiet_NaN();

/// Out-of-line NaN producer for the native hot path. The call (cold,
/// never inlined) forces the compiler to keep the NaN check a real,
/// predicted-not-taken branch: written as a select it becomes
/// ucomisd + cmovp with an xmm->gpr->xmm round-trip ON the caller's
/// accumulation dependency chain, which measurably costs more latency
/// than the arithmetic being guarded.
[[gnu::cold, gnu::noinline]] inline double canonical_nan() noexcept {
    return kCanonicalNaN;
}

/// Smallest |x| that rounds to infinity in the narrow type under
/// round-to-nearest-even: the midpoint between the largest finite value and
/// the next power of two. Guarding on it keeps the double->narrow
/// conversion in range (out-of-range FP conversions are UB in C++ even
/// though the hardware would produce the right infinity).
template <typename T>
struct NativeTraits;
template <>
struct NativeTraits<float> {
    static constexpr double kOverflowBoundary = 0x1.ffffffp+127; // 2^128 - 2^103
};
#if TP_NATIVE_F16
template <>
struct NativeTraits<_Float16> {
    static constexpr double kOverflowBoundary = 0x1.ffep+15; // 65520
};
#endif

/// Re-rounds an ARBITRARY binary64 value to the narrow hardware type — the
/// native replacement for detail::sanitize() at the cast/construction
/// boundary. A direct double->T conversion is exactly one correct rounding;
/// the overflow guard keeps it in range because an out-of-range finite FP
/// conversion is UB in C++ (the boundary itself already rounds to infinity
/// under RNE, so >= bound maps to inf on both paths).
template <typename T>
[[nodiscard]] inline double round_native(double r) noexcept {
    if constexpr (__is_same(T, double)) {
        if (r != r) [[unlikely]] return canonical_nan();
        return r;
    } else {
        constexpr double bound = NativeTraits<T>::kOverflowBoundary;
        if (__builtin_fabs(r) < bound) [[likely]] {
            return static_cast<double>(static_cast<T>(r));
        }
        if (r != r) return kCanonicalNaN;
        return r > 0 ? kInf : -kInf; // finite overflow and inf alike
    }
}

// Operand/result conversions for the arithmetic hot path. Operands are
// exactly representable in the target format (the FlexFloat invariant), so
// these conversions never round and never hit the out-of-range UB — and
// binary16 can route through float, which with hardware F16C stays on
// conversion instructions (a direct double<->half conversion would take
// libgcc's software path).
template <typename T>
[[nodiscard]] inline T from_operand(double v) noexcept {
#if TP_NATIVE_F16
    if constexpr (__is_same(T, _Float16)) {
        return static_cast<_Float16>(static_cast<float>(v));
    } else
#endif
    {
        return static_cast<T>(v);
    }
}

template <typename T>
[[nodiscard]] inline double to_result(T v) noexcept {
#if TP_NATIVE_F16
    if constexpr (__is_same(T, _Float16)) {
        return static_cast<double>(static_cast<float>(v));
    } else
#endif
    {
        return static_cast<double>(v);
    }
}

template <typename T>
[[nodiscard]] inline T native_sqrt(T a) noexcept {
    if constexpr (__is_same(T, double)) {
        return __builtin_sqrt(a);
    } else if constexpr (__is_same(T, float)) {
        return __builtin_sqrtf(a);
    } else {
        // binary16: the correctly rounded float sqrt re-rounded to half is
        // the correctly rounded half sqrt (innocuous double rounding:
        // float's 24 significand bits >= 2 * 11 + 2).
        return static_cast<T>(__builtin_sqrtf(static_cast<float>(a)));
    }
}

/// One operation on the hardware type itself: convert the (exactly
/// representable) operands, compute in T — which IS the target's rounding,
/// no re-round step — and widen the result back. Overflow yields the
/// hardware infinity, subnormal results come from the FPU's gradual
/// underflow, and invalid operations are canonicalized to the emulated
/// path's +qNaN (hardware "indefinite" NaNs carry a sign the emulation
/// never produces). Neg/Abs are exact sign manipulations and skip the type
/// round-trip entirely.
template <typename T>
[[nodiscard]] inline double native_arith(FpOp op, double a, double b) noexcept {
    switch (op) {
    case FpOp::Neg: {
        const double r = -a;
        if (r != r) [[unlikely]] return canonical_nan();
        return r;
    }
    case FpOp::Abs: {
        const double r = __builtin_fabs(a);
        if (r != r) [[unlikely]] return canonical_nan();
        return r;
    }
    default: break;
    }
    const T ta = from_operand<T>(a);
    const T tb = from_operand<T>(b);
    T tr;
    switch (op) {
    case FpOp::Add: tr = ta + tb; break;
    case FpOp::Sub: tr = ta - tb; break;
    case FpOp::Mul: tr = ta * tb; break;
    case FpOp::Div: tr = ta / tb; break;
    case FpOp::Sqrt: tr = native_sqrt<T>(ta); break;
    default: tr = ta; break; // non-rounding ops never route here
    }
    const double r = to_result<T>(tr);
    if (r != r) [[unlikely]] return canonical_nan();
    return r;
}

} // namespace detail

/// True when the emulated path is forced on this thread (env
/// TP_FORCE_EMULATED, or a ScopedForceEmulated). An open ScopedBinary64
/// still wins in resolve().
[[nodiscard]] inline bool force_emulated() noexcept {
    return ((detail::g_env_force_emulated | detail::t_override) &
            detail::kForceEmulated) != 0;
}

/// True while a ScopedBinary64 is open on this thread.
[[nodiscard]] inline bool binary64() noexcept {
    return (detail::t_override & detail::kBinary64) != 0;
}

/// RAII thread-scope forcing the emulated path — the differential-testing
/// primitive:
///     tp::arith::ScopedForceEmulated scope;   // emulated until scope ends
/// A nested scope asking for "off" cannot undo an enclosing "on".
using ScopedForceEmulated = detail::ScopedOverride<detail::kForceEmulated>;

/// RAII thread-scope computing every format in plain binary64, unrounded:
///     tp::arith::ScopedBinary64 shadow;   // binary64 until scope ends
using ScopedBinary64 = detail::ScopedOverride<detail::kBinary64>;

/// The backend an operation in `format` executes on right now: the format's
/// static classification (FpFormat::backend()) unless an override is set —
/// binary64 for every format under ScopedBinary64, else the emulated path.
[[nodiscard]] inline BackendKind resolve(FpFormat format) noexcept {
    const int mode = detail::g_env_force_emulated | detail::t_override;
    if (mode == 0) [[likely]] return format.backend();
    return (mode & detail::kBinary64) != 0 ? BackendKind::kNativeF64
                                           : BackendKind::kEmulated;
}

/// Reference implementation: binary64 arithmetic + sanitize re-rounding.
/// Public so forced-emulated callers (and tests) can name it directly; the
/// fast entry points below fall back to it for every non-native format.
[[nodiscard]] inline double emulated(FpOp op, double a, double b,
                                     FpFormat format) noexcept {
    switch (op) {
    case FpOp::Add: return tp::detail::sanitize(a + b, format);
    case FpOp::Sub: return tp::detail::sanitize(a - b, format);
    case FpOp::Mul: return tp::detail::sanitize(a * b, format);
    case FpOp::Div: return tp::detail::sanitize(a / b, format);
    case FpOp::Neg: return tp::detail::sanitize(-a, format);
    case FpOp::Abs: return tp::detail::sanitize(__builtin_fabs(a), format);
    case FpOp::Sqrt: return tp::detail::sanitize(__builtin_sqrt(a), format);
    default: return tp::detail::sanitize(a, format);
    }
}

/// Reference fma: exact integer path, correctly rounded for every format.
[[nodiscard]] inline double emulated_fma(double a, double b, double c,
                                         FpFormat format) noexcept {
    return tp::detail::fma_exact(a, b, c, format);
}

/// Reference cast: re-round an arbitrary binary64 value to `format`.
[[nodiscard]] inline double emulated_cast(double value,
                                          FpFormat format) noexcept {
    return tp::detail::sanitize(value, format);
}

/// One rounded operation in `format`. `a` and `b` must already be exactly
/// representable in `format` (every FlexFloat value is); `b` is ignored for
/// the unary ops (Neg, Abs, Sqrt). Dispatches per resolve(format).
[[nodiscard]] inline double arith(FpOp op, double a, double b,
                                  FpFormat format) noexcept {
    switch (resolve(format)) {
    case BackendKind::kNativeF64: return detail::native_arith<double>(op, a, b);
    case BackendKind::kNativeF32: return detail::native_arith<float>(op, a, b);
#if TP_NATIVE_F16
    case BackendKind::kNativeF16:
        return detail::native_arith<_Float16>(op, a, b);
#endif
    default: return emulated(op, a, b, format);
    }
}

/// Fused multiply-add, single rounding. Hardware fma/fmaf serve the f64/f32
/// backends; binary16 keeps the exact integer path even when native — a
/// float fmaf result re-rounded to half would be double-rounded (the
/// 2p+2 envelope does not cover the 22-bit product + addend sum).
[[nodiscard]] inline double fma(double a, double b, double c,
                                FpFormat format) noexcept {
    switch (resolve(format)) {
    case BackendKind::kNativeF64: {
        const double r = __builtin_fma(a, b, c);
        if (r != r) [[unlikely]] return detail::canonical_nan();
        return r;
    }
    case BackendKind::kNativeF32: {
        const double r = static_cast<double>(__builtin_fmaf(
            static_cast<float>(a), static_cast<float>(b),
            static_cast<float>(c)));
        if (r != r) [[unlikely]] return detail::canonical_nan();
        return r;
    }
    default: return emulated_fma(a, b, c, format);
    }
}

/// Re-rounds an arbitrary binary64 value to `format` — the format-boundary
/// conversion (construction from a native double, FP<->FP casts).
[[nodiscard]] inline double cast(double value, FpFormat format) noexcept {
    switch (resolve(format)) {
    case BackendKind::kNativeF64: return detail::round_native<double>(value);
    case BackendKind::kNativeF32: return detail::round_native<float>(value);
#if TP_NATIVE_F16
    case BackendKind::kNativeF16: return detail::round_native<_Float16>(value);
#endif
    default: return emulated_cast(value, format);
    }
}

} // namespace tp::arith
