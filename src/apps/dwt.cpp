// DWT — two-level discrete wavelet transform with the Daubechies-4 filter
// pair (paper, Section V-A).
//
// Each output coefficient is a 4-tap filter-and-downsample: four
// independent multiplies reduced by a small tree, a textbook target for
// sub-word SIMD. The analysis loops are tagged vectorizable.
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kLength = 128; // input samples (two levels: 64 + 32)
constexpr std::size_t kTaps = 4;

// Daubechies-4 analysis coefficients.
constexpr double kSqrt3 = 1.7320508075688772;
constexpr double kNorm = 5.656854249492381; // 4 * sqrt(2)
constexpr std::array<double, kTaps> kLo{
    (1.0 + kSqrt3) / kNorm, (3.0 + kSqrt3) / kNorm,
    (3.0 - kSqrt3) / kNorm, (1.0 - kSqrt3) / kNorm};
constexpr std::array<double, kTaps> kHi{
    kLo[3], -kLo[2], kLo[1], -kLo[0]};

class Dwt final : public KernelApp<Dwt> {
public:
    // SignalIds, in declaration order.
    enum : SignalId { kSignalSig, kLoSig, kHiSig, kAccSig, kApproxSig, kDetailSig };

    Dwt()
        : KernelApp({
              {"signal", kLength},           // input samples
              {"lo", kTaps},                 // low-pass filter taps
              {"hi", kTaps},                 // high-pass filter taps
              {"acc", 1},                    // tap accumulator register
              {"approx", kLength / 2 + kLength / 4}, // approximation coeffs
              {"detail", kLength / 2 + kLength / 4}, // detail coeffs
          }) {}

    [[nodiscard]] std::string_view name() const override { return "dwt"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Dwt>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0xD317AB1EULL + input_set};
        signal_.assign(kLength, 0.0);
        const double phase = rng.uniform(0.0, 6.28);
        for (std::size_t i = 0; i < kLength; ++i) {
            const double t = static_cast<double>(i);
            signal_[i] = 60.0 * __builtin_sin(t * 0.19634954084936207) // 2*pi/32
                         + 25.0 * __builtin_sin(t * 1.2566370614359172 + phase)
                         + rng.normal(0.0, 4.0);
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat signal_f = config.at(kSignalSig);
        const FpFormat lo_f = config.at(kLoSig);
        const FpFormat hi_f = config.at(kHiSig);
        const FpFormat acc_f = config.at(kAccSig);
        const FpFormat approx_f = config.at(kApproxSig);
        const FpFormat detail_f = config.at(kDetailSig);

        Array input = ctx.make_array(signal_f, kLength);
        for (std::size_t i = 0; i < kLength; ++i) input.set_raw(i, signal_[i]);
        Array lo = ctx.make_array(lo_f, kTaps);
        Array hi = ctx.make_array(hi_f, kTaps);
        for (std::size_t t = 0; t < kTaps; ++t) {
            lo.set_raw(t, kLo[t]);
            hi.set_raw(t, kHi[t]);
        }
        Array approx = ctx.make_array(approx_f, kLength / 2 + kLength / 4);
        Array detail = ctx.make_array(detail_f, kLength / 2 + kLength / 4);

        // Filter taps are register-resident across the whole transform.
        std::array<Value, kTaps> lo_r;
        std::array<Value, kTaps> hi_r;
        for (std::size_t t = 0; t < kTaps; ++t) {
            lo_r[t] = to(lo.load(t), acc_f);
            hi_r[t] = to(hi.load(t), acc_f);
        }

        // Level 1 reads the input array; level 2 reads level-1 approximations.
        analyze(ctx, input, 0, kLength, approx, detail, 0, lo_r, hi_r, acc_f);
        analyze(ctx, approx, 0, kLength / 2, approx, detail, kLength / 2, lo_r,
                hi_r, acc_f);

        // Output: level-2 approximations and details, then level-1 details.
        std::vector<double> output;
        output.reserve(kLength);
        for (std::size_t i = 0; i < kLength / 4; ++i) {
            output.push_back(approx.raw(kLength / 2 + i));
        }
        for (std::size_t i = 0; i < kLength / 4; ++i) {
            output.push_back(detail.raw(kLength / 2 + i));
        }
        for (std::size_t i = 0; i < kLength / 2; ++i) {
            output.push_back(detail.raw(i));
        }
        return output;
    }

private:
    template <class Ctx>
    void analyze(Ctx& ctx, typename Ctx::Array& src, std::size_t src_off,
                 std::size_t len, typename Ctx::Array& approx,
                 typename Ctx::Array& detail, std::size_t dst_off,
                 const std::array<typename Ctx::Value, kTaps>& lo_r,
                 const std::array<typename Ctx::Value, kTaps>& hi_r,
                 FpFormat acc_f) {
        using Value = typename Ctx::Value;
        const auto region = ctx.vector_region();
        for (std::size_t n = 0; n < len / 2; ++n) {
            ctx.loop_iteration();
            ctx.int_ops(2); // periodic index wrap
            std::array<Value, kTaps> sample;
            for (std::size_t t = 0; t < kTaps; ++t) {
                const std::size_t idx = src_off + (2 * n + t) % len;
                ctx.int_ops(2); // periodic index computation per tap
                sample[t] = to(src.load(idx), acc_f);
            }
            // Four independent products per band, reduced by a tree.
            std::array<Value, kTaps> pl;
            std::array<Value, kTaps> ph;
            for (std::size_t t = 0; t < kTaps; ++t) {
                pl[t] = sample[t] * lo_r[t];
                ph[t] = sample[t] * hi_r[t];
            }
            const Value a = (pl[0] + pl[1]) + (pl[2] + pl[3]);
            const Value d = (ph[0] + ph[1]) + (ph[2] + ph[3]);
            approx.store(dst_off + n, to(a, approx.format()));
            detail.store(dst_off + n, to(d, detail.format()));
        }
    }

    std::vector<double> signal_;
};

} // namespace

std::unique_ptr<App> make_dwt() { return std::make_unique<Dwt>(); }

} // namespace tp::apps
