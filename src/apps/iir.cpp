// IIR — cascaded biquad lowpass filter (ROADMAP "new workloads": the
// embedded-DSP staple).
//
// Four direct-form-II-transposed sections, the biquad cascade of an
// 8th-order Butterworth lowpass (RBJ cookbook coefficients at a per-input-
// set cutoff). Each section gets its own coefficient-table signal and its
// own state-register signal: feedback error accumulates differently along
// the cascade (the high-Q section is the precision-critical one), which is
// what per-section tuning exposes. The recurrence makes every sample
// depend on the previous one — no section is vectorizable, so the app
// lands at the scalar end of the registry next to JACOBI.
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kSections = 4;
constexpr std::size_t kSamples = 96;
constexpr std::size_t kCoeffs = 5; // b0 b1 b2 a1 a2 (a0 normalized away)

// Butterworth Q factors for an 8th-order lowpass split into biquads:
// Q_k = 1 / (2 cos((2k+1) pi / 16)), ordered low to high.
constexpr std::array<double, kSections> kQ{0.50979557910415918,
                                           0.60134488693504529,
                                           0.89997622313641570,
                                           2.5629154477415055};

class Iir final : public KernelApp<Iir> {
public:
    // SignalIds, in declaration order: input, per-section coefficient
    // tables, per-section state registers, output.
    enum : SignalId {
        kInputSig,
        kCoef0Sig, // kCoef0Sig + k is section k's coefficient table
        kCoef1Sig,
        kCoef2Sig,
        kCoef3Sig,
        kState0Sig, // kState0Sig + k is section k's state/accumulator pair
        kState1Sig,
        kState2Sig,
        kState3Sig,
        kOutputSig,
    };

    Iir()
        : KernelApp({
              {"input", kSamples},   // time-domain samples
              {"coef0", kCoeffs},    // per-section biquad coefficients
              {"coef1", kCoeffs},
              {"coef2", kCoeffs},
              {"coef3", kCoeffs},
              {"state0", 2},         // per-section DF2T state registers
              {"state1", 2},
              {"state2", 2},
              {"state3", 2},
              {"output", kSamples},  // filtered samples
          }) {}

    [[nodiscard]] std::string_view name() const override { return "iir"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Iir>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0x11F117E12ULL + input_set};
        constexpr double kTwoPi = 6.283185307179586476925286766559;

        // Cutoff varies per input set: the tuned binding has to hold over
        // a band of filter responses, not one fixed pole placement.
        const double fc = rng.uniform(0.08, 0.12); // normalized cutoff
        const double w0 = kTwoPi * fc;
        const double cw = __builtin_cos(w0);
        const double sw = __builtin_sin(w0);
        coef_.assign(kSections, {});
        for (std::size_t k = 0; k < kSections; ++k) {
            const double alpha = sw / (2.0 * kQ[k]);
            const double a0 = 1.0 + alpha;
            coef_[k] = {(1.0 - cw) / 2.0 / a0, // b0
                        (1.0 - cw) / a0,       // b1
                        (1.0 - cw) / 2.0 / a0, // b2
                        -2.0 * cw / a0,        // a1
                        (1.0 - alpha) / a0};   // a2
        }

        // Passband tone + stopband tone + noise: the filter must preserve
        // the former and attenuate the latter, so coefficient quantization
        // shows up directly in the output error.
        input_.assign(kSamples, 0.0);
        const double phase = rng.uniform(0.0, 6.28);
        for (std::size_t i = 0; i < kSamples; ++i) {
            const double t = static_cast<double>(i);
            input_[i] = 30.0 * __builtin_sin(kTwoPi * 0.04 * t + phase) +
                        15.0 * __builtin_sin(kTwoPi * 0.31 * t) +
                        rng.normal(0.0, 2.0);
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat input_f = config.at(kInputSig);
        const FpFormat output_f = config.at(kOutputSig);

        Array input = ctx.make_array(input_f, kSamples);
        for (std::size_t i = 0; i < kSamples; ++i) input.set_raw(i, input_[i]);
        Array output = ctx.make_array(output_f, kSamples);

        // Coefficients load once and stay register-resident in their
        // section's state format for the whole record.
        std::array<std::array<Value, kCoeffs>, kSections> c;
        std::array<Value, kSections> s1;
        std::array<Value, kSections> s2;
        std::vector<Array> coef_storage;
        coef_storage.reserve(kSections);
        for (std::size_t k = 0; k < kSections; ++k) {
            const FpFormat state_f = config.at(kState0Sig + k);
            coef_storage.push_back(
                ctx.make_array(config.at(kCoef0Sig + k), kCoeffs));
            for (std::size_t i = 0; i < kCoeffs; ++i) {
                coef_storage.back().set_raw(i, coef_[k][i]);
            }
            for (std::size_t i = 0; i < kCoeffs; ++i) {
                c[k][i] = to(coef_storage.back().load(i), state_f);
            }
            s1[k] = ctx.constant(0.0, state_f);
            s2[k] = ctx.constant(0.0, state_f);
        }

        // DF2T per section:  y = b0 x + s1;  s1 = b1 x - a1 y + s2;
        //                    s2 = b2 x - a2 y.
        // The recurrence on (s1, s2) serializes the sample loop.
        for (std::size_t i = 0; i < kSamples; ++i) {
            ctx.loop_iteration();
            Value x = input.load(i);
            for (std::size_t k = 0; k < kSections; ++k) {
                ctx.int_ops(1); // section bookkeeping
                const FpFormat state_f = config.at(kState0Sig + k);
                const Value xs = to(x, state_f);
                const Value y = xs * c[k][0] + s1[k];
                s1[k] = (xs * c[k][1] - y * c[k][3]) + s2[k];
                s2[k] = xs * c[k][2] - y * c[k][4];
                x = y; // feeds the next section
            }
            output.store(i, to(x, output_f));
        }

        std::vector<double> out;
        out.reserve(kSamples);
        for (std::size_t i = 0; i < kSamples; ++i) out.push_back(output.raw(i));
        return out;
    }

private:
    std::vector<double> input_;
    std::vector<std::array<double, kCoeffs>> coef_;
};

} // namespace

std::unique_ptr<App> make_iir() { return std::make_unique<Iir>(); }

} // namespace tp::apps
