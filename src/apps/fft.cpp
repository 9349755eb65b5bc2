// FFT — radix-2 decimation-in-time complex FFT over 32 points
// (ROADMAP "new workloads": the canonical near-sensor spectral kernel).
//
// Every stage halves the number of butterfly groups and doubles the
// twiddle count, and the rounding behaviour differs per stage: early
// stages see raw samples, late stages see partially-accumulated spectra
// whose magnitude has grown by the stage gain. The tuner therefore gets
// one data-format signal and one twiddle-table signal PER STAGE — eleven
// signals in total, the widest SignalTable in the registry, which is
// exactly the stress the engine/service stack never saw from the paper's
// six kernels.
//
// The butterflies inside a stage are independent (disjoint pairs), so
// each stage is tagged vectorizable.
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kN = 32;      // transform length (complex points)
constexpr std::size_t kStages = 5;  // log2(kN)

/// Bit-reversal of `i` over log2(kN) bits (the DIT input permutation).
constexpr std::size_t bit_reverse(std::size_t i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < kStages; ++b) {
        r = (r << 1) | ((i >> b) & 1);
    }
    return r;
}

class Fft final : public KernelApp<Fft> {
public:
    // SignalIds, in declaration order: input, then per-stage twiddle
    // tables, then per-stage butterfly outputs.
    enum : SignalId {
        kInputSig,
        kTw0Sig,    // kTw0Sig + s is stage s's twiddle table
        kTw1Sig,
        kTw2Sig,
        kTw3Sig,
        kTw4Sig,
        kStage0Sig, // kStage0Sig + s is stage s's butterfly output
        kStage1Sig,
        kStage2Sig,
        kStage3Sig,
        kStage4Sig,
    };

    Fft()
        : KernelApp({
              {"input", 2 * kN},  // interleaved re/im time samples
              {"tw0", 2},         // stage-0 twiddles (1 complex root)
              {"tw1", 4},         // stage-1 twiddles (2 complex roots)
              {"tw2", 8},
              {"tw3", 16},
              {"tw4", 32},        // stage-4 twiddles (16 complex roots)
              {"stage0", 2 * kN}, // per-stage butterfly outputs (re/im)
              {"stage1", 2 * kN},
              {"stage2", 2 * kN},
              {"stage3", 2 * kN},
              {"stage4", 2 * kN}, // the output spectrum
          }) {}

    [[nodiscard]] std::string_view name() const override { return "fft"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Fft>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0xFF7B17F1EULL + input_set};
        input_.assign(2 * kN, 0.0);
        // Two tones on exact bins plus one off-bin tone and noise: the
        // spectrum has both dominant lines and a leakage floor, so the
        // quality metric sees large and small coefficients at once.
        const double phase = rng.uniform(0.0, 6.28);
        const std::size_t bin_a = 3 + static_cast<std::size_t>(rng.uniform_int(0, 2));
        constexpr double kTwoPi = 6.283185307179586476925286766559;
        for (std::size_t i = 0; i < kN; ++i) {
            const double t = static_cast<double>(i);
            const double re =
                20.0 * __builtin_cos(kTwoPi * static_cast<double>(bin_a) * t /
                                         static_cast<double>(kN) +
                                     phase) +
                6.0 * __builtin_cos(kTwoPi * 7.3 * t / static_cast<double>(kN)) +
                rng.normal(0.0, 1.0);
            const double im =
                12.0 * __builtin_sin(kTwoPi * 5.0 * t / static_cast<double>(kN)) +
                rng.normal(0.0, 1.0);
            input_[2 * i] = re;
            input_[2 * i + 1] = im;
        }
        // Twiddle tables: stage s uses the 2^s roots W_{2^(s+1)}^j,
        // j = 0..2^s-1. Constants, but regenerated here so a clone's
        // prepare() is self-contained.
        twiddle_.assign(kStages, {});
        for (std::size_t s = 0; s < kStages; ++s) {
            const std::size_t half = std::size_t{1} << s;
            twiddle_[s].assign(2 * half, 0.0);
            for (std::size_t j = 0; j < half; ++j) {
                const double angle =
                    -kTwoPi * static_cast<double>(j) /
                    static_cast<double>(2 * half);
                twiddle_[s][2 * j] = __builtin_cos(angle);
                twiddle_[s][2 * j + 1] = __builtin_sin(angle);
            }
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat input_f = config.at(kInputSig);

        Array input = ctx.make_array(input_f, 2 * kN);
        for (std::size_t i = 0; i < 2 * kN; ++i) input.set_raw(i, input_[i]);

        std::array<Array*, kStages> stages{};
        std::vector<Array> stage_storage;
        stage_storage.reserve(kStages);
        std::vector<Array> tw_storage;
        tw_storage.reserve(kStages);
        for (std::size_t s = 0; s < kStages; ++s) {
            stage_storage.push_back(
                ctx.make_array(config.at(kStage0Sig + s), 2 * kN));
            tw_storage.push_back(ctx.make_array(config.at(kTw0Sig + s),
                                                twiddle_[s].size()));
            for (std::size_t i = 0; i < twiddle_[s].size(); ++i) {
                tw_storage.back().set_raw(i, twiddle_[s][i]);
            }
            stages[s] = &stage_storage[s];
        }

        for (std::size_t s = 0; s < kStages; ++s) {
            const FpFormat acc_f = config.at(kStage0Sig + s);
            const std::size_t half = std::size_t{1} << s;

            // The stage's twiddle roots stay register-resident across all
            // its butterfly groups.
            std::vector<Value> wr(half);
            std::vector<Value> wi(half);
            for (std::size_t j = 0; j < half; ++j) {
                wr[j] = to(tw_storage[s].load(2 * j), acc_f);
                wi[j] = to(tw_storage[s].load(2 * j + 1), acc_f);
            }

            Array& dst = *stages[s];
            const auto region = ctx.vector_region();
            for (std::size_t base = 0; base < kN; base += 2 * half) {
                for (std::size_t j = 0; j < half; ++j) {
                    ctx.loop_iteration();
                    ctx.int_ops(3); // butterfly pair + twiddle indexing
                    const std::size_t a = base + j;
                    const std::size_t b = base + j + half;

                    // Stage 0 reads the input in bit-reversed order; later
                    // stages read their predecessor's output.
                    Value ur;
                    Value ui;
                    Value vr;
                    Value vi;
                    if (s == 0) {
                        ctx.int_ops(2); // bit-reversed address generation
                        ur = to(input.load(2 * bit_reverse(a)), acc_f);
                        ui = to(input.load(2 * bit_reverse(a) + 1), acc_f);
                        vr = to(input.load(2 * bit_reverse(b)), acc_f);
                        vi = to(input.load(2 * bit_reverse(b) + 1), acc_f);
                    } else {
                        Array& src = *stages[s - 1];
                        ur = to(src.load(2 * a), acc_f);
                        ui = to(src.load(2 * a + 1), acc_f);
                        vr = to(src.load(2 * b), acc_f);
                        vi = to(src.load(2 * b + 1), acc_f);
                    }

                    // t = W * v (complex), then the butterfly u +- t. The
                    // four products are independent — the SIMD target.
                    const Value tr = vr * wr[j] - vi * wi[j];
                    const Value ti = vr * wi[j] + vi * wr[j];
                    dst.store(2 * a, ur + tr);
                    dst.store(2 * a + 1, ui + ti);
                    dst.store(2 * b, ur - tr);
                    dst.store(2 * b + 1, ui - ti);
                }
            }
        }

        // Program output: the interleaved complex spectrum.
        std::vector<double> output;
        output.reserve(2 * kN);
        for (std::size_t i = 0; i < 2 * kN; ++i) {
            output.push_back(stages[kStages - 1]->raw(i));
        }
        return output;
    }

private:
    std::vector<double> input_;
    std::vector<std::vector<double>> twiddle_; // per stage, interleaved re/im
};

} // namespace

std::unique_ptr<App> make_fft() { return std::make_unique<Fft>(); }

} // namespace tp::apps
