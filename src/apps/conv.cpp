// CONV — 5x5 convolution kernel over a grayscale image
// (paper, Section V-A).
//
// The 25-tap accumulation unrolls into four rotating partial accumulators,
// making the inner loops fully vectorizable. Pixel values live in [0, 255]
// and the kernel is normalized, so the output range matches the input.
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kImage = 20;           // input side
constexpr std::size_t kKernel = 5;           // kernel side
constexpr std::size_t kOut = kImage - kKernel + 1; // valid convolution

class Conv final : public KernelApp<Conv> {
public:
    // SignalIds, in declaration order.
    enum : SignalId { kImageSig, kKernelSig, kAccSig, kOutSig };

    Conv()
        : KernelApp({
              {"image", kImage * kImage},   // input pixels
              {"kernel", kKernel * kKernel},// filter weights
              {"acc", 1},                   // tap accumulator register
              {"out", kOut * kOut},         // output pixels
          }) {}

    [[nodiscard]] std::string_view name() const override { return "conv"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Conv>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0xC0471E57ULL + input_set};
        image_.assign(kImage * kImage, 0.0);
        // Smooth gradient plus texture noise, 8-bit-camera-like range.
        const double gx = rng.uniform(2.0, 8.0);
        const double gy = rng.uniform(2.0, 8.0);
        for (std::size_t i = 0; i < kImage; ++i) {
            for (std::size_t j = 0; j < kImage; ++j) {
                double v = 40.0 + gx * static_cast<double>(i) +
                           gy * static_cast<double>(j) + rng.uniform(0.0, 60.0);
                image_[i * kImage + j] = v > 255.0 ? 255.0 : v;
            }
        }
        // Unsharp-masking kernel: a strong positive center ringed by
        // negative weights (sum 1). The signed taps cancel on smooth
        // regions, so weight and pixel quantization noise is *amplified*
        // relative to the output — a precision-demanding convolution.
        kernel_.assign(kKernel * kKernel, 0.0);
        double ring_sum = 0.0;
        for (std::size_t r = 0; r < kKernel; ++r) {
            for (std::size_t c = 0; c < kKernel; ++c) {
                const double dr = static_cast<double>(r) - 2.0;
                const double dc = static_cast<double>(c) - 2.0;
                if (dr == 0.0 && dc == 0.0) continue;
                const double w = -1.0 / (1.0 + 0.8 * (dr * dr + dc * dc));
                kernel_[r * kKernel + c] = w;
                ring_sum += w;
            }
        }
        kernel_[2 * kKernel + 2] = 1.0 - ring_sum; // normalized to sum 1
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat image_f = config.at(kImageSig);
        const FpFormat kernel_f = config.at(kKernelSig);
        const FpFormat acc_f = config.at(kAccSig);
        const FpFormat out_f = config.at(kOutSig);

        Array image = ctx.make_array(image_f, image_.size());
        Array kernel = ctx.make_array(kernel_f, kernel_.size());
        Array out = ctx.make_array(out_f, kOut * kOut);
        for (std::size_t i = 0; i < image_.size(); ++i) image.set_raw(i, image_[i]);
        for (std::size_t i = 0; i < kernel_.size(); ++i) kernel.set_raw(i, kernel_[i]);

        // The 25 weights stay register-resident for the whole image.
        std::array<Value, kKernel * kKernel> w;
        for (std::size_t t = 0; t < w.size(); ++t) {
            w[t] = to(kernel.load(t), acc_f);
        }

        const Value zero = ctx.constant(0.0, acc_f);
        {
            const auto region = ctx.vector_region();
            for (std::size_t oi = 0; oi < kOut; ++oi) {
                for (std::size_t oj = 0; oj < kOut; ++oj) {
                    ctx.loop_iteration();
                    ctx.int_ops(2); // window base address
                    std::array<Value, 4> acc{zero, zero, zero, zero};
                    std::size_t tap = 0;
                    for (std::size_t r = 0; r < kKernel; ++r) {
                        ctx.int_ops(1); // row address step
                        for (std::size_t c = 0; c < kKernel; ++c, ++tap) {
                            // Column index bookkeeping and the tap-counter
                            // update the compiler cannot elide.
                            ctx.int_ops(2);
                            const Value px =
                                image.load((oi + r) * kImage + oj + c);
                            const Value prod = to(px, acc_f) * w[tap];
                            acc[tap % 4] = acc[tap % 4] + prod;
                        }
                    }
                    const Value s01 = acc[0] + acc[1];
                    const Value s23 = acc[2] + acc[3];
                    out.store(oi * kOut + oj, to(s01 + s23, out_f));
                }
            }
        }

        std::vector<double> output;
        output.reserve(kOut * kOut);
        for (std::size_t i = 0; i < kOut * kOut; ++i) output.push_back(out.raw(i));
        return output;
    }

private:
    std::vector<double> image_;
    std::vector<double> kernel_;
};

} // namespace

std::unique_ptr<App> make_conv() { return std::make_unique<Conv>(); }

} // namespace tp::apps
