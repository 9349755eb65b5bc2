// MLP — two-layer perceptron inference (ROADMAP "new workloads": small
// embedded-ML classifier head).
//
// A batch of feature vectors flows through dense(16 -> 12) + ReLU +
// dense(12 -> 4). Weights, biases, the inter-layer activation storage and
// each layer's accumulator are separate signals: quantization noise
// injected before the ReLU behaves very differently from noise on the
// logits, which is the interesting tuning structure. The dot products
// unroll into four independent lanes, so both layers are tagged
// vectorizable (the SVM pattern, one layer deeper).
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kIn = 16;     // input features
constexpr std::size_t kHidden = 12; // hidden units
constexpr std::size_t kOut = 4;     // output logits
constexpr std::size_t kBatch = 8;   // samples per inference batch
constexpr std::size_t kLanes = 4;   // dot-product unroll width

class Mlp final : public KernelApp<Mlp> {
public:
    // SignalIds, in declaration order.
    enum : SignalId {
        kInputSig,
        kW1Sig,
        kB1Sig,
        kAcc1Sig,
        kHiddenSig,
        kW2Sig,
        kB2Sig,
        kAcc2Sig,
        kOutputSig,
    };

    Mlp()
        : KernelApp({
              {"input", kBatch * kIn},     // feature vectors
              {"w1", kIn * kHidden},       // layer-1 weights
              {"b1", kHidden},             // layer-1 biases
              {"acc1", 1},                 // layer-1 accumulator register
              {"hidden", kBatch * kHidden},// post-ReLU activations
              {"w2", kHidden * kOut},      // layer-2 weights
              {"b2", kOut},                // layer-2 biases
              {"acc2", 1},                 // layer-2 accumulator register
              {"output", kBatch * kOut},   // logits
          }) {}

    [[nodiscard]] std::string_view name() const override { return "mlp"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Mlp>(*this);
    }

    void prepare(unsigned input_set) override {
        // The model is fixed (one trained network); only the inference
        // batch varies with the input set.
        util::Xoshiro256 weights_rng{0x317ED0DE1ULL};
        w1_.assign(kIn * kHidden, 0.0);
        b1_.assign(kHidden, 0.0);
        w2_.assign(kHidden * kOut, 0.0);
        b2_.assign(kOut, 0.0);
        const double r1 = 0.46291004988627577; // Xavier: sqrt(6 / (16 + 12))
        const double r2 = 0.61237243569579447; // Xavier: sqrt(6 / (12 + 4))
        for (double& w : w1_) w = weights_rng.uniform(-r1, r1);
        for (double& b : b1_) b = weights_rng.uniform(-0.1, 0.1);
        for (double& w : w2_) w = weights_rng.uniform(-r2, r2);
        for (double& b : b2_) b = weights_rng.uniform(-0.1, 0.1);

        util::Xoshiro256 rng{0x317ED47AULL + input_set};
        input_.assign(kBatch * kIn, 0.0);
        // Standardized features with a few saturated outliers — the range
        // mix a real feature pipeline produces.
        for (double& x : input_) {
            x = rng.normal(0.0, 1.0);
            if (rng.uniform() < 0.05) x *= 4.0;
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat input_f = config.at(kInputSig);
        const FpFormat w1_f = config.at(kW1Sig);
        const FpFormat b1_f = config.at(kB1Sig);
        const FpFormat acc1_f = config.at(kAcc1Sig);
        const FpFormat hidden_f = config.at(kHiddenSig);
        const FpFormat w2_f = config.at(kW2Sig);
        const FpFormat b2_f = config.at(kB2Sig);
        const FpFormat acc2_f = config.at(kAcc2Sig);
        const FpFormat output_f = config.at(kOutputSig);

        Array input = ctx.make_array(input_f, input_.size());
        Array w1 = ctx.make_array(w1_f, w1_.size());
        Array b1 = ctx.make_array(b1_f, b1_.size());
        Array hidden = ctx.make_array(hidden_f, kBatch * kHidden);
        Array w2 = ctx.make_array(w2_f, w2_.size());
        Array b2 = ctx.make_array(b2_f, b2_.size());
        Array output = ctx.make_array(output_f, kBatch * kOut);
        for (std::size_t i = 0; i < input_.size(); ++i) input.set_raw(i, input_[i]);
        for (std::size_t i = 0; i < w1_.size(); ++i) w1.set_raw(i, w1_[i]);
        for (std::size_t i = 0; i < b1_.size(); ++i) b1.set_raw(i, b1_[i]);
        for (std::size_t i = 0; i < w2_.size(); ++i) w2.set_raw(i, w2_[i]);
        for (std::size_t i = 0; i < b2_.size(); ++i) b2.set_raw(i, b2_[i]);

        const Value zero1 = ctx.constant(0.0, acc1_f);
        const Value zero2 = ctx.constant(0.0, acc2_f);

        for (std::size_t n = 0; n < kBatch; ++n) {
            ctx.loop_iteration();

            // Layer 1: x . w1[:, h] + b1[h], then ReLU, stored to the
            // activation array. The sample's features stay in registers
            // across all hidden units.
            std::array<Value, kIn> x;
            for (std::size_t d = 0; d < kIn; ++d) {
                x[d] = to(input.load(n * kIn + d), acc1_f);
            }
            {
                const auto region = ctx.vector_region();
                for (std::size_t h = 0; h < kHidden; ++h) {
                    ctx.loop_iteration();
                    ctx.int_ops(1); // weight-column base address
                    std::array<Value, kLanes> acc{zero1, zero1, zero1, zero1};
                    for (std::size_t d = 0; d < kIn; d += kLanes) {
                        ctx.int_ops(2); // pointer and chunk bookkeeping
                        for (std::size_t lane = 0; lane < kLanes; ++lane) {
                            const Value w = w1.load((d + lane) * kHidden + h);
                            acc[lane] = acc[lane] + to(w, acc1_f) * x[d + lane];
                        }
                    }
                    const Value dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
                    const Value pre = dot + to(b1.load(h), acc1_f);
                    // ReLU: the compare runs on the FP unit, the select on
                    // the integer core.
                    ctx.branch(1);
                    const Value act = pre > zero1 ? pre : zero1;
                    hidden.store(n * kHidden + h, to(act, hidden_f));
                }
            }

            // Layer 2: hidden . w2[:, o] + b2[o] — the logits.
            std::array<Value, kHidden> a;
            for (std::size_t h = 0; h < kHidden; ++h) {
                a[h] = to(hidden.load(n * kHidden + h), acc2_f);
            }
            {
                const auto region = ctx.vector_region();
                for (std::size_t o = 0; o < kOut; ++o) {
                    ctx.loop_iteration();
                    ctx.int_ops(1);
                    std::array<Value, kLanes> acc{zero2, zero2, zero2, zero2};
                    for (std::size_t h = 0; h < kHidden; h += kLanes) {
                        ctx.int_ops(2);
                        for (std::size_t lane = 0; lane < kLanes; ++lane) {
                            const Value w = w2.load((h + lane) * kOut + o);
                            acc[lane] = acc[lane] + to(w, acc2_f) * a[h + lane];
                        }
                    }
                    const Value dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
                    const Value logit = dot + to(b2.load(o), acc2_f);
                    output.store(n * kOut + o, to(logit, output_f));
                }
            }
        }

        std::vector<double> out;
        out.reserve(kBatch * kOut);
        for (std::size_t i = 0; i < kBatch * kOut; ++i) out.push_back(output.raw(i));
        return out;
    }

private:
    std::vector<double> input_;
    std::vector<double> w1_;
    std::vector<double> b1_;
    std::vector<double> w2_;
    std::vector<double> b2_;
};

} // namespace

std::unique_ptr<App> make_mlp() { return std::make_unique<Mlp>(); }

} // namespace tp::apps
