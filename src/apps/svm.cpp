// SVM — prediction stage of a support vector machine with a degree-2
// polynomial kernel (paper, Section V-A).
//
// decision(x) = sum_i alpha_i * (gamma * <sv_i, x> + c)^2 + b
//
// The support-vector dot products dominate and unroll into four independent
// lanes; inputs are normalized to [0, 1]. The paper reports SVM as the
// application with the highest vectorizable fraction (~60% of FP
// operations) and the largest memory-access reduction (48%).
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kSupportVectors = 32;
constexpr std::size_t kDim = 16;
constexpr std::size_t kQueries = 16;
constexpr double kGamma = 0.125;
constexpr double kCoef0 = 0.5;
constexpr double kBias = -0.35;

class Svm final : public KernelApp<Svm> {
public:
    // SignalIds, in declaration order.
    enum : SignalId { kSv, kAlpha, kInput, kDot, kKernel, kDecision };

    Svm()
        : KernelApp({
              {"sv", kSupportVectors * kDim}, // support vector coordinates
              {"alpha", kSupportVectors},     // dual coefficients
              {"input", kQueries * kDim},     // query samples
              {"dot", 1},                     // dot-product accumulator
              {"kernel", 1},                  // kernel value register
              {"decision", kQueries},         // decision values
          }) {}

    [[nodiscard]] std::string_view name() const override { return "svm"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Svm>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0x57A7E5EEULL + input_set};
        sv_.assign(kSupportVectors * kDim, 0.0);
        alpha_.assign(kSupportVectors, 0.0);
        input_.assign(kQueries * kDim, 0.0);
        for (double& x : sv_) x = rng.uniform();
        for (double& x : input_) x = rng.uniform();
        for (std::size_t i = 0; i < kSupportVectors; ++i) {
            // Signed duals, moderate magnitude.
            alpha_[i] = rng.uniform(-1.0, 1.0);
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat sv_f = config.at(kSv);
        const FpFormat alpha_f = config.at(kAlpha);
        const FpFormat input_f = config.at(kInput);
        const FpFormat dot_f = config.at(kDot);
        const FpFormat kernel_f = config.at(kKernel);
        const FpFormat decision_f = config.at(kDecision);

        Array sv = ctx.make_array(sv_f, sv_.size());
        Array alpha = ctx.make_array(alpha_f, alpha_.size());
        Array input = ctx.make_array(input_f, input_.size());
        Array decision = ctx.make_array(decision_f, kQueries);
        for (std::size_t i = 0; i < sv_.size(); ++i) sv.set_raw(i, sv_[i]);
        for (std::size_t i = 0; i < alpha_.size(); ++i) alpha.set_raw(i, alpha_[i]);
        for (std::size_t i = 0; i < input_.size(); ++i) input.set_raw(i, input_[i]);

        const Value gamma = ctx.constant(kGamma, kernel_f);
        const Value coef0 = ctx.constant(kCoef0, kernel_f);
        const Value bias = ctx.constant(kBias, decision_f);
        const Value zero_dot = ctx.constant(0.0, dot_f);

        for (std::size_t query = 0; query < kQueries; ++query) {
            ctx.loop_iteration();
            // The query vector stays in FP registers across the SV scan.
            std::array<Value, kDim> x;
            for (std::size_t d = 0; d < kDim; ++d) {
                x[d] = to(input.load(query * kDim + d), dot_f);
            }

            Value dec = ctx.constant(0.0, decision_f);
            {
                const auto region = ctx.vector_region();
                for (std::size_t i = 0; i < kSupportVectors; ++i) {
                    ctx.loop_iteration();
                    ctx.int_ops(1);
                    std::array<Value, 4> acc{zero_dot, zero_dot, zero_dot,
                                             zero_dot};
                    for (std::size_t d = 0; d < kDim; d += 4) {
                        ctx.int_ops(3); // pointer updates and chunk counter
                        for (std::size_t lane = 0; lane < 4; ++lane) {
                            const Value s = sv.load(i * kDim + d + lane);
                            acc[lane] = acc[lane] + to(s, dot_f) * x[d + lane];
                        }
                    }
                    const Value dot =
                        (acc[0] + acc[1]) + (acc[2] + acc[3]);
                    const Value affine =
                        to(dot, kernel_f) * gamma + coef0;
                    const Value k2 = affine * affine;
                    const Value a = to(alpha.load(i), kernel_f);
                    dec = dec + to(a * k2, decision_f);
                }
            }
            decision.store(query, dec + bias);
        }

        std::vector<double> output;
        output.reserve(kQueries);
        for (std::size_t q = 0; q < kQueries; ++q) output.push_back(decision.raw(q));
        return output;
    }

private:
    std::vector<double> sv_;
    std::vector<double> alpha_;
    std::vector<double> input_;
};

} // namespace

std::unique_ptr<App> make_svm() { return std::make_unique<Svm>(); }

} // namespace tp::apps
