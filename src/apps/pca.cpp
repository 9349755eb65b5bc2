// PCA — principal component analysis: column means, centering, covariance,
// dominant eigenvector by power iteration, and sample projection
// (paper, Section V-A).
//
// Long scalar dot-product chains dominate, and the data's dynamic range
// (covariance accumulations beyond the binary16 maximum of 65504) forces
// wide-exponent formats — this is the application the paper singles out
// for cast overhead exceeding 10-20% of the operations and energy *above*
// the binary32 baseline. A manual-vectorization variant (the paper's
// Fig. 7 annotations 1-3) tags the centering, covariance and projection
// loops as vector regions with unrolled partial accumulators.
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kSamples = 32;
constexpr std::size_t kFeatures = 8;
constexpr int kPowerIterations = 12;

class Pca final : public KernelApp<Pca> {
public:
    // SignalIds, in declaration order.
    enum : SignalId { kData, kMean, kCentered, kCov, kVec, kAcc, kProj };

    explicit Pca(bool manual_vectorization)
        : KernelApp({
              {"data", kSamples * kFeatures},     // input samples
              {"mean", kFeatures},                // per-feature means
              {"centered", kSamples * kFeatures}, // centered data matrix
              {"cov", kFeatures * kFeatures},     // covariance matrix
              {"vec", kFeatures},                 // eigenvector iterate
              {"acc", 1},                         // dot-product accumulator
              {"proj", kSamples},                 // projections on the PC
          }),
          manual_vec_(manual_vectorization) {}

    [[nodiscard]] std::string_view name() const override {
        return manual_vec_ ? "pca-manual-vec" : "pca";
    }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Pca>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0xCAFED00DULL + input_set};
        data_.assign(kSamples * kFeatures, 0.0);
        // Features with distinct offsets and spreads; the magnitudes are
        // chosen so covariance accumulations overflow a 5-bit exponent.
        std::array<double, kFeatures> offset{};
        std::array<double, kFeatures> scale{};
        for (std::size_t f = 0; f < kFeatures; ++f) {
            offset[f] = rng.uniform(-150.0, 150.0);
            scale[f] = rng.uniform(20.0, 80.0);
        }
        // Two latent factors with a small eigengap: the power iteration
        // converges slowly, so the eigenvector output is sensitive to
        // rounding in the covariance accumulation — this is what pushes
        // PCA's accumulators to wide formats in the paper.
        for (std::size_t s = 0; s < kSamples; ++s) {
            const double latent1 = rng.normal();
            const double latent2 = rng.normal();
            for (std::size_t f = 0; f < kFeatures; ++f) {
                const double loading1 = 0.5 + 0.4 * static_cast<double>(f % 3);
                const double loading2 = (f % 2 == 0) ? 0.8 : -0.6;
                data_[s * kFeatures + f] =
                    offset[f] + scale[f] * (loading1 * latent1 +
                                            0.97 * loading2 * latent2 +
                                            0.4 * rng.normal());
            }
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat data_f = config.at(kData);
        const FpFormat mean_f = config.at(kMean);
        const FpFormat centered_f = config.at(kCentered);
        const FpFormat cov_f = config.at(kCov);
        const FpFormat vec_f = config.at(kVec);
        const FpFormat acc_f = config.at(kAcc);
        const FpFormat proj_f = config.at(kProj);

        Array data = ctx.make_array(data_f, data_.size());
        for (std::size_t i = 0; i < data_.size(); ++i) data.set_raw(i, data_[i]);
        Array mean = ctx.make_array(mean_f, kFeatures);
        Array centered = ctx.make_array(centered_f, data_.size());
        Array cov = ctx.make_array(cov_f, kFeatures * kFeatures);
        Array vec = ctx.make_array(vec_f, kFeatures);
        Array proj = ctx.make_array(proj_f, kSamples);

        const Value inv_n =
            ctx.constant(1.0 / static_cast<double>(kSamples), acc_f);
        const Value inv_n1 =
            ctx.constant(1.0 / static_cast<double>(kSamples - 1), acc_f);

        // --- per-feature means --------------------------------------------
        for (std::size_t f = 0; f < kFeatures; ++f) {
            ctx.loop_iteration();
            Value acc = ctx.constant(0.0, acc_f);
            for (std::size_t s = 0; s < kSamples; ++s) {
                ctx.loop_iteration();
                ctx.int_ops(1);
                acc = acc + to(data.load(s * kFeatures + f), acc_f);
            }
            mean.store(f, to(acc * inv_n, mean_f));
        }

        // --- centering ----------------------------------------------------
        run_centering(ctx, data, mean, centered, centered_f);

        // --- covariance (upper triangle + symmetric fill) -----------------
        run_covariance(ctx, centered, cov, centered_f, cov_f, acc_f, inv_n1);

        // --- power iteration for the dominant eigenvector -----------------
        for (std::size_t f = 0; f < kFeatures; ++f) {
            vec.set_raw(f, 1.0); // deterministic start
        }
        Value eigenvalue = ctx.constant(0.0, acc_f);
        for (int it = 0; it < kPowerIterations; ++it) {
            ctx.loop_iteration();
            std::array<Value, kFeatures> w;
            for (std::size_t i = 0; i < kFeatures; ++i) {
                ctx.loop_iteration();
                Value acc = ctx.constant(0.0, acc_f);
                for (std::size_t j = 0; j < kFeatures; ++j) {
                    ctx.loop_iteration();
                    ctx.int_ops(1);
                    const Value cij = cov.load(i * kFeatures + j);
                    const Value vj = vec.load(j);
                    acc = acc + to(to(cij, vec_f) * vj, acc_f);
                }
                w[i] = acc;
            }
            Value norm2 = ctx.constant(0.0, acc_f);
            for (std::size_t i = 0; i < kFeatures; ++i) {
                norm2 = norm2 + w[i] * w[i];
            }
            const Value norm = sqrt(norm2);
            eigenvalue = norm;
            const Value rcp = ctx.constant(1.0, acc_f) / norm;
            for (std::size_t i = 0; i < kFeatures; ++i) {
                vec.store(i, to(w[i] * rcp, vec_f));
            }
        }

        // --- projections on the principal component -----------------------
        run_projection(ctx, centered, vec, proj, centered_f, vec_f, acc_f, proj_f);

        std::vector<double> output;
        output.reserve(kFeatures + 1 + kSamples);
        for (std::size_t f = 0; f < kFeatures; ++f) output.push_back(vec.raw(f));
        output.push_back(eigenvalue.value());
        for (std::size_t s = 0; s < kSamples; ++s) output.push_back(proj.raw(s));
        return output;
    }

private:
    template <class Ctx>
    void run_centering(Ctx& ctx, typename Ctx::Array& data,
                       typename Ctx::Array& mean, typename Ctx::Array& centered,
                       FpFormat centered_f) {
        using Value = typename Ctx::Value;
        // The eight means fit in FP registers for the whole loop.
        std::array<Value, kFeatures> m;
        for (std::size_t f = 0; f < kFeatures; ++f) {
            m[f] = to(mean.load(f), centered_f);
        }
        const auto body = [&] {
            for (std::size_t s = 0; s < kSamples; ++s) {
                ctx.loop_iteration();
                for (std::size_t f = 0; f < kFeatures; ++f) {
                    ctx.int_ops(1);
                    const Value x = to(data.load(s * kFeatures + f), centered_f);
                    centered.store(s * kFeatures + f, x - m[f]);
                }
            }
        };
        if (manual_vec_) {
            const auto region = ctx.vector_region();
            body();
        } else {
            body();
        }
    }

    template <class Ctx>
    void run_covariance(Ctx& ctx, typename Ctx::Array& centered,
                        typename Ctx::Array& cov, FpFormat centered_f,
                        FpFormat cov_f, FpFormat acc_f,
                        const typename Ctx::Value& inv_n1) {
        using Value = typename Ctx::Value;
        (void)centered_f;
        const auto body = [&] {
            for (std::size_t a = 0; a < kFeatures; ++a) {
                for (std::size_t b = a; b < kFeatures; ++b) {
                    ctx.loop_iteration();
                    std::array<Value, 2> acc{ctx.constant(0.0, acc_f),
                                             ctx.constant(0.0, acc_f)};
                    for (std::size_t s = 0; s < kSamples; s += 2) {
                        ctx.loop_iteration();
                        ctx.int_ops(2);
                        for (std::size_t lane = 0; lane < 2; ++lane) {
                            const Value ca =
                                centered.load((s + lane) * kFeatures + a);
                            const Value cb =
                                centered.load((s + lane) * kFeatures + b);
                            acc[lane] = acc[lane] + to(ca * cb, acc_f);
                        }
                    }
                    const Value cab = (acc[0] + acc[1]) * inv_n1;
                    cov.store(a * kFeatures + b, to(cab, cov_f));
                    if (a != b) {
                        ctx.int_ops(1);
                        cov.store(b * kFeatures + a, to(cab, cov_f));
                    }
                }
            }
        };
        if (manual_vec_) {
            const auto region = ctx.vector_region();
            body();
        } else {
            body();
        }
    }

    template <class Ctx>
    void run_projection(Ctx& ctx, typename Ctx::Array& centered,
                        typename Ctx::Array& vec, typename Ctx::Array& proj,
                        FpFormat centered_f, FpFormat vec_f, FpFormat acc_f,
                        FpFormat proj_f) {
        using Value = typename Ctx::Value;
        (void)centered_f;
        const auto body = [&] {
            for (std::size_t s = 0; s < kSamples; ++s) {
                ctx.loop_iteration();
                std::array<Value, 2> acc{ctx.constant(0.0, acc_f),
                                         ctx.constant(0.0, acc_f)};
                for (std::size_t f = 0; f < kFeatures; f += 2) {
                    ctx.int_ops(1);
                    for (std::size_t lane = 0; lane < 2; ++lane) {
                        const Value c = centered.load(s * kFeatures + f + lane);
                        const Value v = to(vec.load(f + lane), centered_f);
                        acc[lane] = acc[lane] + to(c * v, acc_f);
                    }
                }
                proj.store(s, to(acc[0] + acc[1], proj_f));
            }
        };
        (void)vec_f;
        if (manual_vec_) {
            const auto region = ctx.vector_region();
            body();
        } else {
            body();
        }
    }

    bool manual_vec_;
    std::vector<double> data_;
};

} // namespace

std::unique_ptr<App> make_pca(bool manual_vectorization) {
    return std::make_unique<Pca>(manual_vectorization);
}

} // namespace tp::apps
