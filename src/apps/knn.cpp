// KNN — k-nearest neighbours by (squared) Euclidean distance
// (paper, Section V-A).
//
// The distance kernel is the archetypal vectorizable loop: per reference
// point, independent per-dimension subtract/multiply lanes feed four
// independent partial accumulators (the unrolled form a sub-word
// vectorizing compiler produces for a reduction). Inputs live in [0, 1],
// so every value fits the binary8 dynamic range — this is the application
// the paper reports as using binary8 for all program variables and
// reaching the maximum (30%) energy saving.
#include <array>
#include <cstddef>

#include "apps/app.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kPoints = 64;
constexpr std::size_t kDim = 8;
constexpr std::size_t kNeighbours = 5;

class Knn final : public KernelApp<Knn> {
public:
    // SignalIds, in declaration order.
    enum : SignalId { kTrain, kQuery, kDiff, kDist };

    Knn()
        : KernelApp({
              {"train", kPoints * kDim}, // reference point coordinates
              {"query", kDim},           // the query point
              {"diff", 1},               // per-dimension difference register
              {"dist", kPoints},         // squared distances
          }) {}

    [[nodiscard]] std::string_view name() const override { return "knn"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Knn>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0x5EEDBEEFULL + input_set};
        train_.assign(kPoints * kDim, 0.0);
        query_.assign(kDim, 0.0);
        for (double& x : train_) x = rng.uniform();
        for (double& x : query_) x = rng.uniform();
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat train_f = config.at(kTrain);
        const FpFormat query_f = config.at(kQuery);
        const FpFormat diff_f = config.at(kDiff);
        const FpFormat dist_f = config.at(kDist);

        Array train = ctx.make_array(train_f, train_.size());
        Array query = ctx.make_array(query_f, query_.size());
        Array dist = ctx.make_array(dist_f, kPoints);
        for (std::size_t i = 0; i < train_.size(); ++i) train.set_raw(i, train_[i]);
        for (std::size_t i = 0; i < query_.size(); ++i) query.set_raw(i, query_[i]);

        // The query is small enough to keep in FP registers across the
        // whole scan (one load + at most one cast per dimension).
        std::array<Value, kDim> q;
        for (std::size_t d = 0; d < kDim; ++d) {
            q[d] = to(query.load(d), diff_f);
        }

        const Value zero = ctx.constant(0.0, dist_f);
        {
            const auto region = ctx.vector_region();
            for (std::size_t p = 0; p < kPoints; ++p) {
                ctx.loop_iteration();
                ctx.int_ops(1); // row base address
                std::array<Value, 4> acc{zero, zero, zero, zero};
                for (std::size_t d = 0; d < kDim; d += 4) {
                    ctx.int_ops(2); // pointer update and chunk counter
                    for (std::size_t lane = 0; lane < 4; ++lane) {
                        const Value x = train.load(p * kDim + d + lane);
                        const Value delta = to(x, diff_f) - q[d + lane];
                        const Value sq = delta * delta;
                        acc[lane] = acc[lane] + to(sq, dist_f);
                    }
                }
                const Value r01 = acc[0] + acc[1];
                const Value r23 = acc[2] + acc[3];
                dist.store(p, r01 + r23);
            }
        }

        // Selection of the k smallest distances (scalar control flow; the
        // FP compares execute on the unit, the bookkeeping on the integer
        // core).
        std::array<bool, kPoints> taken{};
        std::vector<double> nearest;
        for (std::size_t k = 0; k < kNeighbours; ++k) {
            std::size_t best = kPoints;
            Value best_v;
            for (std::size_t p = 0; p < kPoints; ++p) {
                ctx.loop_iteration();
                if (taken[p]) continue;
                const Value v = dist.load(p);
                if (best == kPoints || v < best_v) {
                    best = p;
                    best_v = v;
                }
                ctx.int_ops(1); // index bookkeeping for the running minimum
            }
            taken[best] = true;
            nearest.push_back(best_v.value());
        }

        // Program output: the full distance vector, then the k minima.
        std::vector<double> output;
        output.reserve(kPoints + kNeighbours);
        for (std::size_t p = 0; p < kPoints; ++p) output.push_back(dist.raw(p));
        for (double v : nearest) output.push_back(v);
        return output;
    }

private:
    std::vector<double> train_;
    std::vector<double> query_;
};

} // namespace

std::unique_ptr<App> make_knn() { return std::make_unique<Knn>(); }

} // namespace tp::apps
