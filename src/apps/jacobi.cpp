// JACOBI — Jacobi relaxation on a 2D heat grid (paper, Section V-A).
//
// The kernel repeatedly replaces every interior cell by the average of its
// four neighbours. The stencil's unaligned accesses keep the paper's
// version scalar: no section is tagged vectorizable, which is exactly why
// JACOBI shows neither cycle nor energy gains in Figs. 5-7.
#include <cstddef>

#include "apps/app.hpp"
#include "types/encoding.hpp"
#include "util/random.hpp"

namespace tp::apps {
namespace {

constexpr std::size_t kN = 16;  // grid side
constexpr int kIterations = 150; // relaxation sweeps (errors accumulate)

class Jacobi final : public KernelApp<Jacobi> {
public:
    // SignalIds, in declaration order.
    enum : SignalId { kGridIn, kGrid, kCoeff, kTmp };

    Jacobi()
        : KernelApp({
              {"grid_in", kN * kN}, // the initial temperature field
              {"grid", kN * kN},    // the iterated field (both buffers)
              {"coeff", 1},         // the 1/4 averaging coefficient
              {"tmp", 1},           // the accumulator holding the 4-neighbour sum
          }) {}

    [[nodiscard]] std::string_view name() const override { return "jacobi"; }

    [[nodiscard]] std::unique_ptr<App> clone() const override {
        return std::make_unique<Jacobi>(*this);
    }

    void prepare(unsigned input_set) override {
        util::Xoshiro256 rng{0xA110C0DEULL + input_set};
        init_.assign(kN * kN, 0.0);
        // Hot top edge, cool interior with mild noise.
        for (std::size_t j = 0; j < kN; ++j) {
            init_[j] = 80.0 + 40.0 * rng.uniform();
        }
        for (std::size_t i = 1; i + 1 < kN; ++i) {
            for (std::size_t j = 1; j + 1 < kN; ++j) {
                init_[i * kN + j] = 25.0 * rng.uniform();
            }
        }
    }

    template <class Ctx>
    std::vector<double> kernel(Ctx& ctx, const TypeConfig& config) {
        using Value = typename Ctx::Value;
        using Array = typename Ctx::Array;
        const FpFormat grid_in_f = config.at(kGridIn);
        const FpFormat grid_f = config.at(kGrid);
        const FpFormat coeff_f = config.at(kCoeff);
        const FpFormat tmp_f = config.at(kTmp);

        Array front = ctx.make_array(grid_f, kN * kN);
        Array back = ctx.make_array(grid_f, kN * kN);
        for (std::size_t i = 0; i < init_.size(); ++i) {
            // The initial field arrives in its own (input) format before
            // entering the working grid — diffusion smooths its
            // quantization noise away, so it tolerates far fewer bits.
            const double staged = quantize(init_[i], grid_in_f);
            front.set_raw(i, staged);
            back.set_raw(i, staged); // boundary cells are never rewritten
        }

        // The averaging constant lives in a register for the whole kernel.
        const Value coeff = to(ctx.constant(0.25, coeff_f), tmp_f);

        Array* src = &front;
        Array* dst = &back;
        for (int it = 0; it < kIterations; ++it) {
            for (std::size_t i = 1; i + 1 < kN; ++i) {
                // Register reuse across the row sweep, as an optimizing
                // compiler produces it: west(j+1) equals east(j), so only
                // north, south and east are loaded per cell.
                Value west = src->load(i * kN);
                for (std::size_t j = 1; j + 1 < kN; ++j) {
                    ctx.loop_iteration();
                    ctx.int_ops(2); // stencil index arithmetic
                    const Value north = src->load((i - 1) * kN + j);
                    const Value south = src->load((i + 1) * kN + j);
                    const Value east = src->load(i * kN + j + 1);
                    Value sum = north + south;
                    sum = sum + west;
                    sum = sum + east;
                    const Value avg = to(sum, tmp_f) * coeff;
                    dst->store(i * kN + j, to(avg, grid_f));
                    west = east;
                }
            }
            std::swap(src, dst);
        }

        std::vector<double> output;
        output.reserve(kN * kN);
        for (std::size_t i = 0; i < kN * kN; ++i) output.push_back(src->raw(i));
        return output;
    }

private:
    std::vector<double> init_;
};

} // namespace

std::unique_ptr<App> make_jacobi() { return std::make_unique<Jacobi>(); }

} // namespace tp::apps
