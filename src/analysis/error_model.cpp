#include "analysis/error_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "types/encoding.hpp"

namespace tp::analysis {

namespace {

/// Per-stream error state for memory round-trips: the elementwise maximum
/// (abs) and running mean (var) of the coefficient rows ever stored into
/// the stream. Loads do not record the element index, so the state is a
/// stream-wide summary: max is sound for the worst-case rows; the mean is
/// the right summary for variance rows, whose tapped sums concentrate at
/// the average element.
struct StreamState {
    std::vector<double> abs_max;
    std::vector<double> var_sum;
    std::size_t stores = 0;
};

/// A weight with a singularity (division by zero, sqrt at zero) degrades
/// to 0 — underestimating error keeps the derived bounds on the sound
/// side; such operands do not occur in golden-clean executions anyway.
double finite_or_zero(double w) noexcept { return std::isfinite(w) ? w : 0.0; }

} // namespace

ErrorModel build_error_model(const sim::TraceProgram& program,
                             const SignalFlowGraph& flow) {
    ErrorModel model;
    const std::size_t S = flow.signal_count;
    const std::size_t V = program.value_count;
    model.signal_count = S;
    model.value_count = V;
    model.abs_coeff.assign(V * S, 0.0);
    model.var_coeff.assign(V * S, 0.0);
    model.values.assign(V, 0.0);
    model.observed.assign(S, SignalObservation{});

    for (std::size_t id = 0; id < program.values.size() && id < V; ++id) {
        const double v = program.values[id].value;
        model.values[id] = v;
        const std::int32_t sig = flow.value_signal[id];
        if (sig < 0 || !std::isfinite(v)) continue;
        SignalObservation& obs = model.observed[static_cast<std::size_t>(sig)];
        if (obs.count == 0) {
            obs.min_value = obs.max_value = v;
        } else {
            obs.min_value = std::min(obs.min_value, v);
            obs.max_value = std::max(obs.max_value, v);
        }
        obs.max_abs = std::max(obs.max_abs, std::fabs(v));
        if (v != 0.0) {
            obs.min_abs_nonzero = obs.min_abs_nonzero == 0.0
                                      ? std::fabs(v)
                                      : std::min(obs.min_abs_nonzero, std::fabs(v));
        }
        ++obs.count;
    }

    double* const abs = model.abs_coeff.data();
    double* const var = model.var_coeff.data();
    const auto abs_row = [&](std::int32_t id) { return abs + static_cast<std::size_t>(id) * S; };
    const auto var_row = [&](std::int32_t id) { return var + static_cast<std::size_t>(id) * S; };

    // delta_r = w * delta_src, accumulated into the dst rows.
    const auto accumulate = [&](std::int32_t dst, std::int32_t src, double w) {
        if (src < 0 || w == 0.0) return;
        w = finite_or_zero(w);
        const double aw = std::fabs(w);
        const double vw = w * w;
        double* da = abs_row(dst);
        double* dv = var_row(dst);
        const double* sa = abs_row(src);
        const double* sv = var_row(src);
        for (std::size_t s = 0; s < S; ++s) {
            da[s] += aw * sa[s];
            dv[s] += vw * sv[s];
        }
    };
    // One rounding of result magnitude `r` into signal `sig`: worst case
    // |r| * u_sig, variance r^2 u_sig^2 / 3 (uniform in +-|r| u_sig).
    const auto add_rounding = [&](std::int32_t dst, std::int32_t sig, double r) {
        if (sig < 0 || !std::isfinite(r) || r == 0.0) return;
        abs_row(dst)[static_cast<std::size_t>(sig)] += std::fabs(r);
        var_row(dst)[static_cast<std::size_t>(sig)] += r * r / 3.0;
    };
    const auto value_of = [&](std::int32_t id) {
        return id >= 0 ? model.values[static_cast<std::size_t>(id)] : 0.0;
    };

    // Leaves: ids no instruction defines are register constants. A real run
    // rounds the constant into its signal's format once — unless the value
    // is exact already at the precision floor (0, +-1, powers of two, ...),
    // in which case it is exact at every tuning format that can range it.
    std::vector<char> defined(V, 0);
    for (const sim::Instr& instr : program.instrs) {
        if (instr.dst >= 0) defined[static_cast<std::size_t>(instr.dst)] = 1;
    }
    for (std::size_t id = 0; id < V; ++id) {
        if (defined[id]) continue;
        const std::int32_t sig = flow.value_signal[id];
        const double v = model.values[id];
        if (v == quantize(v, FpFormat{11, 1})) continue;
        add_rounding(static_cast<std::int32_t>(id), sig, v);
    }

    std::vector<StreamState> streams; // by stream id, grown on first store

    for (const sim::Instr& instr : program.instrs) {
        const std::int32_t dst = instr.dst;
        switch (instr.kind) {
        case sim::InstrKind::FpArith: {
            if (dst < 0) break; // compares carry no error forward
            const std::int32_t sig = flow.value_signal[static_cast<std::size_t>(dst)];
            const double a = value_of(instr.src1);
            const double b = value_of(instr.src2);
            const double r = value_of(dst);
            switch (instr.op) {
            case FpOp::Add:
            case FpOp::Sub:
                accumulate(dst, instr.src1, 1.0);
                accumulate(dst, instr.src2, instr.op == FpOp::Add ? 1.0 : -1.0);
                add_rounding(dst, sig, r);
                break;
            case FpOp::Mul:
                accumulate(dst, instr.src1, b);
                accumulate(dst, instr.src2, a);
                add_rounding(dst, sig, r);
                break;
            case FpOp::Div:
                accumulate(dst, instr.src1, b != 0.0 ? 1.0 / b : 0.0);
                accumulate(dst, instr.src2, b != 0.0 ? -r / b : 0.0);
                add_rounding(dst, sig, r);
                break;
            case FpOp::Sqrt:
                accumulate(dst, instr.src1, a > 0.0 ? 0.5 / std::sqrt(a) : 0.0);
                add_rounding(dst, sig, r);
                break;
            case FpOp::Fma:
                accumulate(dst, instr.src1, b);
                accumulate(dst, instr.src2, a);
                accumulate(dst, instr.src3, 1.0);
                add_rounding(dst, sig, r); // fused: a single rounding
                break;
            case FpOp::Neg:
            case FpOp::Abs:
                accumulate(dst, instr.src1, instr.op == FpOp::Neg ? -1.0 : 1.0);
                break; // sign ops are exact in any format
            default:
                break;
            }
            break;
        }
        case sim::InstrKind::FpCast: {
            if (dst < 0) break;
            const std::int32_t sig = flow.value_signal[static_cast<std::size_t>(dst)];
            accumulate(dst, instr.src1, 1.0); // FromInt has no FP source
            add_rounding(dst, sig, value_of(dst));
            break;
        }
        case sim::InstrKind::Load: {
            if (dst < 0) break;
            const std::int32_t sig = flow.value_signal[static_cast<std::size_t>(dst)];
            if (instr.stream < streams.size() &&
                streams[instr.stream].stores > 0) {
                const StreamState& st = streams[instr.stream];
                double* da = abs_row(dst);
                double* dv = var_row(dst);
                const double inv = 1.0 / static_cast<double>(st.stores);
                for (std::size_t s = 0; s < S; ++s) {
                    da[s] += st.abs_max[s];
                    dv[s] += st.var_sum[s] * inv;
                }
            }
            // Storage quantization of the element format (exact for values
            // that were store()d — their last rounding is already in the
            // row — so this term mildly overestimates on written streams;
            // it is the real input-quantization term for set_raw inputs).
            add_rounding(dst, sig, value_of(dst));
            break;
        }
        case sim::InstrKind::Store: {
            if (instr.src1 < 0) break;
            if (instr.stream >= streams.size()) {
                streams.resize(instr.stream + std::size_t{1});
            }
            StreamState& st = streams[instr.stream];
            if (st.abs_max.empty()) {
                st.abs_max.assign(S, 0.0);
                st.var_sum.assign(S, 0.0);
            }
            const double* sa = abs_row(instr.src1);
            const double* sv = var_row(instr.src1);
            for (std::size_t s = 0; s < S; ++s) {
                st.abs_max[s] = std::max(st.abs_max[s], sa[s]);
                st.var_sum[s] += sv[s];
            }
            ++st.stores;
            break;
        }
        default:
            break;
        }
    }
    return model;
}

} // namespace tp::analysis
