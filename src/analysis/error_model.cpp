#include "analysis/error_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "flexfloat/arith_backend.hpp"
#include "sim/context.hpp"
#include "types/encoding.hpp"
#include "util/chunked_array.hpp"

namespace tp::analysis {

namespace {

/// A weight with a singularity (division by zero, sqrt at zero) degrades
/// to 0 — underestimating error keeps the derived bounds on the sound
/// side; such operands do not occur in golden-clean executions anyway.
double finite_or_zero(double w) noexcept { return std::isfinite(w) ? w : 0.0; }

int exponent_floor(double max_abs) noexcept {
    for (int e = 1; e <= 11; ++e) {
        const int bias = (1 << (e - 1)) - 1;
        if (max_abs < std::ldexp(1.0, bias + 1)) return e;
    }
    return 11;
}

/// Per-stream state for memory round-trips. Loads do not record the
/// element index, so the state is a stream-wide summary: the longest
/// accumulation chain ever stored into the stream, and the elementwise
/// maximum (abs) and running mean (var) of the stored coefficient rows —
/// max is sound for the worst-case rows; the mean is the right summary for
/// variance rows, whose tapped sums concentrate at the average element.
struct StreamState {
    int chain = 0;
    std::vector<double> abs_max;
    std::vector<double> var_sum;
    std::size_t stores = 0;
};

/// What the sink keeps per value id until the run ends, besides its rows.
struct IdState {
    double value = 0.0;
    std::int32_t signal = kUnknownSignal;
    int chain = 0; // accumulation-chain depth
};

/// Folds a tagged shadow run as the kernel emits it. Ids are settled in
/// ascending order: an instruction's result when it arrives, a constant
/// just before the first instruction that defines a later id or reads it
/// (or at the end of the batch), so observations and drifts are booked in
/// id order.
class ShadowSink final : public sim::TraceSink {
public:
    ShadowSink(std::size_t signal_count, const ShadowOptions& options)
        : S_(signal_count),
          options_(options),
          drift_terms_(std::min(signal_count, options.drift_steps.size())),
          rows_(2 * signal_count),
          observed_(signal_count),
          max_drift_(signal_count, 0.0),
          tap_variance_(signal_count, 0.0) {
        flow_.signal_count = signal_count;
        flow_.depends_on.assign(signal_count, std::vector<char>(signal_count, 0));
        flow_.ops_in_signal.assign(signal_count, 0);
        flow_.max_accumulation_chain.assign(signal_count, 0);
        if (options.lint) lint_ = std::make_unique<CastLint>(signal_count);
    }

    void feed(std::span<const sim::Instr> instrs,
              std::span<const sim::ValueRecord> values,
              std::span<const sim::OutputTap> taps) override {
        const std::size_t end = received_ + values.size();
        ids_.grow_to(end);
        rows_.grow_to(end);
        for (std::size_t k = 0; k < values.size(); ++k) {
            IdState& id = ids_[received_ + k];
            id.value = values[k].value;
            id.signal = signal_of_tag(values[k].fmt, S_);
        }
        received_ = end;

        for (const sim::Instr& instr : instrs) {
            const std::size_t index = instr_count_++;
            if (lint_ != nullptr && instr.kind == sim::InstrKind::FpCast) {
                lint_->add(instr, index);
            }
            if (instr.dst >= 0) {
                const auto dst = static_cast<std::size_t>(instr.dst);
                assert(dst < received_ &&
                       "a value record arrives with its defining instruction");
                settle(dst);
                const Ref out = ref(instr.dst);
                define(instr, out);
                book(out);
                settled_ = dst + 1;
            } else if (instr.kind == sim::InstrKind::Store) {
                if (instr.src1 >= 0) settle(static_cast<std::size_t>(instr.src1) + 1);
                store(instr);
            }
            // Compares, integer and branch instructions carry nothing.
        }
        settle(received_);
        // A tapped value's rows were final at its definition, so a readout
        // taken mid-stretch sees them as it would have then.
        for (const sim::OutputTap& tap : taps) {
            taps_.push_back(tap);
            const std::int32_t sig = signal_of_tag(tap.fmt, S_);
            if (tap.value_id >= 0) {
                const double* var = ref(tap.value_id).row + S_;
                for (std::size_t s = 0; s < S_; ++s) tap_variance_[s] += var[s];
            } else if (sig >= 0) {
                tap_variance_[static_cast<std::size_t>(sig)] +=
                    tap.value * tap.value / 3.0;
            }
        }
    }

    [[nodiscard]] ShadowRun finish(std::vector<double> output) {
        ShadowRun run;
        run.output = std::move(output);
        run.value_count = received_;
        run.ranges.assign(S_, StaticRange{});
        for (std::size_t s = 0; s < S_; ++s) {
            const SignalObservation& obs = observed_[s];
            StaticRange& range = run.ranges[s];
            if (obs.count == 0) continue;
            const double pad = options_.inflation * max_drift_[s];
            range.lo = obs.min_value - pad;
            range.hi = obs.max_value + pad;
            range.max_abs = std::max(std::fabs(range.lo), std::fabs(range.hi));
            range.exp_floor_bits = exponent_floor(range.max_abs);
            range.populated = true;
        }
        run.flow = std::move(flow_);
        run.observed = std::move(observed_);
        run.taps = std::move(taps_);
        run.tap_variance = std::move(tap_variance_);
        if (lint_ != nullptr) {
            run.lint = lint_->report();
            run.cast_sites = lint_->cast_sites();
            run.cast_chains = lint_->cast_chains();
        }
        return run;
    }

private:
    /// One id's state and rows (abs row, then var row), looked up once.
    struct Ref {
        IdState* state = nullptr; // null for an absent operand (id -1)
        double* row = nullptr;

        [[nodiscard]] std::int32_t signal() const noexcept {
            return state != nullptr ? state->signal : kUnknownSignal;
        }
        [[nodiscard]] double value() const noexcept {
            return state != nullptr ? state->value : 0.0;
        }
        [[nodiscard]] int chain() const noexcept {
            return state != nullptr ? state->chain : 0;
        }
    };

    [[nodiscard]] Ref ref(std::int32_t id) noexcept {
        if (id < 0) return {};
        const auto i = static_cast<std::size_t>(id);
        return {&ids_[i], rows_.row(i)};
    }

    void note_edge(std::int32_t consumer, const Ref& src) {
        const std::int32_t producer = src.signal();
        if (consumer >= 0 && producer >= 0) {
            flow_.depends_on[static_cast<std::size_t>(consumer)]
                            [static_cast<std::size_t>(producer)] = 1;
        }
    }

    // delta_r = w * delta_src, accumulated into the dst rows.
    void accumulate(const Ref& dst, const Ref& src, double w) {
        if (src.state == nullptr || w == 0.0) return;
        w = finite_or_zero(w);
        const double aw = std::fabs(w);
        const double vw = w * w;
        double* da = dst.row;
        double* dv = dst.row + S_;
        const double* sa = src.row;
        const double* sv = src.row + S_;
        for (std::size_t s = 0; s < S_; ++s) {
            da[s] += aw * sa[s];
            dv[s] += vw * sv[s];
        }
    }

    // One rounding of result magnitude `r` into signal `sig`: worst case
    // |r| * u_sig, variance r^2 u_sig^2 / 3 (uniform in +-|r| u_sig).
    void add_rounding(const Ref& dst, std::int32_t sig, double r) {
        if (sig < 0 || !std::isfinite(r) || r == 0.0) return;
        dst.row[static_cast<std::size_t>(sig)] += std::fabs(r);
        dst.row[S_ + static_cast<std::size_t>(sig)] += r * r / 3.0;
    }

    /// Settles the constants among ids [settled_, upto): a real run rounds
    /// a constant into its signal's format once — unless the value is
    /// exact already at the precision floor (0, +-1, powers of two, ...),
    /// in which case it is exact at every tuning format that can range it.
    void settle(std::size_t upto) {
        for (; settled_ < upto; ++settled_) {
            const Ref id = ref(static_cast<std::int32_t>(settled_));
            const double v = id.state->value;
            if (v != quantize(v, FpFormat{11, 1})) {
                add_rounding(id, id.state->signal, v);
            }
            book(id);
        }
    }

    /// Books a settled id's observation and worst-case drift.
    void book(const Ref& id) {
        if (id.state->signal < 0) return;
        const auto sig = static_cast<std::size_t>(id.state->signal);
        const double v = id.state->value;
        if (std::isfinite(v)) {
            SignalObservation& obs = observed_[sig];
            if (obs.count == 0) {
                obs.min_value = obs.max_value = v;
            } else {
                obs.min_value = std::min(obs.min_value, v);
                obs.max_value = std::max(obs.max_value, v);
            }
            obs.max_abs = std::max(obs.max_abs, std::fabs(v));
            if (v != 0.0) {
                obs.min_abs_nonzero =
                    obs.min_abs_nonzero == 0.0
                        ? std::fabs(v)
                        : std::min(obs.min_abs_nonzero, std::fabs(v));
            }
            ++obs.count;
        }
        double drift = 0.0;
        for (std::size_t s = 0; s < drift_terms_; ++s) {
            drift += id.row[s] * options_.drift_steps[s];
        }
        max_drift_[sig] = std::max(max_drift_[sig], drift);
    }

    /// An instruction that defines a value: its flow and its rows.
    void define(const sim::Instr& instr, const Ref& out) {
        const std::int32_t sig = out.state->signal;
        const double r = out.state->value;
        const Ref a = ref(instr.src1);
        switch (instr.kind) {
        case sim::InstrKind::FpArith: {
            const Ref b = ref(instr.src2);
            const Ref c = ref(instr.src3);
            note_edge(sig, a);
            note_edge(sig, b);
            note_edge(sig, c);
            if (sig >= 0) ++flow_.ops_in_signal[static_cast<std::size_t>(sig)];
            const bool accumulating = instr.op == FpOp::Add ||
                                      instr.op == FpOp::Sub ||
                                      instr.op == FpOp::Fma;
            int depth = std::max(std::max(a.chain(), b.chain()), c.chain());
            if (accumulating) {
                depth += 1;
                if (sig >= 0) {
                    int& best = flow_.max_accumulation_chain[static_cast<std::size_t>(sig)];
                    best = std::max(best, depth);
                }
            }
            out.state->chain = depth;

            switch (instr.op) {
            case FpOp::Add:
            case FpOp::Sub:
                accumulate(out, a, 1.0);
                accumulate(out, b, instr.op == FpOp::Add ? 1.0 : -1.0);
                add_rounding(out, sig, r);
                break;
            case FpOp::Mul:
                accumulate(out, a, b.value());
                accumulate(out, b, a.value());
                add_rounding(out, sig, r);
                break;
            case FpOp::Div: {
                const double bv = b.value();
                accumulate(out, a, bv != 0.0 ? 1.0 / bv : 0.0);
                accumulate(out, b, bv != 0.0 ? -r / bv : 0.0);
                add_rounding(out, sig, r);
                break;
            }
            case FpOp::Sqrt: {
                const double av = a.value();
                accumulate(out, a, av > 0.0 ? 0.5 / std::sqrt(av) : 0.0);
                add_rounding(out, sig, r);
                break;
            }
            case FpOp::Fma:
                accumulate(out, a, b.value());
                accumulate(out, b, a.value());
                accumulate(out, c, 1.0);
                add_rounding(out, sig, r); // fused: a single rounding
                break;
            case FpOp::Neg:
            case FpOp::Abs:
                accumulate(out, a, instr.op == FpOp::Neg ? -1.0 : 1.0);
                break; // sign ops are exact in any format
            default:
                break;
            }
            break;
        }
        case sim::InstrKind::FpCast:
            note_edge(sig, a);
            out.state->chain = a.chain();
            accumulate(out, a, 1.0); // FromInt has no FP source
            add_rounding(out, sig, r);
            break;
        case sim::InstrKind::Load: {
            // A load continues the longest chain ever stored into its
            // stream: a memory round-trip does not reset error growth.
            if (instr.stream < streams_.size()) {
                const StreamState& st = streams_[instr.stream];
                out.state->chain = st.chain;
                if (st.stores > 0) {
                    double* da = out.row;
                    double* dv = out.row + S_;
                    const double inv = 1.0 / static_cast<double>(st.stores);
                    for (std::size_t s = 0; s < S_; ++s) {
                        da[s] += st.abs_max[s];
                        dv[s] += st.var_sum[s] * inv;
                    }
                }
            }
            // Storage quantization of the element format (exact for values
            // that were store()d — their last rounding is already in the
            // row — so this term mildly overestimates on written streams;
            // it is the real input-quantization term for set_raw inputs).
            add_rounding(out, sig, r);
            break;
        }
        default:
            break;
        }
    }

    void store(const sim::Instr& instr) {
        const Ref src = ref(instr.src1);
        // The array's element format is itself a signal binding: a store
        // into a differently-tagged stream is a dependency edge too.
        const std::int32_t src_signal = src.signal();
        const std::int32_t stream_signal = signal_of_tag(instr.fmt, S_);
        if (stream_signal >= 0 && src_signal >= 0) {
            flow_.depends_on[static_cast<std::size_t>(stream_signal)]
                            [static_cast<std::size_t>(src_signal)] = 1;
        }
        if (instr.stream >= streams_.size()) {
            streams_.resize(instr.stream + std::size_t{1});
        }
        StreamState& st = streams_[instr.stream];
        st.chain = std::max(st.chain, src.chain());
        if (src.state == nullptr) return;
        if (st.abs_max.empty()) {
            st.abs_max.assign(S_, 0.0);
            st.var_sum.assign(S_, 0.0);
        }
        const double* sa = src.row;
        const double* sv = src.row + S_;
        for (std::size_t s = 0; s < S_; ++s) {
            st.abs_max[s] = std::max(st.abs_max[s], sa[s]);
            st.var_sum[s] += sv[s];
        }
        ++st.stores;
    }

    std::size_t S_;
    const ShadowOptions& options_;
    std::size_t drift_terms_; // signals with a drift step
    ChunkedArray<IdState> ids_;
    ChunkedArray<double> rows_; // abs row, then var row, per id
    std::size_t received_ = 0;  // ids whose records arrived
    std::size_t settled_ = 0;   // ids whose rows are final and booked
    std::size_t instr_count_ = 0;
    std::vector<StreamState> streams_; // by stream id, grown on first store
    SignalFlowGraph flow_;
    std::vector<SignalObservation> observed_;
    std::vector<double> max_drift_;
    std::vector<sim::OutputTap> taps_;
    std::vector<double> tap_variance_;
    std::unique_ptr<CastLint> lint_;
};

} // namespace

ShadowRun shadow_run(apps::App& app, unsigned input_set,
                     const ShadowOptions& options) {
    const std::size_t S = app.signal_table().size();
    const apps::TypeConfig tags = tagging_config(S);
    app.prepare(input_set);
    ShadowSink sink{S, options};
    sim::TpContext ctx{sim::TpContext::Sinking{&sink}};
    std::vector<double> output;
    {
        const arith::ScopedBinary64 shadow;
        output = app.run(ctx, tags);
    }
    ctx.flush();
    return sink.finish(std::move(output));
}

} // namespace tp::analysis
