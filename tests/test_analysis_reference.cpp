// Reference oracle for the streamed static analysis: analysis::analyze()
// must equal, field by field and bit for bit, the stored-capture analysis
// it replaced. namespace reference below holds that analysis verbatim —
// capture_trace, build_signal_flow, build_error_model,
// static_signal_ranges(_at_uniform), lint_trace, collect_cast_sites and
// the analyze() body, with the value records and output taps the old
// TraceProgram carried. Only capture_trace changed: it records the shadow
// run through the sink seam (shadow_recorder.hpp) instead of a
// record_values context, and its program is rebuilt from the recording.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/derive_bounds.hpp"
#include "analysis/error_model.hpp"
#include "analysis/lint.hpp"
#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "shadow_recorder.hpp"
#include "sim/context.hpp"
#include "tuning/quality.hpp"
#include "types/encoding.hpp"

namespace tp::reference {

using analysis::CastSite;
using analysis::DeriveOptions;
using analysis::format_name;
using analysis::kUnknownSignal;
using analysis::LintDiagnostic;
using analysis::LintKind;
using analysis::LintReport;
using analysis::signal_of_tag;
using analysis::SignalBound;
using analysis::SignalObservation;
using analysis::staircase_config;
using analysis::StaticRange;
using analysis::tagging_config;

/// The stored program of a record_values capture: the trace plus the value
/// record of every id and every raw() readout.
struct TraceProgram {
    sim::Trace instrs;
    std::vector<sim::SimdGroup> groups;
    std::size_t value_count = 0;
    std::vector<sim::ValueRecord> values;
    std::vector<sim::OutputTap> output_taps;
};

TraceProgram take_program(testing::Recorder& recorder) {
    TraceProgram program;
    program.instrs = std::move(recorder.run.instrs);
    program.value_count = recorder.run.values.size();
    program.values = std::move(recorder.run.values);
    program.output_taps = std::move(recorder.run.taps);
    return program;
}

/// One shadow reference execution: the recorded program (values + output
/// taps filled) and the run's output — equal to the app's golden output
/// up to the input-staging perturbation above.
struct CapturedTrace {
    TraceProgram program;
    std::vector<double> output;
    unsigned input_set = 0;
    std::size_t signal_count = 0;
};

/// The signal-level dependency DAG folded out of a tagged capture.
struct SignalFlowGraph {
    std::size_t signal_count = 0;
    /// Producing signal per value id (dense, = tag of the creation format).
    std::vector<std::int32_t> value_signal;
    /// depends_on[consumer][producer]: some instruction producing into
    /// `consumer` reads a value of `producer`.
    std::vector<std::vector<char>> depends_on;
    /// FpArith instructions producing into each signal.
    std::vector<std::size_t> ops_in_signal;
    /// Longest same-signal Add/Sub/Fma chain observed per signal
    /// (accumulations; memory round-trips extend a chain via the stream's
    /// longest stored chain).
    std::vector<int> max_accumulation_chain;
};

class ErrorModel {
public:
    std::size_t signal_count = 0;
    std::size_t value_count = 0;
    /// Flat [value_count x signal_count] coefficient matrices (see header
    /// comment); rows of non-FP ids stay zero.
    std::vector<double> abs_coeff;
    std::vector<double> var_coeff;
    /// The recorded binary64 value per id (copied out of the capture so
    /// range analysis needs no second look at the program).
    std::vector<double> values;
    std::vector<SignalObservation> observed;

    [[nodiscard]] std::span<const double> abs_row(std::int32_t id) const noexcept {
        return {abs_coeff.data() + static_cast<std::size_t>(id) * signal_count,
                signal_count};
    }
    [[nodiscard]] std::span<const double> var_row(std::int32_t id) const noexcept {
        return {var_coeff.data() + static_cast<std::size_t>(id) * signal_count,
                signal_count};
    }
};

struct AppAnalysis {
    std::string app;
    double epsilon = 0.0;
    std::vector<SignalBound> signals; // SignalId order
    /// Signal DAG of the first captured input set.
    SignalFlowGraph flow;
    /// Static range enclosures, hulled over the captured input sets.
    std::vector<StaticRange> ranges;
    /// Instruction-level + signal-level diagnostics.
    LintReport lint;

};

CapturedTrace capture_trace(apps::App& app, unsigned input_set) {
    app.prepare(input_set);
    testing::Recorder recorder;
    sim::TpContext ctx{sim::TpContext::Sinking{&recorder}};
    CapturedTrace capture;
    capture.input_set = input_set;
    capture.signal_count = app.signal_table().size();
    {
        const arith::ScopedBinary64 shadow;
        capture.output = app.run(ctx, tagging_config(capture.signal_count));
    }
    ctx.flush();
    capture.program = take_program(recorder);
    return capture;
}

SignalFlowGraph build_signal_flow(const TraceProgram& program,
                                  std::size_t signal_count) {
    SignalFlowGraph flow;
    flow.signal_count = signal_count;
    flow.value_signal.assign(program.value_count, kUnknownSignal);
    for (std::size_t id = 0; id < program.values.size(); ++id) {
        flow.value_signal[id] = signal_of_tag(program.values[id].fmt, signal_count);
    }
    flow.depends_on.assign(signal_count, std::vector<char>(signal_count, 0));
    flow.ops_in_signal.assign(signal_count, 0);
    flow.max_accumulation_chain.assign(signal_count, 0);

    // Accumulation-chain depth per value id: how many same-signal Add/Sub/Fma
    // roundings stack between a leaf and this value. Loads continue the
    // longest chain ever stored into their stream (a memory round-trip does
    // not reset error growth).
    std::vector<int> chain(program.value_count, 0);
    std::vector<int> stream_chain; // by stream id, grown on first store

    const auto signal_of = [&](std::int32_t id) -> std::int32_t {
        return id >= 0 && static_cast<std::size_t>(id) < flow.value_signal.size()
                   ? flow.value_signal[id]
                   : kUnknownSignal;
    };
    const auto note_edge = [&](std::int32_t consumer, std::int32_t src) {
        const std::int32_t producer = signal_of(src);
        if (consumer >= 0 && producer >= 0) {
            flow.depends_on[static_cast<std::size_t>(consumer)]
                           [static_cast<std::size_t>(producer)] = 1;
        }
    };
    const auto chain_of = [&](std::int32_t id) {
        return id >= 0 ? chain[static_cast<std::size_t>(id)] : 0;
    };

    for (const sim::Instr& instr : program.instrs) {
        const std::int32_t dst_signal = signal_of(instr.dst);
        switch (instr.kind) {
        case sim::InstrKind::FpArith: {
            note_edge(dst_signal, instr.src1);
            note_edge(dst_signal, instr.src2);
            note_edge(dst_signal, instr.src3);
            if (instr.dst < 0) break; // compares produce no value
            if (dst_signal >= 0) {
                ++flow.ops_in_signal[static_cast<std::size_t>(dst_signal)];
            }
            const bool accumulating = instr.op == FpOp::Add ||
                                      instr.op == FpOp::Sub ||
                                      instr.op == FpOp::Fma;
            int depth = std::max(std::max(chain_of(instr.src1), chain_of(instr.src2)),
                                 chain_of(instr.src3));
            if (accumulating) {
                depth += 1;
                if (dst_signal >= 0) {
                    auto& best = flow.max_accumulation_chain[static_cast<std::size_t>(dst_signal)];
                    best = std::max(best, depth);
                }
            }
            chain[static_cast<std::size_t>(instr.dst)] = depth;
            break;
        }
        case sim::InstrKind::FpCast:
            note_edge(dst_signal, instr.src1);
            if (instr.dst >= 0) {
                chain[static_cast<std::size_t>(instr.dst)] = chain_of(instr.src1);
            }
            break;
        case sim::InstrKind::Load:
            if (instr.dst >= 0) {
                chain[static_cast<std::size_t>(instr.dst)] =
                    instr.stream < stream_chain.size()
                        ? stream_chain[instr.stream]
                        : 0;
            }
            break;
        case sim::InstrKind::Store: {
            const std::int32_t src_signal = signal_of(instr.src1);
            // The array's element format is itself a signal binding: a store
            // into a differently-tagged stream is a dependency edge too.
            const std::int32_t stream_signal =
                signal_of_tag(instr.fmt, signal_count);
            if (stream_signal >= 0 && src_signal >= 0) {
                flow.depends_on[static_cast<std::size_t>(stream_signal)]
                               [static_cast<std::size_t>(src_signal)] = 1;
            }
            if (instr.stream >= stream_chain.size()) {
                stream_chain.resize(instr.stream + std::size_t{1}, 0);
            }
            int& best = stream_chain[instr.stream];
            best = std::max(best, chain_of(instr.src1));
            break;
        }
        default:
            break;
        }
    }
    return flow;
}

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

ErrorModel build_error_model(const TraceProgram& program,
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

namespace {

int exponent_floor(double max_abs) noexcept {
    for (int e = 1; e <= 11; ++e) {
        const int bias = (1 << (e - 1)) - 1;
        if (max_abs < std::ldexp(1.0, bias + 1)) return e;
    }
    return 11;
}

} // namespace

std::vector<StaticRange> static_signal_ranges(const ErrorModel& model,
                                              const SignalFlowGraph& flow,
                                              std::span<const double> u_per_signal,
                                              double inflation) {
    const std::size_t S = model.signal_count;
    std::vector<double> max_drift(S, 0.0);
    for (std::size_t id = 0; id < model.value_count; ++id) {
        const std::int32_t sig = flow.value_signal[id];
        if (sig < 0) continue;
        const std::span<const double> row =
            model.abs_row(static_cast<std::int32_t>(id));
        double drift = 0.0;
        for (std::size_t s = 0; s < S && s < u_per_signal.size(); ++s) {
            drift += row[s] * u_per_signal[s];
        }
        max_drift[static_cast<std::size_t>(sig)] =
            std::max(max_drift[static_cast<std::size_t>(sig)], drift);
    }

    std::vector<StaticRange> ranges(S);
    for (std::size_t s = 0; s < S; ++s) {
        const SignalObservation& obs = model.observed[s];
        StaticRange& range = ranges[s];
        if (obs.count == 0) continue;
        const double pad = inflation * max_drift[s];
        range.lo = obs.min_value - pad;
        range.hi = obs.max_value + pad;
        range.max_abs = std::max(std::fabs(range.lo), std::fabs(range.hi));
        range.exp_floor_bits = exponent_floor(range.max_abs);
        range.populated = true;
    }
    return ranges;
}

std::vector<StaticRange> static_signal_ranges_at_uniform(
    const ErrorModel& model, const SignalFlowGraph& flow, int precision_bits,
    double inflation) {
    const std::vector<double> u(model.signal_count,
                                std::ldexp(1.0, -precision_bits));
    return static_signal_ranges(model, flow, u, inflation);
}

namespace {

/// Whether rounding A -> I -> F can differ from rounding A -> F directly.
/// Safe ("innocuous") double rounding requires prec(I) >= 2 * prec(F) + 2;
/// the hazard needs the intermediate to actually round (narrower than the
/// source) and the final step to round again.
bool double_rounds(FpFormat a, FpFormat i, FpFormat f) noexcept {
    return i.precision() < a.precision() && f.precision() < i.precision() &&
           i.precision() < 2 * f.precision() + 2;
}

bool format_boundary_cast(const sim::Instr& instr) noexcept {
    return instr.kind == sim::InstrKind::FpCast && instr.op != FpOp::FromInt &&
           instr.op != FpOp::ToInt;
}

bool is_value_cast(const sim::Instr& instr) noexcept {
    return format_boundary_cast(instr) && instr.has_cast_target();
}

} // namespace

LintReport lint_trace(const TraceProgram& program) {
    LintReport report;
    // One diagnostic per distinct format pattern, with an occurrence count
    // — the same cast site re-executes every loop iteration.
    struct Folded {
        std::size_t diagnostic = 0;
        std::size_t occurrences = 0;
    };
    std::map<std::array<FpFormat, 3>, Folded> folded;
    const auto fold = [&](LintKind kind, std::int64_t index,
                          std::array<FpFormat, 3> key, std::string message) {
        auto [it, inserted] = folded.try_emplace(key);
        if (inserted) {
            it->second.diagnostic = report.diagnostics.size();
            report.diagnostics.push_back(
                LintDiagnostic{kind, index, -1, std::move(message)});
        }
        ++it->second.occurrences;
    };

    // Target format of each cast-produced value id, for chain detection.
    std::map<std::int32_t, std::pair<FpFormat, FpFormat>> cast_of;

    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        const sim::Instr& instr = program.instrs[i];
        if (!is_value_cast(instr)) continue;
        const std::int64_t index = static_cast<std::int64_t>(i);
        if (instr.fmt == instr.fmt2) {
            fold(LintKind::RedundantCast, index,
                 {instr.fmt, instr.fmt2, kNoFormat},
                 "cast converts " + format_name(instr.fmt) +
                     " to itself — drop it");
        }
        const auto prev = cast_of.find(instr.src1);
        if (prev != cast_of.end()) {
            const FpFormat a = prev->second.first;
            const FpFormat i_fmt = prev->second.second;
            const FpFormat f = instr.fmt2;
            if (double_rounds(a, i_fmt, f)) {
                fold(LintKind::DoubleRounding, index, {a, i_fmt, f},
                     "cast chain " + format_name(a) + " -> " +
                         format_name(i_fmt) + " -> " + format_name(f) +
                         " double-rounds (intermediate precision " +
                         std::to_string(i_fmt.precision()) + " < 2*" +
                         std::to_string(f.precision()) +
                         "+2); cast directly from the wide value");
            }
        }
        if (instr.dst >= 0) cast_of[instr.dst] = {instr.fmt, instr.fmt2};
    }

    for (const auto& [key, entry] : folded) {
        if (entry.occurrences > 1) {
            report.diagnostics[entry.diagnostic].message +=
                " [" + std::to_string(entry.occurrences) + " occurrences]";
        }
    }
    return report;
}

std::vector<CastSite> collect_cast_sites(const TraceProgram& program,
                                         std::size_t signal_count) {
    std::map<std::pair<std::int32_t, std::int32_t>, CastSite> sites;
    for (std::size_t i = 0; i < program.instrs.size(); ++i) {
        const sim::Instr& instr = program.instrs[i];
        if (!format_boundary_cast(instr)) continue;
        const std::int32_t src = signal_of_tag(instr.fmt, signal_count);
        const std::int32_t dst = signal_of_tag(instr.fmt2, signal_count);
        const auto [it, inserted] =
            sites.try_emplace({src, dst}, CastSite{src, dst, i, 0});
        ++it->second.occurrences;
    }
    std::vector<CastSite> result;
    result.reserve(sites.size());
    for (const auto& [key, site] : sites) result.push_back(site);
    std::sort(result.begin(), result.end(),
              [](const CastSite& a, const CastSite& b) {
                  return a.first_instr < b.first_instr;
              });
    return result;
}

namespace {

double l2_norm(const std::vector<double>& xs) noexcept {
    double sum = 0.0;
    for (const double x : xs) sum += x * x;
    return std::sqrt(sum);
}

/// Distance from `g` to its nearest representable in `fmt` — the floor on
/// any run's deviation at an output element stored in `fmt`, whatever
/// formats every other signal carries.
double representability_distance(double g, FpFormat fmt) noexcept {
    const double q = quantize(g, fmt);
    if (std::isfinite(q)) return std::fabs(q - g);
    return std::max(0.0, std::fabs(g) - max_finite(fmt));
}

int clamp_bits(int p) noexcept {
    return std::clamp(p, kMinPrecisionBits, kMaxPrecisionBits);
}

void merge_observation(SignalObservation& into, const SignalObservation& from) {
    if (from.count == 0) return;
    if (into.count == 0) {
        into = from;
        return;
    }
    into.min_value = std::min(into.min_value, from.min_value);
    into.max_value = std::max(into.max_value, from.max_value);
    into.max_abs = std::max(into.max_abs, from.max_abs);
    if (from.min_abs_nonzero != 0.0) {
        into.min_abs_nonzero = into.min_abs_nonzero == 0.0
                                   ? from.min_abs_nonzero
                                   : std::min(into.min_abs_nonzero,
                                              from.min_abs_nonzero);
    }
    into.count += from.count;
}

void merge_range(StaticRange& into, const StaticRange& from) {
    if (!from.populated) return;
    if (!into.populated) {
        into = from;
        return;
    }
    into.lo = std::min(into.lo, from.lo);
    into.hi = std::max(into.hi, from.hi);
    into.max_abs = std::max(into.max_abs, from.max_abs);
    into.exp_floor_bits = std::max(into.exp_floor_bits, from.exp_floor_bits);
}

} // namespace

AppAnalysis analyze(apps::App& app, double epsilon,
                    const DeriveOptions& options) {
    const std::size_t S = app.signal_table().size();
    AppAnalysis result;
    result.app = std::string(app.name());
    result.epsilon = epsilon;
    result.signals.assign(S, SignalBound{});
    result.ranges.assign(S, StaticRange{});
    for (std::size_t s = 0; s < S; ++s) {
        result.signals[s].name =
            app.signal_table().name(static_cast<apps::SignalId>(s));
    }

    const double quality_budget = std::sqrt(epsilon);
    constexpr int kUnset = kMaxPrecisionBits + 1;
    std::vector<int> best_bound(S, kUnset);
    std::vector<int> best_floor(S, kUnset);
    std::vector<int> best_model(S, kUnset);
    std::vector<double> worst_coeff(S, 0.0);
    std::vector<SignalObservation> merged_obs(S);
    std::set<std::array<std::int32_t, 3>> cast_chains;
    std::vector<CastSite> cast_sites;
    bool first = true;

    for (const unsigned set : options.input_sets) {
        const CapturedTrace capture = capture_trace(app, set);
        const SignalFlowGraph flow = build_signal_flow(capture.program, S);
        const ErrorModel model = build_error_model(capture.program, flow);
        const std::vector<double> golden = app.golden(set);
        const double den = l2_norm(golden);

        for (std::size_t s = 0; s < S; ++s) {
            merge_observation(merged_obs[s], model.observed[s]);
        }
        {
            std::vector<StaticRange> ranges = static_signal_ranges_at_uniform(
                model, flow, kMaxPrecisionBits, analysis::kRangeInflation);
            for (std::size_t s = 0; s < S; ++s) {
                merge_range(result.ranges[s], ranges[s]);
            }
        }

        // Map each tap to its golden output element. Every raw() read lands
        // in the program output in call order (all kernels build their
        // output exclusively from raw() reads, possibly interleaved with
        // untapped register readouts), so a forward scan over the shadow
        // output — which the taps match bit-for-bit, being the very values
        // read — recovers each tap's output index.
        std::vector<std::vector<double>> tapped_golden(S);
        std::vector<double> var_total(S, 0.0);
        std::size_t k = 0;
        for (const sim::OutputTap& tap : capture.program.output_taps) {
            double g = tap.value;
            while (k < capture.output.size() && capture.output[k] != tap.value) {
                ++k;
            }
            if (k < capture.output.size() && k < golden.size()) {
                g = golden[k];
                ++k;
            }
            const std::int32_t sig = signal_of_tag(tap.fmt, S);
            if (sig >= 0) {
                tapped_golden[static_cast<std::size_t>(sig)].push_back(g);
            }
            if (tap.value_id >= 0) {
                const std::span<const double> row = model.var_row(tap.value_id);
                for (std::size_t s = 0; s < S; ++s) var_total[s] += row[s];
            } else if (sig >= 0) {
                // set_raw-only element: its only error is the storage
                // quantization in the array's own signal format.
                var_total[static_cast<std::size_t>(sig)] +=
                    tap.value * tap.value / 3.0;
            }
        }

        // Calibrate the variance model against one real rounded execution.
        // First-order propagation over-shoots grossly through feedback
        // recursions (IIR state loops compound partials over the whole
        // sample stream, inflating coefficients by orders of magnitude no
        // fixed margin can absorb). The staircase probe measures the
        // model's prediction at a real operating point; dividing every
        // coefficient by the over-prediction factor pins the model to
        // observed behaviour. Deflation never raises a bound, so the
        // min-over-sets identity contract is untouched. When the probe is
        // unavailable (> 22 signals) or shows no error at all while the
        // model predicts some, the heuristic half is dropped entirely and
        // the rigorous floor stands alone.
        double deflate = 1.0;
        bool drop_model = false;
        if (S <= 22 && den > 0.0) {
            const apps::TypeConfig probe = staircase_config(S);
            app.prepare(set);
            sim::TpContext probe_ctx{sim::TpContext::Config{.trace = false}};
            const std::vector<double> probe_out = app.run(probe_ctx, probe);
            double pred2 = 0.0;
            for (std::size_t s = 0; s < S; ++s) {
                const double u = std::ldexp(
                    1.0,
                    -(static_cast<int>(
                          probe[static_cast<apps::SignalId>(s)].mant_bits) +
                      1));
                pred2 += var_total[s] * u * u;
            }
            const double predicted = std::sqrt(pred2) / den;
            const double actual = tuning::output_error(golden, probe_out);
            if (!std::isfinite(actual) || actual <= 0.0) {
                drop_model = predicted > 0.0;
            } else if (predicted > actual) {
                deflate = predicted / actual;
            }
        } else {
            drop_model = true;
        }

        for (std::size_t s = 0; s < S; ++s) {
            int floor_p = kMinPrecisionBits;
            if (den > 0.0 && !tapped_golden[s].empty()) {
                int p = kMinPrecisionBits;
                for (; p < kMaxPrecisionBits; ++p) {
                    const FpFormat fmt = options.type_system.trial_format(p);
                    double err2 = 0.0;
                    for (const double g : tapped_golden[s]) {
                        const double d = representability_distance(g, fmt);
                        err2 += d * d;
                    }
                    if (std::sqrt(err2) <= quality_budget * den) break;
                }
                floor_p = p; // 2..23 proven infeasible when p == kMax
            }

            const double coeff =
                den > 0.0 && !drop_model
                    ? std::sqrt(var_total[s]) / den / deflate
                    : 0.0;
            int model_p = kMinPrecisionBits;
            if (coeff > 0.0 && quality_budget > 0.0) {
                model_p = clamp_bits(
                    static_cast<int>(
                        std::ceil(std::log2(coeff / quality_budget))) -
                    analysis::kMarginBits);
            }
            best_floor[s] = std::min(best_floor[s], floor_p);
            best_model[s] = std::min(best_model[s], model_p);
            best_bound[s] =
                std::min(best_bound[s], std::max(floor_p, model_p));
            worst_coeff[s] = std::max(worst_coeff[s], coeff);
        }

        if (first) {
            result.flow = flow;
            result.lint = lint_trace(capture.program);
            cast_sites = collect_cast_sites(capture.program, S);
            // Signal-level cast chains for the structural double-rounding
            // hazard: value crosses three signals through back-to-back
            // casts.
            std::vector<std::pair<std::int32_t, std::int32_t>> cast_sigs(
                capture.program.value_count, {-1, -1});
            for (const sim::Instr& instr : capture.program.instrs) {
                if (instr.kind != sim::InstrKind::FpCast ||
                    instr.op == FpOp::FromInt || instr.op == FpOp::ToInt ||
                    instr.dst < 0) {
                    continue;
                }
                const std::int32_t sa = signal_of_tag(instr.fmt, S);
                const std::int32_t si = signal_of_tag(instr.fmt2, S);
                if (instr.src1 >= 0) {
                    const auto [pa, pi] =
                        cast_sigs[static_cast<std::size_t>(instr.src1)];
                    if (pa >= 0 && pi >= 0 && si >= 0 && pa != pi &&
                        pi != si) {
                        cast_chains.insert({pa, pi, si});
                    }
                }
                cast_sigs[static_cast<std::size_t>(instr.dst)] = {sa, si};
            }
            first = false;
        }
    }

    for (std::size_t s = 0; s < S; ++s) {
        SignalBound& sb = result.signals[s];
        sb.lower_bits = best_bound[s] == kUnset ? kMinPrecisionBits
                                                : clamp_bits(best_bound[s]);
        sb.representability_floor =
            best_floor[s] == kUnset ? kMinPrecisionBits : best_floor[s];
        sb.model_bits =
            best_model[s] == kUnset ? kMinPrecisionBits : best_model[s];
        sb.error_coefficient = worst_coeff[s];
        sb.exp_floor_bits =
            result.ranges[s].populated ? result.ranges[s].exp_floor_bits : 1;
    }

    const auto& table = app.signal_table();

    // Dead-cast check, driven by the cast-site pass (lint.hpp):
    // a cast whose source and destination signals are each forced to one
    // and the same member format by the derived bounds elides under every
    // reachable binding — the simulator never materializes it, so the
    // source program can drop the conversion outright. "Reachable" is the
    // sound over-approximation {members with precision >= lower_bits and
    // exponent width >= exp_floor_bits}; a bound relaxation can only grow
    // the set, so the diagnostic never outlives the bounds it came from.
    constexpr std::array<FormatKind, 4> kMembers{
        FormatKind::Binary8, FormatKind::Binary16, FormatKind::Binary16Alt,
        FormatKind::Binary32};
    const auto reachable_members = [&](std::int32_t sig) {
        std::vector<FormatKind> members;
        const SignalBound& sb = result.signals[static_cast<std::size_t>(sig)];
        for (const FormatKind kind : kMembers) {
            if (!options.type_system.contains(kind)) continue;
            const FpFormat fmt = format_of(kind);
            if (fmt.precision() >= sb.lower_bits &&
                static_cast<int>(fmt.exp_bits) >= sb.exp_floor_bits) {
                members.push_back(kind);
            }
        }
        return members;
    };
    for (const CastSite& site : cast_sites) {
        if (site.src_signal < 0 || site.dst_signal < 0 ||
            site.src_signal == site.dst_signal ||
            static_cast<std::size_t>(site.src_signal) >= S ||
            static_cast<std::size_t>(site.dst_signal) >= S) {
            continue;
        }
        const std::vector<FormatKind> src = reachable_members(site.src_signal);
        const std::vector<FormatKind> dst = reachable_members(site.dst_signal);
        if (src.size() != 1 || dst.size() != 1 || src[0] != dst[0]) continue;
        LintDiagnostic d;
        d.kind = LintKind::DeadCast;
        d.instr_index = static_cast<std::int64_t>(site.first_instr);
        d.signal = site.dst_signal;
        std::ostringstream msg;
        msg << "cast "
            << table.name(static_cast<apps::SignalId>(site.src_signal))
            << " -> "
            << table.name(static_cast<apps::SignalId>(site.dst_signal))
            << " is dead: the derived bounds force both signals to "
            << format_name(format_of(src[0]))
            << ", so the cast elides under every reachable binding — drop it";
        if (site.occurrences > 1) {
            msg << " [" << site.occurrences << " occurrences]";
        }
        d.message = std::move(msg).str();
        result.lint.diagnostics.push_back(std::move(d));
    }

    for (const auto& [sa, si, sf] : cast_chains) {
        LintDiagnostic d;
        d.kind = LintKind::DoubleRounding;
        d.signal = si;
        d.message = "values cast " + table.name(static_cast<apps::SignalId>(sa)) +
                    " -> " + table.name(static_cast<apps::SignalId>(si)) +
                    " -> " + table.name(static_cast<apps::SignalId>(sf)) +
                    ": double-rounds whenever " +
                    table.name(static_cast<apps::SignalId>(si)) +
                    " is tuned below 2*precision(" +
                    table.name(static_cast<apps::SignalId>(sf)) +
                    ")+2; consider casting directly";
        result.lint.diagnostics.push_back(std::move(d));
    }
    for (std::size_t s = 0; s < S; ++s) {
        const SignalBound& sb = result.signals[s];
        if (sb.lower_bits > kMinPrecisionBits &&
            result.flow.max_accumulation_chain[s] > 1) {
            LintDiagnostic d;
            d.kind = LintKind::InfeasibleAccumulation;
            d.signal = static_cast<std::int32_t>(s);
            d.message =
                sb.name + " cannot meet epsilon at the precision floor (" +
                std::to_string(kMinPrecisionBits) + " bits): bound " +
                std::to_string(sb.lower_bits) + " bits, accumulation chain of " +
                std::to_string(result.flow.max_accumulation_chain[s]) +
                " roundings over " +
                std::to_string(result.flow.ops_in_signal[s]) + " ops";
            result.lint.diagnostics.push_back(std::move(d));
        }
        const SignalObservation& obs = merged_obs[s];
        // Min normal of the e=5 family (binary8/binary16): 2^(1-15).
        if (obs.count > 0 && obs.max_abs > 0.0 &&
            obs.max_abs < std::ldexp(1.0, -14)) {
            LintDiagnostic d;
            d.kind = LintKind::SubnormalRange;
            d.signal = static_cast<std::int32_t>(s);
            std::ostringstream msg;
            msg << sb.name << ": all " << obs.count
                << " observed values sit below the e=5 normal range (max |v| = "
                << obs.max_abs
                << "); binary8/binary16 would denormalize or flush the whole "
                   "signal — prefer e=8 formats";
            d.message = std::move(msg).str();
            result.lint.diagnostics.push_back(std::move(d));
        }
    }
    return result;
}

} // namespace tp::reference

namespace tp {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const analysis::AppAnalysis& got,
                      const reference::AppAnalysis& want,
                      const std::string& label) {
    EXPECT_EQ(got.app, want.app) << label;
    EXPECT_EQ(bits(got.epsilon), bits(want.epsilon)) << label;
    ASSERT_EQ(got.signals.size(), want.signals.size()) << label;
    for (std::size_t s = 0; s < want.signals.size(); ++s) {
        const analysis::SignalBound& a = got.signals[s];
        const analysis::SignalBound& b = want.signals[s];
        const std::string where = label + " signal " + b.name;
        EXPECT_EQ(a.name, b.name) << where;
        EXPECT_EQ(a.lower_bits, b.lower_bits) << where;
        EXPECT_EQ(a.representability_floor, b.representability_floor) << where;
        EXPECT_EQ(a.model_bits, b.model_bits) << where;
        EXPECT_EQ(bits(a.error_coefficient), bits(b.error_coefficient)) << where;
        EXPECT_EQ(a.exp_floor_bits, b.exp_floor_bits) << where;
    }
    ASSERT_EQ(got.ranges.size(), want.ranges.size()) << label;
    for (std::size_t s = 0; s < want.ranges.size(); ++s) {
        const analysis::StaticRange& a = got.ranges[s];
        const analysis::StaticRange& b = want.ranges[s];
        const std::string where = label + " range " + std::to_string(s);
        EXPECT_EQ(a.populated, b.populated) << where;
        EXPECT_EQ(bits(a.lo), bits(b.lo)) << where;
        EXPECT_EQ(bits(a.hi), bits(b.hi)) << where;
        EXPECT_EQ(bits(a.max_abs), bits(b.max_abs)) << where;
        EXPECT_EQ(a.exp_floor_bits, b.exp_floor_bits) << where;
    }
    EXPECT_EQ(got.flow.signal_count, want.flow.signal_count) << label;
    EXPECT_EQ(got.flow.depends_on, want.flow.depends_on) << label;
    EXPECT_EQ(got.flow.ops_in_signal, want.flow.ops_in_signal) << label;
    EXPECT_EQ(got.flow.max_accumulation_chain, want.flow.max_accumulation_chain)
        << label;
    ASSERT_EQ(got.lint.diagnostics.size(), want.lint.diagnostics.size())
        << label << "\n" << got.lint.to_string() << "--- want\n"
        << want.lint.to_string();
    for (std::size_t i = 0; i < want.lint.diagnostics.size(); ++i) {
        const analysis::LintDiagnostic& a = got.lint.diagnostics[i];
        const analysis::LintDiagnostic& b = want.lint.diagnostics[i];
        EXPECT_EQ(a.kind, b.kind) << label << " diagnostic " << i;
        EXPECT_EQ(a.instr_index, b.instr_index) << label << " diagnostic " << i;
        EXPECT_EQ(a.signal, b.signal) << label << " diagnostic " << i;
        EXPECT_EQ(a.message, b.message) << label << " diagnostic " << i;
    }
}

class AnalyzeMatchesReference : public ::testing::TestWithParam<std::string> {};

// Every app, at a tight, the paper's and a loose epsilon, on two input-set
// triples: the streamed analysis equals the stored-capture one.
TEST_P(AnalyzeMatchesReference, OnEveryEpsilonAndSetTriple) {
    for (const double epsilon : {1e-6, 1e-2, 1e-1}) {
        for (const std::vector<unsigned>& sets :
             {std::vector<unsigned>{0, 1, 2}, std::vector<unsigned>{3, 4, 5}}) {
            analysis::DeriveOptions options;
            options.input_sets = sets;
            const auto streamed_app = apps::make_app(GetParam());
            const auto reference_app = apps::make_app(GetParam());
            const analysis::AppAnalysis got =
                analysis::analyze(*streamed_app, epsilon, options);
            const reference::AppAnalysis want =
                reference::analyze(*reference_app, epsilon, options);
            std::ostringstream label;
            label << GetParam() << " @ " << epsilon << " sets " << sets[0]
                  << "..";
            expect_identical(got, want, label.str());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AnalyzeMatchesReference,
                         ::testing::ValuesIn(apps::app_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

} // namespace
} // namespace tp
