#include "analysis/derive_bounds.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <utility>

#include "analysis/error_model.hpp"
#include "sim/context.hpp"
#include "tuning/quality.hpp"
#include "types/encoding.hpp"

namespace tp::analysis {

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

std::string AppAnalysis::to_string() const {
    std::ostringstream os;
    os << app << " @ epsilon " << epsilon << ": sound per-signal bounds\n";
    for (const SignalBound& sb : signals) {
        os << "  " << sb.name << ": >= " << sb.lower_bits << " bits (floor "
           << sb.representability_floor << ", model " << sb.model_bits
           << ", coeff " << sb.error_coefficient << ", exp >= "
           << sb.exp_floor_bits << ")\n";
    }
    if (!lint.empty()) os << lint.to_string();
    return std::move(os).str();
}

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
    std::vector<std::array<std::int32_t, 3>> cast_chains;
    std::vector<CastSite> cast_sites;
    ShadowOptions shadow;
    shadow.drift_steps.assign(S, std::ldexp(1.0, -kMaxPrecisionBits));
    shadow.inflation = kRangeInflation;
    shadow.lint = true;

    for (const unsigned set : options.input_sets) {
        ShadowRun run = shadow_run(app, set, shadow);
        const std::vector<double> golden = app.golden(set);
        const double den = l2_norm(golden);

        for (std::size_t s = 0; s < S; ++s) {
            merge_observation(merged_obs[s], run.observed[s]);
            merge_range(result.ranges[s], run.ranges[s]);
        }

        // Map each tap to its golden output element. Every raw() read lands
        // in the program output in call order (all kernels build their
        // output exclusively from raw() reads, possibly interleaved with
        // untapped register readouts), so a forward scan over the shadow
        // output — which the taps match bit-for-bit, being the very values
        // read — recovers each tap's output index.
        std::vector<std::vector<double>> tapped_golden(S);
        const std::vector<double>& var_total = run.tap_variance;
        std::size_t k = 0;
        for (const sim::OutputTap& tap : run.taps) {
            double g = tap.value;
            while (k < run.output.size() && run.output[k] != tap.value) ++k;
            if (k < run.output.size() && k < golden.size()) {
                g = golden[k];
                ++k;
            }
            const std::int32_t sig = signal_of_tag(tap.fmt, S);
            if (sig >= 0) {
                tapped_golden[static_cast<std::size_t>(sig)].push_back(g);
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
                    kMarginBits);
            }
            best_floor[s] = std::min(best_floor[s], floor_p);
            best_model[s] = std::min(best_model[s], model_p);
            best_bound[s] =
                std::min(best_bound[s], std::max(floor_p, model_p));
            worst_coeff[s] = std::max(worst_coeff[s], coeff);
        }

        // The lint, the cast sites and the signal-level cast chains (the
        // structural double-rounding hazard: a value crosses three signals
        // through back-to-back casts) come from the first input set.
        if (shadow.lint) {
            result.flow = std::move(run.flow);
            result.lint = std::move(run.lint);
            cast_sites = std::move(run.cast_sites);
            cast_chains = std::move(run.cast_chains);
            shadow.lint = false;
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

tuning::WarmStart derive_warm_start(apps::App& app, double epsilon,
                                    const std::vector<unsigned>& input_sets,
                                    TypeSystem type_system) {
    DeriveOptions options;
    options.input_sets = input_sets;
    options.type_system = type_system;
    const AppAnalysis analysis = analyze(app, epsilon, options);
    tuning::WarmStart warm;
    warm.seed_bits.assign(analysis.signals.size(), kMaxPrecisionBits);
    warm.lower_bounds.reserve(analysis.signals.size());
    for (const SignalBound& sb : analysis.signals) {
        warm.lower_bounds.push_back(sb.lower_bits);
    }
    return warm;
}

} // namespace tp::analysis
