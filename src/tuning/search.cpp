#include "tuning/search.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/derive_bounds.hpp"
#include "tuning/eval_engine.hpp"
#include "util/thread_pool.hpp"

namespace tp::tuning {
namespace {

/// Rounds repair() may spend before it gives up on a binding. Each round
/// widens until one failing input set passes, so where quality is
/// monotone in precision n input sets settle within n + 1 rounds; the cap
/// only ends a loop that non-monotone rounding keeps re-breaking. Not an
/// option: fewer rounds would return results that miss their epsilon.
constexpr int kMaxRefinementRounds = 64;

/// Rejects an epsilon that is no requirement: NaN, infinite, zero or
/// negative. `what` names the offending parameter in the message.
void validate_epsilon(double epsilon, const char* what) {
    if (!std::isfinite(epsilon) || !(epsilon > 0.0)) {
        std::ostringstream msg;
        msg << what << " must be finite and greater than 0, got " << epsilon;
        throw std::invalid_argument(msg.str());
    }
}

/// Outcome of one per-signal precision probe (a binary search run as a
/// single pool task).
struct ProbeResult {
    int precision_bits = kMaxPrecisionBits;
    std::size_t runs = 0;
    std::size_t skipped = 0; // trials a warm start / clamp made unnecessary
};

/// Worst-case bisection iterations over the integer range [lo, hi]:
/// ceil(log2(hi - lo + 1)) = bit_width(hi - lo); 0 for a single-point or
/// empty range. A deterministic function of the range, which is what
/// makes trials_skipped_by_bounds deterministic too.
std::size_t bisect_depth(int lo, int hi) {
    if (hi <= lo) return 0;
    return std::bit_width(static_cast<unsigned>(hi - lo));
}

class Searcher {
public:
    Searcher(EvalEngine& engine, const SearchOptions& options)
        : engine_(engine), options_(options) {
        for (const apps::SignalSpec& spec : engine.prototype().signals()) {
            names_.push_back(spec.name);
            elements_.push_back(spec.elements);
        }
        validate_request();
        validate_warm_start();
        if (options_.static_bounds) resolve_static_bounds();
        // Pre-warm the goldens serially so pool workers only ever read them.
        for (unsigned set : options.input_sets) (void)engine_.golden(set);
    }

    TuningResult run() {
        const std::size_t n = names_.size();
        std::vector<int> joined(n, kMinPrecisionBits);

        // Phase 1: independent search per input set; Phase 2 joins by
        // taking the per-variable maximum (the "statistical refinement").
        for (const unsigned set : options_.input_sets) {
            std::vector<int> bits = search_one_set(set);
            for (std::size_t i = 0; i < n; ++i) {
                joined[i] = std::max(joined[i], bits[i]);
            }
        }

        // The joined binding can still fail on some set (precision demands
        // interact); repair by widening the narrowest signals first.
        repair(joined, /*bound=*/false);

        // Final check under the *bound* formats: binding substitutes the
        // band's concrete type for the trial format, which carries more
        // mantissa bits — usually at least as accurate, but rounding is not
        // monotone in precision, so the requirement is re-verified with the
        // formats the program will actually ship with.
        repair(joined, /*bound=*/true);

        monotone_join(joined);

        if (skipped_ > 0) engine_.note_trials_skipped(skipped_);

        TuningResult result;
        result.type_system = options_.type_system.kind();
        result.epsilon = options_.epsilon;
        result.program_runs = runs_;
        for (std::size_t i = 0; i < n; ++i) {
            SignalResult sr;
            sr.name = names_[i];
            sr.elements = elements_[i];
            sr.precision_bits = joined[i];
            sr.bound = options_.type_system.format_for_precision(joined[i]);
            result.signals.push_back(std::move(sr));
        }
        return result;
    }

private:
    /// Rejects a request no search can answer, before any analysis or
    /// golden run: without input sets there is nothing to tune against,
    /// and a NaN, infinite, or non-positive epsilon is no requirement.
    void validate_request() const {
        if (options_.input_sets.empty()) {
            throw std::invalid_argument(
                "SearchOptions::input_sets: at least one input set is "
                "required");
        }
        validate_epsilon(options_.epsilon, "SearchOptions::epsilon");
    }

    /// Folds the static analysis' sound lower bounds into the warm start
    /// (SearchOptions::static_bounds). The analysis runs on a private
    /// clone (it clobbers the prepared workload) and costs no trials. A
    /// caller's warm start, already validated, keeps its seed, the probes'
    /// ceiling: each derived bound is capped at it and combines with the
    /// caller's lower bound by max.
    void resolve_static_bounds() {
        const std::unique_ptr<apps::App> app = engine_.prototype().clone();
        WarmStart derived = analysis::derive_warm_start(
            *app, options_.epsilon, options_.input_sets, options_.type_system);
        options_.static_bounds = false;
        if (!options_.warm_start) {
            options_.warm_start = std::move(derived);
            return;
        }
        WarmStart& warm = *options_.warm_start;
        warm.lower_bounds.resize(derived.lower_bounds.size(), kMinPrecisionBits);
        for (std::size_t i = 0; i < warm.lower_bounds.size(); ++i) {
            warm.lower_bounds[i] =
                std::max(warm.lower_bounds[i],
                         std::min(derived.lower_bounds[i], warm.seed_bits[i]));
        }
    }

    /// Rejects a warm start that does not match the app's SignalTable or
    /// steps outside the precision lattice, before any trial runs.
    void validate_warm_start() const {
        if (!options_.warm_start) return;
        const WarmStart& warm = *options_.warm_start;
        const std::size_t n = names_.size();
        auto in_lattice = [](int bits) {
            return bits >= kMinPrecisionBits && bits <= kMaxPrecisionBits;
        };
        if (warm.seed_bits.size() != n) {
            throw std::invalid_argument(
                "WarmStart::seed_bits: expected one entry per signal (" +
                std::to_string(n) + "), got " +
                std::to_string(warm.seed_bits.size()));
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!in_lattice(warm.seed_bits[i])) {
                throw std::invalid_argument(
                    "WarmStart::seed_bits[" + names_[i] + "] = " +
                    std::to_string(warm.seed_bits[i]) +
                    " outside [" + std::to_string(kMinPrecisionBits) + ", " +
                    std::to_string(kMaxPrecisionBits) + "]");
            }
        }
        if (!warm.lower_bounds.empty() && warm.lower_bounds.size() != n) {
            throw std::invalid_argument(
                "WarmStart::lower_bounds: expected empty or one entry per "
                "signal (" + std::to_string(n) + "), got " +
                std::to_string(warm.lower_bounds.size()));
        }
        for (const int bits : warm.lower_bounds) {
            if (!in_lattice(bits)) {
                throw std::invalid_argument(
                    "WarmStart::lower_bounds entry " + std::to_string(bits) +
                    " outside [" + std::to_string(kMinPrecisionBits) + ", " +
                    std::to_string(kMaxPrecisionBits) + "]");
            }
        }
    }

    bool warm() const { return options_.warm_start.has_value(); }

    /// Seed precision of signal `i` — the bisection ceiling its first
    /// probe starts from; the lattice top for a cold search.
    int seed_of(std::size_t i) const {
        return warm() ? options_.warm_start->seed_bits[i] : kMaxPrecisionBits;
    }

    int lower_bound_of(std::size_t i) const {
        return warm() && !options_.warm_start->lower_bounds.empty()
                   ? options_.warm_start->lower_bounds[i]
                   : kMinPrecisionBits;
    }

    /// The interned per-signal binding a precision vector denotes. With
    /// `bound` the config carries the concrete type each precision binds
    /// to instead of the trial format.
    apps::TypeConfig config_for(const std::vector<int>& bits, bool bound) const {
        apps::TypeConfig config(bits.size());
        for (apps::SignalId i = 0; i < bits.size(); ++i) {
            config.set(i, bound ? format_of(options_.type_system
                                                .format_for_precision(bits[i]))
                                : options_.type_system.trial_format(bits[i]));
        }
        return config;
    }

    /// Submits one quality trial to the engine: executes (or recalls) the
    /// program under the given per-signal precision bits and checks the
    /// requirement on one input set. Safe from pool workers.
    bool trial(unsigned set, const std::vector<int>& bits, bool bound) const {
        return engine_.meets(set, config_for(bits, bound), options_.epsilon);
    }

    /// trial() plus the submitted-trials counter — serial sections only.
    bool trial_counted(unsigned set, const std::vector<int>& bits, bool bound) {
        ++runs_;
        return trial(set, bits, bound);
    }

    /// Greedy passes over all signals, one input set. Within a pass every
    /// signal is probed against the *pass-start* binding, which makes the
    /// probes independent of one another — the parallel axis — at the cost
    /// of a repair step when the combined proposals overshoot.
    std::vector<int> search_one_set(unsigned set) {
        const std::size_t n = names_.size();
        std::vector<int> bits(n, kMaxPrecisionBits);
        for (int pass = 0; pass < options_.max_passes; ++pass) {
            const std::vector<ProbeResult> probes = util::indexed_map(
                engine_.pool(), n, [this, set, &bits](std::size_t i) {
                    return probe(set, bits, i);
                });
            bool changed = false;
            for (std::size_t i = 0; i < n; ++i) {
                runs_ += probes[i].runs;
                skipped_ += probes[i].skipped;
                changed = changed || probes[i].precision_bits != bits[i];
            }
            if (!changed) break;
            const std::vector<int> before = bits;
            for (std::size_t i = 0; i < n; ++i) {
                bits[i] = probes[i].precision_bits;
            }
            // Each probe assumed the others kept their pass-start precision;
            // the combined proposals can miss the requirement. Re-establish
            // a passing binding before the next pass sharpens it.
            widen_for_set(set, bits, /*bound=*/false);
            // If the repair reverted every proposal, the next pass would
            // deterministically repeat the identical probes — fixpoint (and,
            // with the engine cache, every one of them would be a hit).
            if (bits == before) break;
        }
        return bits;
    }

    /// Lowest precision of signal `i` that passes on `set`, holding every
    /// other signal at its value in `frozen`. Quality is monotone in
    /// precision to a good approximation; a final verification guards
    /// against the rare non-monotone case (a cache hit whenever the binary
    /// search already confirmed that precision). Runs as one pool task.
    ProbeResult probe(unsigned set, const std::vector<int>& frozen,
                      std::size_t i) const {
        std::vector<int> bits = frozen;
        ProbeResult result;
        const int original = bits[i];
        // Warm start: the seed caps where the bisection starts (a search
        // at a looser requirement than the seed's provenance never needs
        // more precision than the seed, by quality monotonicity in
        // epsilon), and the lower bound raises its floor. The cold probe
        // would bisect [kMinPrecisionBits, original]; every step the
        // clamps remove is booked as skipped.
        const int lo_clamped = std::max(kMinPrecisionBits, lower_bound_of(i));
        const int hi_clamped = std::min(original, seed_of(i));
        if (lo_clamped > hi_clamped || lo_clamped >= original) {
            // The bounds pin the signal at its current value: no trial to
            // submit, the whole cold range is skipped.
            result.precision_bits = original;
            result.skipped = bisect_depth(kMinPrecisionBits, original);
            return result;
        }
        result.skipped = bisect_depth(kMinPrecisionBits, original) -
                         bisect_depth(lo_clamped, hi_clamped);
        int lo = lo_clamped;
        int hi = hi_clamped;
        // `hi` only ever takes values a trial just PASSED at: when the
        // loop exits with lo == hi < hi_clamped, the config at lo already
        // passed under this exact frozen context.
        bool hi_passed = false;
        while (lo < hi) {
            const int mid = lo + (hi - lo) / 2;
            bits[i] = mid;
            ++result.runs;
            if (trial(set, bits, /*bound=*/false)) {
                hi = mid;
                hi_passed = true;
            } else {
                lo = mid + 1;
            }
        }
        bits[i] = lo;
        result.precision_bits = lo;
        if (lo != original) {
            if (warm() && hi_passed) {
                // The closing verification would repeat the passing trial
                // the bisection just converged on — same config, same set,
                // outcome exactly implied. Warm-started searches elide the
                // repeat (booked as skipped); the cold path keeps its
                // legacy trial sequence byte-for-byte.
                ++result.skipped;
                return result;
            }
            ++result.runs;
            if (!trial(set, bits, /*bound=*/false)) {
                // Clamp bottom-out (lo == hi_clamped was never tested) or
                // non-monotone corner: keep the known-good value.
                result.precision_bits = original;
            }
        }
        return result;
    }

    /// Joins a warm-started search's final binding toward its seed: if
    /// the pointwise min of `bits` and the seed passes every input set
    /// (verified end-to-end, unbound and bound), it becomes the result.
    /// The min can only LOWER precisions, and a chained seed is exactly
    /// feasible at the current epsilon, so whenever the join verifies it
    /// keeps chained sweep results per-signal ordered across epsilons even
    /// where independent greedy searches are not (the greedy trades
    /// signals off differently per requirement). A no-op for cold
    /// searches, for seeds at or above the result, and when the joined
    /// binding misses the requirement (then `bits` — already verified by
    /// repair — stands).
    void monotone_join(std::vector<int>& bits) {
        if (!warm()) return;
        std::vector<int> joined(bits.size());
        bool lowers = false;
        for (std::size_t i = 0; i < bits.size(); ++i) {
            joined[i] = std::min(bits[i], seed_of(i));
            lowers = lowers || joined[i] < bits[i];
        }
        if (!lowers) return;
        for (const bool bound : {false, true}) {
            for (const unsigned set : options_.input_sets) {
                if (!trial_counted(set, joined, bound)) return;
            }
        }
        bits = joined;
    }

    /// Widens `bits` until every input set passes, or kMaxRefinementRounds
    /// are spent. Each round evaluates all sets (concurrently when the engine
    /// has a pool) and repairs the lowest-indexed failing one.
    void repair(std::vector<int>& bits, bool bound) {
        for (int round = 0; round < kMaxRefinementRounds; ++round) {
            const std::vector<char> passed = util::indexed_map(
                engine_.pool(), options_.input_sets.size(),
                [this, &bits, bound](std::size_t s) -> char {
                    return trial(options_.input_sets[s], bits, bound) ? 1 : 0;
                });
            runs_ += options_.input_sets.size();
            const auto failing = std::find(passed.begin(), passed.end(), 0);
            if (failing == passed.end()) break;
            const std::size_t s =
                static_cast<std::size_t>(failing - passed.begin());
            widen_for_set(options_.input_sets[s], bits, bound);
        }
    }

    /// Widens precisions until `set` passes, preferring the narrowest
    /// variables (those most likely responsible for the quality loss).
    /// Inherently sequential: every step depends on the previous trial.
    /// Identical for cold and warm searches: repair is what guarantees
    /// every result meets its requirement, seeded or not, so it never
    /// consults the warm start.
    void widen_for_set(unsigned set, std::vector<int>& bits, bool bound) {
        while (!trial_counted(set, bits, bound)) {
            std::size_t narrowest = names_.size();
            for (std::size_t i = 0; i < bits.size(); ++i) {
                if (bits[i] >= kMaxPrecisionBits) continue;
                if (narrowest == names_.size() || bits[i] < bits[narrowest]) {
                    narrowest = i;
                }
            }
            if (narrowest == names_.size()) return; // everything maxed out
            ++bits[narrowest];
        }
    }

    EvalEngine& engine_;
    SearchOptions options_;
    std::vector<std::string> names_;
    std::vector<std::size_t> elements_;
    std::size_t runs_ = 0;
    std::size_t skipped_ = 0; // see EvalStats::trials_skipped_by_bounds
};

} // namespace

apps::TypeConfig TuningResult::type_config() const {
    apps::TypeConfig config(signals.size());
    for (apps::SignalId i = 0; i < signals.size(); ++i) {
        config.set(i, format_of(signals[i].bound));
    }
    return config;
}

PrecisionConfig TuningResult::precision_config() const {
    PrecisionConfig config;
    for (const SignalResult& sr : signals) {
        config[sr.name] = sr.precision_bits;
    }
    return config;
}

std::array<int, 4> TuningResult::variables_per_format() const {
    std::array<int, 4> counts{};
    for (const SignalResult& sr : signals) {
        ++counts[static_cast<std::size_t>(sr.bound)];
    }
    return counts;
}

std::array<std::size_t, kMaxPrecisionBits + 1>
TuningResult::locations_per_precision() const {
    std::array<std::size_t, kMaxPrecisionBits + 1> histogram{};
    for (const SignalResult& sr : signals) {
        assert(sr.precision_bits >= 1 && sr.precision_bits <= kMaxPrecisionBits);
        histogram[static_cast<std::size_t>(sr.precision_bits)] += sr.elements;
    }
    return histogram;
}

TuningResult distributed_search(apps::App& app, const SearchOptions& options) {
    EvalEngine engine{app, EvalEngine::Options{.threads = options.threads,
                                               .memoize = true}};
    return distributed_search(engine, options);
}

TuningResult distributed_search(EvalEngine& engine, const SearchOptions& options) {
    Searcher searcher{engine, options};
    return searcher.run();
}

WarmStart warm_start_from(const TuningResult& result) {
    WarmStart warm;
    warm.seed_bits.reserve(result.signals.size());
    for (const SignalResult& sr : result.signals) {
        warm.seed_bits.push_back(sr.precision_bits);
    }
    return warm;
}

std::vector<TuningResult> sweep_search(EvalEngine& engine,
                                       const SearchOptions& base,
                                       const std::vector<double>& epsilons,
                                       bool warm_start_chain) {
    // The whole sweep is validated up front: a bad entry must not cost the
    // searches before it.
    if (epsilons.empty()) {
        throw std::invalid_argument(
            "sweep_search: at least one epsilon is required");
    }
    for (const double epsilon : epsilons) {
        validate_epsilon(epsilon, "sweep_search epsilon");
    }
    std::vector<TuningResult> results;
    results.reserve(epsilons.size());
    for (std::size_t e = 0; e < epsilons.size(); ++e) {
        SearchOptions options = base;
        options.epsilon = epsilons[e];
        if (warm_start_chain) {
            // Seed from the tightest completed epsilon not exceeding this
            // one: its result is exactly feasible here (quality is a fixed
            // number per config, so meeting a tighter epsilon meets every
            // looser one). For the conventional tight-to-loose order this
            // is simply the previous result.
            const TuningResult* seed = nullptr;
            for (std::size_t c = 0; c < e; ++c) {
                if (epsilons[c] > epsilons[e]) continue;
                if (seed == nullptr || epsilons[c] > seed->epsilon) {
                    seed = &results[c];
                }
            }
            if (seed != nullptr) options.warm_start = warm_start_from(*seed);
        }
        results.push_back(distributed_search(engine, options));
    }
    return results;
}

std::vector<TuningResult> sweep_search(apps::App& app,
                                       const SearchOptions& base,
                                       const std::vector<double>& epsilons,
                                       bool warm_start_chain) {
    EvalEngine engine{app, EvalEngine::Options{.threads = base.threads,
                                               .memoize = true}};
    return sweep_search(engine, base, epsilons, warm_start_chain);
}

} // namespace tp::tuning
