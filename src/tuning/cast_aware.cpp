#include "tuning/cast_aware.hpp"

#include <array>
#include <vector>

#include "tuning/eval_engine.hpp"
#include "util/thread_pool.hpp"

namespace tp::tuning {
namespace {

struct Cost {
    double energy_pj = 0.0;
    std::uint64_t casts = 0;
};

/// Simulated platform cost of one binding, via the engine's memoized
/// report cache. Safe from pool workers.
Cost platform_cost(EvalEngine& engine, const apps::TypeConfig& config,
                   const CastAwareOptions& options) {
    const sim::RunReport report =
        engine.report(options.cost_input_set, config, options.simd);
    return Cost{report.energy.total(), report.casts};
}

/// Quality check on every input set. Per-set evaluations are independent
/// and run on the engine's pool when it has one; the serial path keeps the
/// first-failure short-circuit. The conjunction over sets is
/// order-independent, so both paths return the same boolean — the trial
/// counts differ, which is why TuningResult::program_runs never feeds from
/// this pass.
bool meets_everywhere(EvalEngine& engine, const apps::TypeConfig& config,
                      const CastAwareOptions& options) {
    const auto check_set = [&engine, &config, &options](std::size_t s) -> char {
        const unsigned set = options.search.input_sets[s];
        return engine.meets(set, config, options.search.epsilon) ? 1 : 0;
    };
    if (engine.pool() == nullptr) {
        for (std::size_t s = 0; s < options.search.input_sets.size(); ++s) {
            if (check_set(s) == 0) return false;
        }
        return true;
    }
    const std::vector<char> passed = util::indexed_map(
        engine.pool(), options.search.input_sets.size(), check_set);
    for (const char ok : passed) {
        if (ok == 0) return false;
    }
    return true;
}

} // namespace

CastAwareResult cast_aware_search(apps::App& app, const CastAwareOptions& options) {
    // One engine serves the base DistributedSearch and the cast-aware
    // refinement: the pool is spun up once, and the refinement's quality
    // probes hit the trial cache the base search populated.
    EvalEngine engine{app, EvalEngine::Options{.threads = options.search.threads,
                                               .memoize = true}};
    return cast_aware_search(engine, options);
}

CastAwareResult cast_aware_search(EvalEngine& engine,
                                  const CastAwareOptions& options) {
    // On a shared long-lived engine (tuning/service.hpp) the counters
    // include other requests' work; report only this call's delta.
    const EvalStats stats_before = engine.stats();

    CastAwareResult result;
    result.base = distributed_search(engine, options.search);
    result.config = result.base.type_config();

    const Cost base_cost = platform_cost(engine, result.config, options);
    result.base_energy_pj = base_cost.energy_pj;
    result.base_casts = base_cost.casts;

    // Candidate formats: the members of the type system in use.
    std::array<FormatKind, 4> members{FormatKind::Binary8, FormatKind::Binary16,
                                      FormatKind::Binary16Alt,
                                      FormatKind::Binary32};

    apps::TypeConfig current = result.config;
    Cost current_cost = base_cost;
    for (int round = 0; round < options.max_rounds; ++round) {
        bool improved = false;
        for (apps::SignalId id = 0; id < result.base.signals.size(); ++id) {
            const FpFormat original = current.at(id);

            // Re-binding candidates for this signal, in fixed member order.
            std::vector<FpFormat> candidates;
            for (const FormatKind kind : members) {
                if (!options.search.type_system.contains(kind)) continue;
                const FpFormat candidate = format_of(kind);
                if (candidate == original) continue;
                candidates.push_back(candidate);
            }

            // Cost probes are independent given `current`: fan them out
            // on the engine's pool (each an engine-cached traced run).
            const std::vector<Cost> costs = util::indexed_map(
                engine.pool(), candidates.size(),
                [&engine, &current, &options, &candidates,
                 id](std::size_t k) -> Cost {
                    apps::TypeConfig config = current;
                    config.set(id, candidates[k]);
                    return platform_cost(engine, config, options);
                });

            // Deterministic acceptance: scan candidates in member order;
            // energy must strictly improve, and quality is re-verified on
            // every input set before accepting (the expensive check runs
            // only on otherwise-improving moves).
            FpFormat best = original;
            Cost best_cost = current_cost;
            for (std::size_t k = 0; k < candidates.size(); ++k) {
                if (costs[k].energy_pj >= best_cost.energy_pj) continue;
                apps::TypeConfig config = current;
                config.set(id, candidates[k]);
                if (meets_everywhere(engine, config, options)) {
                    best = candidates[k];
                    best_cost = costs[k];
                }
            }
            current.set(id, best);
            if (!(best == original)) {
                current_cost = best_cost;
                ++result.moves_accepted;
                improved = true;
            }
        }
        if (!improved) break;
    }

    result.config = current;
    result.tuned_energy_pj = current_cost.energy_pj;
    result.tuned_casts = platform_cost(engine, current, options).casts;
    result.eval_stats = engine.stats() - stats_before;
    return result;
}

} // namespace tp::tuning
