// Cast-aware precision tuning — the paper's first future-work item
// (Section VI): "the study of new techniques of precision tuning, that
// take into account the costs of casts with the aim to formulate a
// multi-objective optimization problem."
//
// DistributedSearch minimizes precision bits per variable and nothing
// else; the paper shows (PCA, Fig. 6/7) that the casts this introduces
// can push cycle and energy counts ABOVE the binary32 baseline. This pass
// post-processes a DistributedSearch binding with a greedy local search
// whose objective is the *simulated platform energy*: it evaluates, for
// each variable, re-binding to each other member format of the type system
// (typically promoting a variable to its neighbours' format so a cast
// chain disappears), accepts the move only when the quality requirement
// still holds on every input set AND total energy decreases, and repeats
// until a fixpoint.
#pragma once

#include <string>

#include "apps/app.hpp"
#include "sim/platform.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"

namespace tp::tuning {

struct CastAwareOptions {
    /// Phase 1: plain DistributedSearch; search.threads also parallelizes
    /// this pass's candidate-cost and quality probes. search.warm_start
    /// seeds that base search unchanged (see the contract in search.hpp) —
    /// e.g. warm_start_from(a completed plain search at the same epsilon)
    /// lets a service-engine cast-aware pass skip most of the base
    /// search's probe ranges and start phase 2 from the same binding.
    SearchOptions search;
    bool simd = true;          // platform configuration for the cost oracle
    int max_rounds = 4;        // greedy sweeps over all variables
    unsigned cost_input_set = 0; // workload used for energy evaluation
};

/// A cast-aware pass as a service request: the payload of the cast-aware
/// variant of tuning::Request (tuning/service.hpp). Pairs the app name
/// with the pass options; the service resolves the name to the app's
/// long-lived engine at admission, so a cast-aware request shares the
/// service caches with every other request for that app, both ways.
struct CastAwareRequest {
    std::string app;           // apps::make_app name
    CastAwareOptions options{}; // options.search.threads is ignored (the
                               // service engines are pool-less)
};

struct CastAwareResult {
    TuningResult base;             // the DistributedSearch starting point
    apps::TypeConfig config;       // the cast-aware binding (by SignalId)
    double base_energy_pj = 0.0;   // platform energy of the base binding
    double tuned_energy_pj = 0.0;  // platform energy after the pass
    std::uint64_t base_casts = 0;
    std::uint64_t tuned_casts = 0;
    int moves_accepted = 0;
    /// Trial-cache counter delta of the engine over this call (on a
    /// private engine that equals the engine's lifetime stats). On a
    /// shared long-lived engine it excludes everything that ran before
    /// the call; work OTHER threads push onto the same engine during the
    /// call interleaves into it. A TuningService ticket replaces it with
    /// the request's exact EvalStatsScope delta.
    EvalStats eval_stats;
};

/// Runs DistributedSearch, then the cast-aware refinement, on a private
/// EvalEngine shared by both phases (pool, clones, memoized trials).
[[nodiscard]] CastAwareResult cast_aware_search(apps::App& app,
                                                const CastAwareOptions& options);

/// Same two-phase search, submitting every trial and platform-cost probe
/// through a caller-owned engine — e.g. a TuningService's long-lived
/// per-app engine (a submitted CastAwareRequest), so cast-aware requests
/// share the service caches: the base search hits configs earlier
/// requests probed, and the refinement's quality checks hit the base
/// search's trials. options.search.threads is ignored; the engine's pool
/// (or its serial path) is used. By the engine's cache-coherent
/// determinism contract the result is bit-identical to the private-engine
/// overload for any cache state and thread count.
[[nodiscard]] CastAwareResult cast_aware_search(EvalEngine& engine,
                                                const CastAwareOptions& options);

} // namespace tp::tuning
