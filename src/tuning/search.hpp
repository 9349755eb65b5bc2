// DistributedSearch — heuristic per-variable precision minimization
// (reimplementation of the fpPrecisionTuning tool the paper uses).
//
// Contract, as described in the paper's Section II:
//   * input: a runnable program, a target (exact) output, and a
//     configuration of per-variable precision bits;
//   * the tool runs the program many times, searching for the minimum
//     precision of each variable that still satisfies the output-quality
//     requirement, for a fixed input set;
//   * a second phase performs a statistical refinement joining the
//     bindings derived from different input sets.
//
// The dynamic range of each trial follows the type system's hypothesis map
// (types/type_system.hpp): DistributedSearch itself never tunes exponent
// widths, exactly as in the paper.
//
// Determinism contract of the parallel, memoizing engine
// ------------------------------------------------------
// Trials are submitted through a shared EvalEngine (tuning/eval_engine.hpp)
// that owns the thread pool, the app-clone pool, and a memoized trial
// cache. The TuningResult is bit-identical across BOTH axes:
//
//   * threads — with SearchOptions::threads > 1, independent trials (the
//     per-signal precision probes inside a greedy pass, each a binary
//     search holding every other signal at its pass-start precision, and
//     the per-input-set quality evaluations of the refinement phase) are
//     dispatched onto a fixed-size thread pool. Every task is a pure
//     function of its inputs — it runs on an engine-owned apps::App clone
//     with a private sim::TpContext, and FlexFloat arithmetic is
//     deterministic double arithmetic — and reductions are by task index,
//     never by completion order: probe results are applied in signal
//     order, per-set search results are joined in input-set order, the
//     refinement phase repairs the lowest-indexed failing set, and trial
//     counts are summed in index order. The serial path (threads == 1)
//     executes the exact same trials in the same index order inline.
//
//   * cache state — kernels are pure in (input_set, config), so a cache
//     hit returns exactly what the re-run would. A cold cache, a cache
//     warmed by any previous search (e.g. an earlier distributed_search
//     on the same engine, or the base search inside cast_aware), a cache
//     partially evicted by the engine's LRU memory budget (an eviction
//     only costs a re-run, which reproduces the evicted bytes), and a
//     disabled cache all yield the same TuningResult. program_runs counts
//     trials SUBMITTED — it equals the pre-memoization engine's count
//     bit-for-bit; the executions the cache eliminated are visible in
//     EvalEngine::stats() (kernel_runs vs cache_hits, exact at any
//     thread count thanks to single-flight execution). The greedy
//     fixpoint pass and the probe-confirmation trials of repeated binary
//     searches are the main hit sources inside one search; overlapping
//     requests on a shared long-lived engine (tuning/service.hpp) hit
//     across searches.
//
//   * scheduling — a corollary of the two axes above that the async
//     TuningService (tuning/service.hpp) leans on: a search's result is a
//     function of its request alone, never of WHEN or WHERE it ran. The
//     priority a request was admitted at, the deadline it carried, the
//     admission order around it, cancellation of other requests, which
//     scheduler worker executed it, and whatever the shared caches held
//     when it started are all invisible in the TuningResult — QoS knobs
//     reorder work, they cannot change bits. (A cancelled request has no
//     result at all; cancellation never stops a search mid-flight, so no
//     partially-evaluated state can leak into a neighbour's trials.)
//     The fairness and admission-control knobs extend this axis, never
//     weaken it: anti-starvation aging (the scheduler's aging quantum)
//     only moves a request's START time, per-class queue caps and
//     deadline-aware admission only decide WHETHER a request is admitted
//     (a rejection is a typed error before any ticket exists), and live
//     vs tombstone queue accounting only changes what admission sees.
//     Every request that completes returns the same bits it would have
//     returned from a direct distributed_search / sweep_search call —
//     aging, rejections, and caps around it included.
//
//   * warm starts — SearchOptions::warm_start is PART of the request, so
//     the axes above extend unchanged: a warm-started search is a pure
//     function of (app, options, warm_start) and returns the same bits at
//     any thread count, cache state, priority, or admission order. A warm
//     start changes WHICH trials are submitted, never the search's
//     structure: the seed caps where each probe's bisection starts
//     (instead of kMaxPrecisionBits), the per-signal lower bounds raise
//     its floor, and probes elide the closing verification when its
//     outcome is exactly implied by a trial the same bisection already
//     ran. program_runs still counts trials SUBMITTED and is
//     deterministic in its own right — smaller than the cold search's;
//     the steps the clamps removed and the elided repeats are visible in
//     EvalStats::trials_skipped_by_bounds (tuning/eval_engine.hpp). The
//     greedy trajectory otherwise matches the cold search's — probes hold
//     the same frozen context and the repair loop is identical and
//     warm-start-blind — so every warm-started result meets its epsilon
//     unconditionally (repair guarantees it, seeded or not), and with a
//     seed from a search at a TIGHTER epsilon (quality monotonicity in
//     epsilon makes its feasibility exact, the basis of sweep_search's
//     chaining) the tuned per-signal precisions track the independent
//     search's (asserted per app by the conformance battery's
//     WarmChainedSweepIsMonotoneFrugalAndFeasible). A warm-started search
//     ends with a monotone join: if the pointwise min of the result and the
//     seed verifies on every input set, it becomes the result — the min only
//     lowers precisions, and it is what keeps a chained sweep's
//     per-signal minima ordered across epsilons even where independent
//     greedy searches trade signals off differently per requirement. A
//     seed or bound that clamps a probe below every passing value costs
//     nothing but the clamped probe: the closing verification catches it
//     and keeps the pass-start value, and repair restores feasibility as
//     always.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "tuning/config_io.hpp"
#include "types/type_system.hpp"

namespace tp::tuning {

class EvalEngine;

/// An optional warm-start binding for distributed_search: where the
/// search begins and how far each per-signal probe may range. Both
/// vectors are in SignalId (declaration) order and validated against the
/// app's SignalTable size before any trial runs.
struct WarmStart {
    /// Per-signal starting precision bits, the ceiling of every probe's
    /// bisection: each signal's first probe bisects [kMinPrecisionBits,
    /// seed] instead of the full lattice. Meaningful seeds meet the
    /// request's epsilon on every input set — a TuningResult at a tighter
    /// epsilon (exactly feasible, by quality monotonicity in epsilon), or
    /// a saved config from a previous run
    /// (config_io::read_warm_start_seed). A seed below a signal's true
    /// minimum only costs the probe it clamps (the closing verification
    /// rejects it); the result still meets the requirement.
    std::vector<int> seed_bits;
    /// Optional per-signal feasibility lower bounds, the floor of every
    /// probe's bisection; empty means kMinPrecisionBits. Steps the seed or
    /// a bound removes from a probe are counted in
    /// EvalStats::trials_skipped_by_bounds.
    std::vector<int> lower_bounds;

    friend bool operator==(const WarmStart&, const WarmStart&) = default;
};

struct SearchOptions {
    double epsilon = 1e-1;                 // output-quality requirement
    TypeSystem type_system{TypeSystemKind::V2};
    std::vector<unsigned> input_sets{0, 1, 2};
    int max_passes = 3; // greedy sweeps per input set
    /// Worker threads for trial evaluation. 1 runs the serial reference
    /// path; any value returns the same TuningResult (see the determinism
    /// contract above). Ignored when an external EvalEngine is supplied —
    /// the engine's pool is used instead.
    unsigned threads = 1;
    /// Optional warm start (see WarmStart). Part of the request: two
    /// searches with the same warm start return the same bits at any
    /// thread count and cache state; absent, the search is the cold
    /// all-kMaxPrecisionBits search it always was.
    std::optional<WarmStart> warm_start{};
    /// Run the static precision-dataflow analysis
    /// (analysis/derive_bounds.hpp) before the first trial and fold its
    /// sound per-signal lower bounds into the warm start: seeds are
    /// untouched (with a warm_start set, each derived bound is capped at
    /// its seed and combines with its lower bound by max). Costs
    /// |input_sets| shadow reference executions and no trials; by the
    /// analysis' soundness contract the TuningResult's signals are
    /// bit-identical to the unbounded search's — only program_runs
    /// shrinks, the pruned bisection steps showing up in
    /// EvalStats::trials_skipped_by_bounds.
    bool static_bounds = false;
};

struct SignalResult {
    std::string name;
    std::size_t elements = 1;  // memory locations (Fig. 4 weights)
    int precision_bits = kMaxPrecisionBits;
    FormatKind bound = FormatKind::Binary32; // concrete type after binding

    friend bool operator==(const SignalResult&, const SignalResult&) = default;
};

struct TuningResult {
    std::vector<SignalResult> signals; // in SignalTable (declaration) order
    TypeSystemKind type_system = TypeSystemKind::V2;
    double epsilon = 0.0;
    std::size_t program_runs = 0; // trials submitted by the search

    /// Memberwise — THE bit-identity predicate of the determinism
    /// contract; benches and tests share it rather than each comparing a
    /// hand-picked subset of fields.
    friend bool operator==(const TuningResult&, const TuningResult&) = default;

    /// Concrete per-signal formats (step 3 of the programming flow),
    /// indexed by SignalId in the app's declaration order.
    [[nodiscard]] apps::TypeConfig type_config() const;

    /// Tuned precision bits per signal, as a config file would store them.
    [[nodiscard]] PrecisionConfig precision_config() const;

    /// Variables per bound type — one row of the paper's Table I.
    [[nodiscard]] std::array<int, 4> variables_per_format() const;

    /// Memory locations per minimum precision (index 1..24) — one row of
    /// the paper's Fig. 4.
    [[nodiscard]] std::array<std::size_t, kMaxPrecisionBits + 1>
    locations_per_precision() const;
};

/// Runs the two-phase search on `app` with a private EvalEngine.
/// Deterministic for fixed options. Throws std::invalid_argument before
/// any analysis, golden, or trial run when `options.input_sets` is empty,
/// `options.epsilon` is not finite and greater than 0, or the warm start
/// does not fit the app.
[[nodiscard]] TuningResult distributed_search(apps::App& app,
                                              const SearchOptions& options);

/// Same search, submitting trials through a caller-owned engine — shares
/// its thread pool and trial cache with other searches on the same app
/// (options.threads is ignored). The result is bit-identical to the
/// private-engine overload for any cache state.
[[nodiscard]] TuningResult distributed_search(EvalEngine& engine,
                                              const SearchOptions& options);

/// The warm start a completed search induces for a LOOSER requirement:
/// seeded at the result's per-signal bits. Quality is monotone in
/// epsilon — a config meeting a tighter epsilon meets every looser one —
/// so the seed is feasible there by construction, and no probe needs to
/// reach above it.
[[nodiscard]] WarmStart warm_start_from(const TuningResult& result);

/// An epsilon sweep with cross-epsilon warm-starting: one
/// distributed_search per entry of `epsilons` (in order, on one engine),
/// where each search is seeded — via warm_start_from — with the result of
/// the TIGHTEST epsilon already completed that does not exceed its own
/// (for the conventional tight-to-loose order, simply the previous one).
/// Searches with no tighter predecessor (the first, or any out-of-order
/// tightening) run with `base.warm_start` as given. With
/// `warm_start_chain` false every search uses `base.warm_start` verbatim
/// — the three-independent-searches reference. base.epsilon is ignored;
/// results are in `epsilons` order, each a pure function of
/// (app, base, epsilons, warm_start_chain) by the determinism contract.
/// Throws std::invalid_argument before any golden or trial run when
/// `epsilons` is empty or any entry is not finite and greater than 0.
[[nodiscard]] std::vector<TuningResult> sweep_search(
    EvalEngine& engine, const SearchOptions& base,
    const std::vector<double>& epsilons, bool warm_start_chain = true);

/// Sweep on a private engine (created like distributed_search's).
[[nodiscard]] std::vector<TuningResult> sweep_search(
    apps::App& app, const SearchOptions& base,
    const std::vector<double>& epsilons, bool warm_start_chain = true);

} // namespace tp::tuning
