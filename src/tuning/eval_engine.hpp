// EvalEngine — the shared trial-evaluation service of the tuning layer.
//
// Every tuning algorithm in this repository (DistributedSearch's greedy
// probes, its statistical-refinement repair loop, the cast-aware energy
// pass) reduces to the same primitive: "run the kernel on input set S
// under per-signal binding C and look at the output". Before this engine
// each caller owned its private copy of the machinery — app clones, a
// thread pool, golden outputs — and re-ran kernels it had already run:
// the greedy fixpoint pass deterministically repeats identical probes,
// the repair loop re-verifies bindings the widen step just evaluated,
// and repeated searches over the same app share nothing.
//
// The engine centralizes that machinery and memoizes trial outcomes,
// keyed by (input_set, TypeConfig) — cheap because interned TypeConfigs
// (apps/signal_table.hpp) are flat, hashable values:
//
//   * clone pool     — worker-private apps::App copies, recycled across
//                      trials instead of re-cloned per task;
//   * thread pool    — one util::ThreadPool shared by every phase of a
//                      search (and across search phases, e.g. the
//                      DistributedSearch base run inside cast_aware);
//   * golden cache   — binary64 reference outputs per input set, pinned
//                      for the engine's lifetime;
//   * trial cache    — (input_set, config) -> the output's relative
//                      error against the golden (tuning/quality.hpp), one
//                      double computed once right after the kernel run,
//                      and (input_set, config, simd) -> sim::RunReport
//                      for the platform-cost oracle, bounded by an LRU
//                      memory budget (Options::cache_budget_bytes). A
//                      quality trial is judged by that one number, so a
//                      hit reads neither an output nor the golden.
//
// Concurrent first requests for the same key are single-flighted: the
// first requester executes the kernel, later requesters wait on its
// in-flight result and count as cache hits. A long-lived engine serving
// overlapping searches (tuning/service.hpp) therefore never runs the
// same trial twice concurrently, and the EvalStats counters are exact at
// any thread count.
//
// Cache-coherent determinism contract
// -----------------------------------
// Kernels are pure functions of (input_set, config): deterministic
// FlexFloat double arithmetic over deterministically generated inputs.
// A cache hit therefore returns exactly the error (or report) a re-run
// would produce, so ANY cache state (cold, warm from a previous search,
// partially evicted under a memory budget, or memoization disabled) and
// ANY thread count yield bit-identical search results. Callers count
// logical trials themselves (TuningResult::program_runs is the number of
// trials *submitted*, unchanged from the pre-cache engine); EvalStats
// separately reports how many kernel executions the cache eliminated
// (kernel_runs vs cache_hits).
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/app.hpp"
#include "sim/platform.hpp"
#include "util/thread_pool.hpp"

namespace tp::tuning {

/// Observability counters for the memoized trial cache. `trials` counts
/// evaluation requests, of which `cache_hits` were served from memory
/// (including waits on a concurrent in-flight execution of the same key)
/// and `kernel_runs` actually executed the kernel, so
/// trials == cache_hits + kernel_runs always. Single-flight execution
/// makes every counter exact at any thread count: concurrent first
/// requests for the same key execute the kernel exactly once. Golden
/// (binary64 reference) executions are tracked separately — they are not
/// trials. `evictions` counts cache entries dropped by the LRU memory
/// budget. `trials_skipped_by_bounds` counts trials a warm start
/// provably removed from a search's probes (tuning/search.hpp): the
/// bisection steps its seed / feasibility bounds clamped away plus the
/// closing verifications whose outcome a trial in the same bisection
/// already implied. Never submitted, so NOT part of the
/// trials == cache_hits + kernel_runs invariant; a deterministic
/// function of the request, booked by the search via
/// note_trials_skipped() so scoped attribution sees it too.
struct EvalStats {
    std::size_t trials = 0;
    std::size_t kernel_runs = 0;
    std::size_t cache_hits = 0;
    std::size_t golden_runs = 0;
    std::size_t evictions = 0;
    std::size_t trials_skipped_by_bounds = 0;

    /// Fraction of trials served from the cache, in [0, 1].
    [[nodiscard]] double hit_rate() const noexcept {
        return trials == 0
                   ? 0.0
                   : static_cast<double>(cache_hits) / static_cast<double>(trials);
    }

    /// Counter-wise sum / difference — aggregation across engines and
    /// before/after deltas (counters are monotone, so a - b of a later
    /// snapshot minus an earlier one never underflows).
    EvalStats& operator+=(const EvalStats& other) noexcept {
        trials += other.trials;
        kernel_runs += other.kernel_runs;
        cache_hits += other.cache_hits;
        golden_runs += other.golden_runs;
        evictions += other.evictions;
        trials_skipped_by_bounds += other.trials_skipped_by_bounds;
        return *this;
    }
    friend EvalStats operator+(EvalStats a, const EvalStats& b) noexcept {
        return a += b;
    }
    friend EvalStats operator-(EvalStats a, const EvalStats& b) noexcept {
        a.trials -= b.trials;
        a.kernel_runs -= b.kernel_runs;
        a.cache_hits -= b.cache_hits;
        a.golden_runs -= b.golden_runs;
        a.evictions -= b.evictions;
        a.trials_skipped_by_bounds -= b.trials_skipped_by_bounds;
        return a;
    }

    friend bool operator==(const EvalStats&, const EvalStats&) = default;
};

/// RAII accumulator for per-caller counter deltas. While a scope is
/// alive, every EvalStats bump any engine makes FROM THE CURRENT THREAD
/// is added to the scope as well as to the engine's own stats(). Scopes
/// nest (inner and outer both count) and are engine-agnostic (a thread
/// touching several engines sums across them).
///
/// The thread-locality is the point and the caveat: a pool-LESS engine
/// evaluates every trial inline on the calling thread, so a scope around
/// a search captures that search's delta exactly — even when concurrent
/// threads hammer the same engine, because each bump lands in exactly one
/// thread's scopes, scoped deltas across threads sum to the engine delta
/// with nothing counted twice. (Single-flight keeps the attribution
/// honest: the executor books the kernel_run, each waiter books its own
/// cache_hit.) An engine that owns a pool runs trials on its workers,
/// OUTSIDE the submitting thread's scopes — don't wrap pooled searches
/// and expect exact deltas. The TuningService's per-request stats ride on
/// this: its engines are pool-less and each request runs inline on one
/// scheduler worker.
class EvalStatsScope {
public:
    EvalStatsScope();
    ~EvalStatsScope();
    EvalStatsScope(const EvalStatsScope&) = delete;
    EvalStatsScope& operator=(const EvalStatsScope&) = delete;

    /// The bumps observed so far (live — readable mid-scope).
    [[nodiscard]] const EvalStats& stats() const noexcept { return stats_; }

private:
    EvalStats stats_;
};

class EvalEngine {
public:
    struct Options {
        /// Worker threads for fanned-out trials; <= 1 keeps the serial
        /// reference path (no pool is created). The engine's public
        /// methods are thread-safe regardless — external callers (e.g.
        /// the TuningService's scheduler workers) may share a pool-less
        /// engine.
        unsigned threads = 1;
        /// Trial memoization. Disabling re-runs every trial — results are
        /// identical by the determinism contract; only EvalStats change.
        bool memoize = true;
        /// Upper bound, in bytes, of memoized trial errors and reports,
        /// each charged at its estimated heap cost (the map node with its
        /// key, the key's format array, the LRU node, and a report's own
        /// allocations); least-recently-used entries are evicted once it
        /// is exceeded. 0 means unbounded. Goldens are pinned and never
        /// count against the budget. Eviction only costs re-runs: results
        /// stay bit-identical in any eviction state.
        std::size_t cache_budget_bytes = 0;
    };

    /// Snapshots `prototype` (one clone) — the engine never mutates or
    /// re-reads the caller's instance afterwards.
    EvalEngine(const apps::App& prototype, const Options& options);

    EvalEngine(const EvalEngine&) = delete;
    EvalEngine& operator=(const EvalEngine&) = delete;
    ~EvalEngine();

    [[nodiscard]] const apps::App& prototype() const noexcept { return *master_; }
    [[nodiscard]] const apps::SignalTable& signal_table() const noexcept {
        return master_->signal_table();
    }

    /// Shared pool for callers' own indexed_map fan-outs; null when
    /// threads <= 1 (serial path).
    [[nodiscard]] util::ThreadPool* pool() noexcept { return pool_.get(); }

    /// Binary64 reference output for `input_set`, computed once under a
    /// lock (concurrent first requests wait for it; a run that throws pins
    /// nothing, so the next request retries). The returned reference stays
    /// valid for the engine's lifetime — goldens are pinned: neither
    /// clear_cache() nor the LRU budget touches them.
    const std::vector<double>& golden(unsigned input_set);

    /// Relative error (tuning/quality.hpp output_error) of the untraced
    /// run under `config` on `input_set` against the set's golden output.
    /// One memoized trial: a miss runs the kernel, and the golden unless
    /// it is pinned, and caches only this number. `config` is moved into
    /// the cache key. Safe to call from pool workers.
    double output_error(unsigned input_set, apps::TypeConfig config);

    /// One quality trial: does the output under `config` meet the
    /// requirement `epsilon` against the golden output? That is
    /// meets_requirement(output_error(input_set, config), epsilon), so it
    /// counts as one trial and the same config can be checked against
    /// several requirements for one run.
    bool meets(unsigned input_set, apps::TypeConfig config, double epsilon);

    /// Traced run priced on the virtual platform while it executes (the
    /// cast-aware pass's cost oracle): the kernel runs on a cost-mode
    /// sim::TpContext, which stores no trace, and the report equals
    /// sim::simulate of the same run's stored program. Memoized per
    /// (input_set, config, simd). Tracing does not change the arithmetic,
    /// so when the set's golden is already pinned the run also seeds the
    /// output_error entry of (input_set, config); a report never runs a
    /// golden itself.
    sim::RunReport report(unsigned input_set, const apps::TypeConfig& config,
                          bool simd);

    [[nodiscard]] EvalStats stats() const;

    /// Books `n` trials a warm start / feasibility bound made unnecessary
    /// (EvalStats::trials_skipped_by_bounds). Called by the search, not by
    /// evaluation itself — skipped trials never reach the engine; routing
    /// them through it keeps the counter visible to EvalStatsScope.
    void note_trials_skipped(std::size_t n);

    /// Bytes currently charged to the trial cache (errors + reports,
    /// excluding pinned goldens). Never exceeds a non-zero
    /// Options::cache_budget_bytes once an insertion completes.
    [[nodiscard]] std::size_t cache_bytes() const;

    /// Drops every memoized trial error and report; goldens and counters
    /// are kept. Safe to call concurrently with evaluations — readers
    /// hold a copy of the error or shared ownership of the report they are
    /// using, and in-flight executions publish into the now-empty cache.
    void clear_cache();

private:
    /// One key space for both caches: `kind` separates untraced output
    /// errors from traced (input_set, config, simd) platform reports so
    /// the two can share the LRU list and the memory budget.
    struct CacheKey {
        enum class Kind : unsigned char { Output, Report };
        Kind kind = Kind::Output;
        unsigned input_set = 0;
        bool simd = false; // only meaningful for report entries
        apps::TypeConfig config;
        friend bool operator==(const CacheKey&, const CacheKey&) = default;
    };
    struct CacheKeyHash {
        [[nodiscard]] std::size_t operator()(const CacheKey& key) const noexcept {
            std::uint64_t h = key.config.hash();
            h = (h ^ key.input_set) * 1099511628211ULL;
            h = (h ^ static_cast<std::uint64_t>(key.simd)) * 1099511628211ULL;
            h = (h ^ static_cast<std::uint64_t>(key.kind)) * 1099511628211ULL;
            return static_cast<std::size_t>(h);
        }
    };

    /// What an execution resolves to: the output's relative error for
    /// Output keys, the report for Report keys. A Report execution carries
    /// its output's error too when the set's golden was pinned, to seed
    /// the Output entry. Shared ownership keeps a report alive for waiters
    /// and readers even after the LRU budget evicts its cache entry.
    struct CacheValue {
        std::optional<double> error;
        std::shared_ptr<const sim::RunReport> report;
    };
    struct Flight; // promise/shared_future pair, defined in the .cpp

    struct CacheEntry {
        CacheValue value;
        /// Position in lru_, whose nodes point at this entry's key in the
        /// map node (stable across rehashes, unlike map iterators).
        std::list<const CacheKey*>::iterator lru;
    };

    /// Heap bytes one entry is charged (eval_engine.cpp derives them).
    [[nodiscard]] static std::size_t entry_bytes(const CacheKey& key,
                                                 const CacheValue& value);

    void check_config(const apps::TypeConfig& config) const;

    /// The set's pinned golden, or null when none is pinned yet.
    [[nodiscard]] const std::vector<double>* pinned_golden(
        unsigned input_set) const;

    [[nodiscard]] std::unique_ptr<apps::App> acquire_clone();
    void release_clone(std::unique_ptr<apps::App> clone);

    /// Memoized lookup with single-flight execution: returns the cached
    /// value, waits on a concurrent execution of the same key, or runs
    /// `key` itself (one untraced run for Output keys, one run priced on
    /// the platform as it executes for Report keys). Counts kernel_runs /
    /// cache_hits exactly once per call.
    CacheValue obtain(const CacheKey& key);

    /// Executes `key`'s kernel run on a pooled clone and reduces its output
    /// to the error against the golden: for Output keys always, running
    /// the golden first if need be; for Report keys only when the golden
    /// is already pinned, so the error can seed the Output entry. Holds no
    /// engine lock across golden() or the run.
    [[nodiscard]] CacheValue execute(const CacheKey& key);

    /// Inserts `value` for `key` (if absent), charges its bytes, and
    /// evicts LRU entries past the budget. Returns entries evicted.
    std::size_t publish(const CacheKey& key, const CacheValue& value);

    std::unique_ptr<apps::App> master_; // immutable after construction
    bool memoize_ = true;
    std::size_t cache_budget_bytes_ = 0;
    std::unique_ptr<util::ThreadPool> pool_;

    std::mutex clones_mutex_;
    std::vector<std::unique_ptr<apps::App>> clones_;

    /// Held while a golden runs; taken before cache_mutex_, never after.
    std::mutex golden_mutex_;
    mutable std::mutex cache_mutex_;
    std::map<unsigned, std::vector<double>> goldens_; // pinned, node-stable
    std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
    std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights_;
    std::list<const CacheKey*> lru_; // front = most recently used
    std::size_t cache_bytes_ = 0;

    mutable std::mutex stats_mutex_;
    EvalStats stats_;
};

} // namespace tp::tuning
