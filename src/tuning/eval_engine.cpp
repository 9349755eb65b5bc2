#include "tuning/eval_engine.hpp"

#include <algorithm>
#include <cassert>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "tuning/quality.hpp"

namespace tp::tuning {
namespace {

// Heap cost of cache entries, in the chunks glibc's malloc hands out on a
// 64-bit build: the request plus an 8-byte header, rounded up to 16 bytes,
// at least 32. Precision is not the point — the budget only needs to track
// real usage closely enough that "bounded" means bounded.
constexpr std::size_t chunk_bytes(std::size_t request) {
    return std::max<std::size_t>(32, (request + 8 + 15) / 16 * 16);
}

/// The key's format array: two bytes per signal.
std::size_t key_bytes(std::size_t config_signals) {
    return chunk_bytes(config_signals * sizeof(FpFormat));
}

/// A report entry's own allocations: make_shared's one block (control
/// block and report) and one per_format tree node per format (links and
/// color, then the pair).
std::size_t report_bytes(const sim::RunReport& report) {
    return chunk_bytes(16 + sizeof(sim::RunReport)) +
           report.per_format.size() *
               chunk_bytes(32 + sizeof(std::pair<const FpFormat,
                                                 sim::FormatActivity>));
}

/// The stack of EvalStatsScopes alive on this thread. Thread-local, so
/// scope bookkeeping needs no synchronization and each counter bump lands
/// in exactly one thread's scopes.
std::vector<EvalStats*>& active_scopes() {
    thread_local std::vector<EvalStats*> scopes;
    return scopes;
}

/// Applies one counter bump to the engine's stats (under its lock) and to
/// every scope alive on the current thread (lock-free — thread-local).
template <typename Apply>
void bump(std::mutex& stats_mutex, EvalStats& stats, Apply apply) {
    {
        const std::lock_guard<std::mutex> lock{stats_mutex};
        apply(stats);
    }
    for (EvalStats* scope : active_scopes()) apply(*scope);
}

} // namespace

EvalStatsScope::EvalStatsScope() { active_scopes().push_back(&stats_); }

EvalStatsScope::~EvalStatsScope() {
    assert(!active_scopes().empty() && active_scopes().back() == &stats_);
    active_scopes().pop_back();
}

/// A single-flight rendezvous: the first requester of a missing key owns
/// the Flight and executes; concurrent requesters wait on `result`.
/// Waiters read the value from the future, never from the cache, so an
/// eviction between publication and wake-up cannot strand them.
struct EvalEngine::Flight {
    std::promise<CacheValue> promise;
    std::shared_future<CacheValue> result = promise.get_future().share();
};

EvalEngine::EvalEngine(const apps::App& prototype, const Options& options)
    : master_(prototype.clone()),
      memoize_(options.memoize),
      cache_budget_bytes_(options.cache_budget_bytes) {
    if (options.threads > 1) {
        pool_ = std::make_unique<util::ThreadPool>(options.threads);
    }
}

// The pool must drain before the clone free-list and caches are destroyed:
// queued tasks reference them. pool_ is declared BEFORE the caches, so
// default member destruction would tear the caches down first while
// workers may still be draining — the explicit reset is load-bearing.
EvalEngine::~EvalEngine() { pool_.reset(); }

// Catches a wrong-sized binding (default-constructed, or built for
// another app) before it reaches a kernel. A config built for a DIFFERENT
// app with the SAME signal count cannot be detected here — configs are
// plain values with no provenance; the name->id boundary (config_io
// validated against a SignalTable) is where cross-app mixups originate
// and are rejected.
void EvalEngine::check_config(const apps::TypeConfig& config) const {
    if (config.size() != master_->signal_table().size()) {
        throw std::invalid_argument(
            "EvalEngine: config has " + std::to_string(config.size()) +
            " signals but app '" + std::string(master_->name()) +
            "' declares " + std::to_string(master_->signal_table().size()));
    }
}

std::unique_ptr<apps::App> EvalEngine::acquire_clone() {
    {
        const std::lock_guard<std::mutex> lock{clones_mutex_};
        if (!clones_.empty()) {
            std::unique_ptr<apps::App> clone = std::move(clones_.back());
            clones_.pop_back();
            return clone;
        }
    }
    // master_ is immutable after construction, so concurrent clones are
    // safe: App's copy constructor only reads it.
    return master_->clone();
}

void EvalEngine::release_clone(std::unique_ptr<apps::App> clone) {
    const std::lock_guard<std::mutex> lock{clones_mutex_};
    clones_.push_back(std::move(clone));
}

const std::vector<double>* EvalEngine::pinned_golden(unsigned input_set) const {
    const std::lock_guard<std::mutex> lock{cache_mutex_};
    const auto it = goldens_.find(input_set);
    return it == goldens_.end() ? nullptr : &it->second;
}

const std::vector<double>& EvalEngine::golden(unsigned input_set) {
    if (const auto* pinned = pinned_golden(input_set)) return *pinned;
    // One golden runs at a time: a concurrent first requester waits here
    // and finds it pinned. A run that throws pins nothing, so each later
    // requester retries it.
    const std::lock_guard<std::mutex> golden_lock{golden_mutex_};
    if (const auto* pinned = pinned_golden(input_set)) return *pinned;
    std::unique_ptr<apps::App> app = acquire_clone();
    std::vector<double> reference = app->golden(input_set);
    release_clone(std::move(app));
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.golden_runs; });
    const std::lock_guard<std::mutex> lock{cache_mutex_};
    return goldens_.try_emplace(input_set, std::move(reference)).first->second;
}

double EvalEngine::output_error(unsigned input_set, apps::TypeConfig config) {
    // Validate before any counter moves or kernel runs: a rejected config
    // must leave the engine (and the trials == hits + runs invariant)
    // untouched.
    check_config(config);
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.trials; });
    return *obtain(CacheKey{CacheKey::Kind::Output, input_set, /*simd=*/false,
                            std::move(config)})
                .error;
}

bool EvalEngine::meets(unsigned input_set, apps::TypeConfig config,
                       double epsilon) {
    return meets_requirement(output_error(input_set, std::move(config)),
                             epsilon);
}

sim::RunReport EvalEngine::report(unsigned input_set,
                                  const apps::TypeConfig& config, bool simd) {
    check_config(config);
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.trials; });
    return *obtain(CacheKey{CacheKey::Kind::Report, input_set, simd, config})
                .report;
}

EvalEngine::CacheValue EvalEngine::execute(const CacheKey& key) {
    const bool costing = key.kind == CacheKey::Kind::Report;
    // A quality trial's golden comes first (golden() runs it on this thread
    // if need be), so the run never holds two clones.
    const std::vector<double>* reference =
        costing ? nullptr : &golden(key.input_set);
    CacheValue value;
    std::vector<double> output;
    std::unique_ptr<apps::App> app = acquire_clone();
    app->prepare(key.input_set);
    if (costing) {
        // Traced in cost mode: the platform prices the run as it executes.
        sim::TpContext ctx{sim::TpContext::Costing{.simd = key.simd}};
        output = app->run(ctx, key.config);
        value.report = std::make_shared<const sim::RunReport>(ctx.take_report());
    } else {
        sim::TpContext ctx{sim::TpContext::Config{.trace = false}};
        output = app->run(ctx, key.config);
    }
    release_clone(std::move(app));
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.kernel_runs; });
    // Tracing does not change the arithmetic, so a report's output error
    // also serves future quality trials of the same binding — but only
    // against a golden some trial already pinned: no report runs one.
    if (costing) reference = pinned_golden(key.input_set);
    if (reference != nullptr) {
        value.error = tuning::output_error(*reference, output);
    }
    return value;
}

EvalEngine::CacheValue EvalEngine::obtain(const CacheKey& key) {
    if (!memoize_) return execute(key);

    std::shared_ptr<Flight> flight;
    bool runner = false;
    std::optional<CacheValue> ready;
    {
        const std::lock_guard<std::mutex> lock{cache_mutex_};
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            // Touch: move to the LRU front. The error is copied, and shared
            // ownership keeps a report alive for this caller even if it is
            // evicted before the caller finishes with it.
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            ready = it->second.value;
        } else {
            const auto in_flight = flights_.find(key);
            if (in_flight != flights_.end()) {
                flight = in_flight->second;
            } else {
                flights_.emplace(key, flight = std::make_shared<Flight>());
                runner = true;
            }
        }
    }
    // obtain() takes its locks one at a time, never nested. The engine's
    // one nesting is golden(), which holds golden_mutex_ while it takes the
    // cache, clone and stats locks; nothing takes golden_mutex_ while
    // holding another engine lock.
    if (ready.has_value()) {
        bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.cache_hits; });
        return std::move(*ready);
    }

    if (!runner) {
        // Another thread is executing this exact trial right now; its
        // result is this request's result — a cache hit that happens to
        // arrive before publication. Count the hit only once the flight
        // resolves: if the runner failed, get() rethrows and this trial
        // produced neither a hit nor a run.
        CacheValue value = flight->result.get();
        bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.cache_hits; });
        return value;
    }

    try {
        const CacheValue value = execute(key);
        std::size_t evicted = 0;
        {
            const std::lock_guard<std::mutex> lock{cache_mutex_};
            flights_.erase(key);
            if (key.kind == CacheKey::Kind::Output) {
                evicted += publish(key, value);
            } else {
                // The two entries are budgeted (and evicted) independently,
                // so each holds only its own payload.
                evicted += publish(key, CacheValue{std::nullopt, value.report});
                // A cost probe whose error execute() could compute seeds
                // the quality trial of the same binding (e.g. cast-aware
                // cost probe -> quality check on the same set).
                if (value.error.has_value()) {
                    evicted += publish(CacheKey{CacheKey::Kind::Output,
                                                key.input_set, /*simd=*/false,
                                                key.config},
                                       CacheValue{value.error, nullptr});
                }
            }
        }
        if (evicted > 0) {
            bump(stats_mutex_, stats_,
                 [evicted](EvalStats& s) { s.evictions += evicted; });
        }
        flight->promise.set_value(value);
        return value;
    } catch (...) {
        {
            const std::lock_guard<std::mutex> lock{cache_mutex_};
            flights_.erase(key);
        }
        flight->promise.set_exception(std::current_exception());
        throw;
    }
}

std::size_t EvalEngine::entry_bytes(const CacheKey& key,
                                    const CacheValue& value) {
    // Every entry: the map node (next pointer, key, and the entry holding
    // the error, the report pointer and the LRU position), the LRU node
    // (two links and a pointer to the key in that map node), and the
    // node's bucket slot (one pointer, up to two per entry while the table
    // fills between rehashes). An output entry's error lives in the node.
    constexpr std::size_t kEntryOverheadBytes =
        chunk_bytes(sizeof(void*) + sizeof(CacheKey) + sizeof(CacheEntry)) +
        chunk_bytes(2 * sizeof(void*) + sizeof(const CacheKey*)) +
        2 * sizeof(void*);
    const std::size_t bytes = kEntryOverheadBytes + key_bytes(key.config.size());
    return key.kind == CacheKey::Kind::Output
               ? bytes
               : bytes + report_bytes(*value.report);
}

// Requires cache_mutex_ held.
std::size_t EvalEngine::publish(const CacheKey& key, const CacheValue& value) {
    const auto [it, inserted] = cache_.try_emplace(key);
    if (!inserted) return 0; // e.g. a traced run racing a plain output run
    it->second.value = value;
    lru_.push_front(&it->first);
    it->second.lru = lru_.begin();
    cache_bytes_ += entry_bytes(key, value);

    std::size_t evicted = 0;
    while (cache_budget_bytes_ != 0 && cache_bytes_ > cache_budget_bytes_ &&
           !lru_.empty()) {
        const auto victim = cache_.find(*lru_.back());
        assert(victim != cache_.end());
        cache_bytes_ -= entry_bytes(victim->first, victim->second.value);
        lru_.pop_back();
        cache_.erase(victim);
        ++evicted;
    }
    return evicted;
}

void EvalEngine::note_trials_skipped(std::size_t n) {
    if (n == 0) return;
    bump(stats_mutex_, stats_,
         [n](EvalStats& s) { s.trials_skipped_by_bounds += n; });
}

EvalStats EvalEngine::stats() const {
    const std::lock_guard<std::mutex> lock{stats_mutex_};
    return stats_;
}

std::size_t EvalEngine::cache_bytes() const {
    const std::lock_guard<std::mutex> lock{cache_mutex_};
    return cache_bytes_;
}

void EvalEngine::clear_cache() {
    const std::lock_guard<std::mutex> lock{cache_mutex_};
    // Goldens survive: golden() hands out references promised to live as
    // long as the engine. In-flight executions are untouched — they will
    // publish into the now-empty cache when they finish.
    cache_.clear();
    lru_.clear();
    cache_bytes_ = 0;
}

} // namespace tp::tuning
