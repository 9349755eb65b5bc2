#include "tuning/eval_engine.hpp"

#include <cassert>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "flexfloat/arith_backend.hpp"
#include "tuning/quality.hpp"

namespace tp::tuning {
namespace {

/// Approximate heap cost of one cache entry beyond its payload: the map
/// node, the LRU node (which carries a key copy), and the shared_ptr
/// control block. Precision is not the point — the budget only needs to
/// track real usage closely enough that "bounded" means bounded.
constexpr std::size_t kEntryOverheadBytes = 160;

std::size_t key_bytes(std::size_t config_signals) {
    return config_signals * sizeof(tp::FpFormat);
}

std::size_t output_bytes(const std::vector<double>& output,
                         std::size_t config_signals) {
    return output.size() * sizeof(double) + 2 * key_bytes(config_signals) +
           kEntryOverheadBytes;
}

std::size_t report_bytes(const sim::RunReport& report,
                         std::size_t config_signals) {
    // The per-format map is the only dynamic part of a RunReport; a map
    // node is roughly the pair plus pointers.
    return sizeof(sim::RunReport) +
           report.per_format.size() * (sizeof(FpFormat) +
                                       sizeof(sim::FormatActivity) + 48) +
           2 * key_bytes(config_signals) + kEntryOverheadBytes;
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
      cache_budget_bytes_(options.cache_budget_bytes),
      force_emulated_(options.force_emulated) {
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

// NOTE: this is the same single-flight rendezvous as obtain(), specialized
// for the pinned golden map (waiters resolve to a stable reference into
// goldens_, and nothing counts as a trial). A protocol change there —
// flight-erase ordering, failure accounting — almost certainly applies
// here too.
const std::vector<double>& EvalEngine::golden(unsigned input_set) {
    std::shared_ptr<Flight> flight;
    bool runner = false;
    {
        const std::lock_guard<std::mutex> lock{cache_mutex_};
        const auto it = goldens_.find(input_set);
        if (it != goldens_.end()) return it->second;
        const auto in_flight = golden_flights_.find(input_set);
        if (in_flight != golden_flights_.end()) {
            flight = in_flight->second;
        } else {
            golden_flights_.emplace(input_set,
                                    flight = std::make_shared<Flight>());
            runner = true;
        }
    }
    if (!runner) {
        // Wait for the concurrent computation (and rethrow its failure,
        // if any); the value itself lives pinned in goldens_.
        (void)flight->result.get();
        const std::lock_guard<std::mutex> lock{cache_mutex_};
        return goldens_.at(input_set);
    }
    try {
        std::unique_ptr<apps::App> app = acquire_clone();
        std::vector<double> reference;
        {
            // Thread-scoped, so it covers this run wherever it executes
            // (caller thread or pool worker — golden() runs on the
            // requesting thread).
            const arith::ScopedForceEmulated backend{force_emulated_};
            reference = app->golden(input_set);
        }
        release_clone(std::move(app));
        bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.golden_runs; });
        const std::vector<double>* stored = nullptr;
        {
            const std::lock_guard<std::mutex> lock{cache_mutex_};
            stored = &goldens_.try_emplace(input_set, std::move(reference))
                          .first->second;
            golden_flights_.erase(input_set);
        }
        flight->promise.set_value(CacheValue{});
        return *stored;
    } catch (...) {
        {
            const std::lock_guard<std::mutex> lock{cache_mutex_};
            golden_flights_.erase(input_set);
        }
        flight->promise.set_exception(std::current_exception());
        throw;
    }
}

std::vector<double> EvalEngine::output(unsigned input_set,
                                       const apps::TypeConfig& config) {
    // Validate before any counter moves or kernel runs: a rejected config
    // must leave the engine (and the trials == hits + runs invariant)
    // untouched.
    check_config(config);
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.trials; });
    return *obtain(CacheKey{CacheKey::Kind::Output, input_set, /*simd=*/false,
                            config})
                .output;
}

bool EvalEngine::meets(unsigned input_set, const apps::TypeConfig& config,
                       double epsilon) {
    check_config(config); // before the golden run and the trial counter
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.trials; });
    // Golden first: the reference stays valid (pinned) while the trial
    // cache mutates, and the hit path reduces the shared cached output in
    // place — no copy.
    const std::vector<double>& reference = golden(input_set);
    const CacheValue value = obtain(
        CacheKey{CacheKey::Kind::Output, input_set, /*simd=*/false, config});
    return meets_requirement(reference, *value.output, epsilon);
}

sim::RunReport EvalEngine::report(unsigned input_set,
                                  const apps::TypeConfig& config, bool simd) {
    check_config(config);
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.trials; });
    return *obtain(CacheKey{CacheKey::Kind::Report, input_set, simd, config})
                .report;
}

EvalEngine::CacheValue EvalEngine::execute(const CacheKey& key) {
    // Thread-scoped backend override: execute() always runs the kernel on
    // the calling thread (pool tasks call it from the worker), so the
    // scope pins exactly this run — and nothing else — to the emulated
    // backend when the engine option asks for it.
    const arith::ScopedForceEmulated backend{force_emulated_};
    std::unique_ptr<apps::App> app = acquire_clone();
    app->prepare(key.input_set);
    CacheValue value;
    if (key.kind == CacheKey::Kind::Output) {
        sim::TpContext ctx{sim::TpContext::Config{.trace = false}};
        value.output = std::make_shared<const std::vector<double>>(
            app->run(ctx, key.config));
    } else {
        // Traced in cost mode: the platform prices the run as it executes.
        sim::TpContext ctx{sim::TpContext::Costing{.simd = key.simd}};
        value.output = std::make_shared<const std::vector<double>>(
            app->run(ctx, key.config));
        value.report = std::make_shared<const sim::RunReport>(ctx.take_report());
    }
    release_clone(std::move(app));
    bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.kernel_runs; });
    return value;
}

EvalEngine::CacheValue EvalEngine::obtain(const CacheKey& key) {
    if (!memoize_) return execute(key);

    std::shared_ptr<Flight> flight;
    bool runner = false;
    CacheValue ready;
    {
        const std::lock_guard<std::mutex> lock{cache_mutex_};
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            // Touch: move to the LRU front. Shared ownership keeps the
            // value alive for this caller even if it is evicted before
            // the caller finishes with it.
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
    // Locks are taken sequentially, never nested — the engine has no lock
    // ordering to get wrong.
    if (ready.output != nullptr || ready.report != nullptr) {
        bump(stats_mutex_, stats_, [](EvalStats& s) { ++s.cache_hits; });
        return ready;
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
                // The report entry must not retain the output: the two are
                // budgeted (and evicted) independently, so a pinned extra
                // reference would keep evicted output bytes alive.
                evicted += publish(key, CacheValue{nullptr, value.report});
                // Tracing does not change the arithmetic, so the output
                // this run produced also serves future quality trials of
                // the same binding (e.g. cast-aware cost probe -> quality
                // check on the same set).
                evicted += publish(CacheKey{CacheKey::Kind::Output,
                                            key.input_set, /*simd=*/false,
                                            key.config},
                                   CacheValue{value.output, nullptr});
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

// Requires cache_mutex_ held.
std::size_t EvalEngine::publish(const CacheKey& key, const CacheValue& value) {
    const auto [it, inserted] = cache_.try_emplace(key);
    if (!inserted) return 0; // e.g. a traced run racing a plain output run
    it->second.value = value;
    it->second.bytes =
        key.kind == CacheKey::Kind::Output
            ? output_bytes(*value.output, key.config.size())
            : report_bytes(*value.report, key.config.size());
    lru_.push_front(key);
    it->second.lru = lru_.begin();
    cache_bytes_ += it->second.bytes;

    std::size_t evicted = 0;
    while (cache_budget_bytes_ != 0 && cache_bytes_ > cache_budget_bytes_ &&
           !lru_.empty()) {
        const auto victim = cache_.find(lru_.back());
        assert(victim != cache_.end());
        cache_bytes_ -= victim->second.bytes;
        cache_.erase(victim);
        lru_.pop_back();
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
