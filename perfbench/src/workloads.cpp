#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/app.hpp"
#include "gauge.hpp"
#include "layers.hpp"
#include "sim/context.hpp"
#include "sim/platform.hpp"
#include "tuning/cast_aware.hpp"
#include "tuning/eval_engine.hpp"
#include "tuning/search.hpp"
#include "tuning/service.hpp"

namespace perfbench {
namespace {

using tp::apps::App;
using tp::apps::TypeConfig;
using tp::tuning::CastAwareResult;
using tp::tuning::EvalEngine;
using tp::tuning::EvalStats;
using tp::tuning::TuningResult;

const std::vector<double> kSweepEpsilons{1e-3, 1e-2, 1e-1};
constexpr double kCastEpsilon = 1e-2;
constexpr double kProbeEpsilon = 1e-2;
constexpr std::size_t kSetupMinRepeats = 7;
constexpr std::size_t kSetupMaxRepeats = 101;
constexpr double kSetupMinSeconds = 1.0;

// Service workload shape. jacobi is left out of the service: one of its
// cold searches takes longer than the interactive latency limit.
const std::vector<std::string> kServiceApps{"knn", "pca", "dwt", "svm", "conv", "fft", "iir", "mlp"};
const std::vector<std::string> kCastServiceApps{"knn", "pca", "dwt", "fft", "iir"};
// Per 32 arrivals: 29 interactive searches, 2 sweeps, 1 cast-aware pass.
// The bulk work keeps about 0.4 of the three workers busy, so even on a host
// twice as slow as usual an interactive request seldom finds all of them
// taken, and p95 stays on the cache-hit path.
constexpr int kKindDeckInteractive = 29;
constexpr int kKindDeckSweep = 2;
constexpr int kKindDeckCast = 1;
constexpr unsigned kServiceWorkers = 3;
constexpr std::size_t kServiceClassCap = 64;
constexpr auto kAgingQuantum = std::chrono::milliseconds(250);
constexpr auto kInteractiveDeadline = std::chrono::seconds(1);
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kTailWindow = 200; // service p95: samples per window
constexpr unsigned kVerifyThreads = 4;
constexpr auto kGeneratorSpin = std::chrono::milliseconds(1);
// The service's generator reads the host gauge in its idle time: when the
// next arrival is due at least kGaugeGap away, and at most once per
// kGaugeEvery.
constexpr auto kGaugeGap = std::chrono::milliseconds(20);
constexpr auto kGaugeEvery = std::chrono::milliseconds(200);

double ms(double s) { return s * 1e3; }

std::string fmt(const char* format, auto... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, format, args...);
    return buf;
}

void digest_result(Digest& d, const TuningResult& r) {
    d.add(r.epsilon).add(static_cast<std::uint64_t>(r.program_runs));
    d.add(static_cast<std::uint64_t>(r.type_system));
    for (const tp::tuning::SignalResult& s : r.signals) {
        d.add(s.name).add(static_cast<std::uint64_t>(s.precision_bits));
        d.add(static_cast<std::uint64_t>(s.bound)).add(static_cast<std::uint64_t>(s.elements));
    }
}

void digest_config(Digest& d, const TypeConfig& c) {
    for (const tp::FpFormat f : c.formats()) {
        d.add(static_cast<std::uint64_t>(f.exp_bits) << 8 | f.mant_bits);
    }
}

void digest_report(Digest& d, const tp::sim::RunReport& r) {
    for (const std::uint64_t v : {r.cycles, r.stall_cycles, r.issue_slots, r.mem_accesses,
                                  r.mem_accesses_vector, r.mem_bytes, r.fp_ops, r.fp_simd_instrs,
                                  r.fp_simd_lane_ops, r.casts, r.cast_cycles, r.int_ops,
                                  r.addr_int_ops, r.branches}) {
        d.add(v);
    }
    d.add(r.energy.fp_ops).add(r.energy.memory).add(r.energy.other);
}

/// Direct simulation of `config` as the cast-aware oracle prices it: one
/// traced run on `input_set`, vectorized when `simd`, then sim::simulate.
tp::sim::RunReport simulate_directly(const App& prototype, unsigned input_set,
                                     const TypeConfig& config, bool simd) {
    std::unique_ptr<App> app = prototype.clone();
    app->prepare(input_set);
    tp::sim::TpContext ctx;
    (void)app->run(ctx, config);
    return tp::sim::simulate(ctx.take_program(simd));
}

/// Runs `build` repeatedly — at least kSetupMinRepeats times and until
/// kSetupMinSeconds have passed, at most kSetupMaxRepeats times — and
/// returns the median duration in nominal-host seconds: each repetition is
/// scaled by the mean of the gauge reads just before and after it. Each
/// repetition redoes the whole set-up; the last one's products are the ones
/// the workload uses.
double timed_setup(HostGauge& gauge, const std::function<void()>& build) {
    std::vector<double> samples;
    const Clock::time_point start = Clock::now();
    double gauge_before = gauge.measure();
    while (samples.size() < kSetupMinRepeats ||
           (samples.size() < kSetupMaxRepeats &&
            seconds_between(start, Clock::now()) < kSetupMinSeconds)) {
        const Clock::time_point t0 = Clock::now();
        build();
        const double wall_s = seconds_between(t0, Clock::now());
        const double gauge_after = gauge.measure();
        samples.push_back(wall_s * HostGauge::factor(0.5 * (gauge_before + gauge_after)));
        gauge_before = gauge_after;
    }
    return median(samples);
}

/// Prints each span name's count, total and self time (total minus the
/// time its direct children cover), slowest self time first, and writes the
/// spans to `path` as Chrome trace-event JSON when a path is given.
void write_trace(const SpanLog& log, const std::string& path, RunOutcome& out) {
    const std::map<std::string, SpanLog::Totals> totals = log.totals();
    std::vector<std::pair<std::string, SpanLog::Totals>> rows(totals.begin(), totals.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second.self_s > b.second.self_s; });
    out.notes.push_back(fmt("spans: %-30s %7s %10s %10s", "name", "count", "total_s", "self_s"));
    for (const auto& [name, t] : rows) {
        out.notes.push_back(
            fmt("spans: %-30s %7zu %10.4f %10.4f", name.c_str(), t.count, t.total_s, t.self_s));
    }
    if (path.empty()) return;
    std::ofstream file(path);
    file << log.chrome_trace();
    if (!file) {
        out.fail("could not write the trace to " + path);
        return;
    }
    out.notes.push_back(fmt("trace: %zu spans written to %s", log.spans().size(), path.c_str()));
}

/// Mean over groups of each group's median (every group non-empty).
double mean_of_medians(const std::vector<std::vector<double>>& groups) {
    double sum = 0.0;
    for (const std::vector<double>& g : groups) sum += median(g);
    return sum / static_cast<double>(groups.size());
}

void add_engine_metrics(const EvalStats& s, std::size_t cache_bytes_max, RunOutcome& out) {
    out.set("engine.trials", static_cast<double>(s.trials), "count");
    out.set("engine.kernel_runs", static_cast<double>(s.kernel_runs), "count");
    out.set("engine.cache_hits", static_cast<double>(s.cache_hits), "count");
    out.set("engine.hit_rate", s.hit_rate(), "frac");
    out.set("engine.golden_runs", static_cast<double>(s.golden_runs), "count");
    out.set("engine.trials_skipped_by_bounds", static_cast<double>(s.trials_skipped_by_bounds),
            "count");
    out.set("engine.cache_bytes_max", static_cast<double>(cache_bytes_max), "bytes");
}

double fail_frac(const RunOutcome& out) {
    return out.attempted == 0 ? 1.0
                              : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
}

/// The end-to-end metrics every workload reports (README.md gives each
/// one's meaning per workload).
struct EndToEnd {
    double setup_s = 0.0;
    double round_s = 0.0;
    double job_ms_geomean = 0.0;
    std::vector<double> lat_ms; // latency samples behind p50/p95
    double lat_ms_p50 = 0.0;
    double lat_ms_p95 = 0.0;
    double sweep_lat_s_p50 = 0.0;
    double slo_met_frac = 0.0;
    double peak_rss_mb = 0.0;

    void emit(RunOutcome& out) const {
        out.set("setup_s", setup_s, "s");
        out.set("round_s", round_s, "s");
        out.set("job_ms_geomean", job_ms_geomean, "ms");
        out.set("lat_ms_p50", lat_ms_p50, "ms");
        out.set("lat_ms_p95", lat_ms_p95, "ms");
        out.set("sweep_lat_s_p50", sweep_lat_s_p50, "s");
        out.set("slo_met_frac", slo_met_frac, "frac");
        out.set("peak_rss_mb", peak_rss_mb, "MB");
    }

    [[nodiscard]] std::vector<std::string> lines(const char* title, const RunOutcome& out) const {
        return {fmt("%s", title),
                fmt("  setup_s          %12.6f s", setup_s),
                fmt("  round_s          %12.6f s", round_s),
                fmt("  job_ms_geomean   %12.4f ms", job_ms_geomean),
                fmt("  lat_ms_p50       %12.4f ms  (%zu samples, whole-run median %.4f ms)",
                    lat_ms_p50, lat_ms.size(), median(lat_ms)),
                fmt("  lat_ms_p95       %12.4f ms  (%zu samples beyond the whole-run p95, %.4f ms)",
                    lat_ms_p95, samples_beyond(lat_ms.size(), kTailPercentile),
                    percentile(lat_ms, kTailPercentile)),
                fmt("  sweep_lat_s_p50  %12.6f s", sweep_lat_s_p50),
                fmt("  slo_met_frac     %12.6f", slo_met_frac),
                fmt("  fail_frac        %12.6f    (%llu of %llu)", fail_frac(out),
                    static_cast<unsigned long long>(out.failed),
                    static_cast<unsigned long long>(out.attempted)),
                fmt("  peak_rss_mb      %12.3f MB", peak_rss_mb)};
    }
};


// --- closed loops -----------------------------------------------------------

/// One job's product: a chained sweep (tune_sweep) or a cast-aware pass.
struct JobResult {
    std::vector<TuningResult> sweep;
    std::optional<CastAwareResult> cast;
    bool threw = false;
    std::string error;
};

bool same_cast(const CastAwareResult& a, const CastAwareResult& b) {
    return a.base == b.base && a.config == b.config && a.base_energy_pj == b.base_energy_pj &&
           a.tuned_energy_pj == b.tuned_energy_pj && a.base_casts == b.base_casts &&
           a.tuned_casts == b.tuned_casts && a.moves_accepted == b.moves_accepted;
}

bool same_bits(const JobResult& a, const JobResult& b) {
    if (a.threw || b.threw || a.sweep != b.sweep || a.cast.has_value() != b.cast.has_value()) {
        return false;
    }
    return !a.cast || same_cast(*a.cast, *b.cast);
}

struct RoundRecord {
    unsigned triple = 0;
    bool traced = false;
    std::vector<double> job_s;      // wall time by app index
    std::vector<double> job_norm_s; // the same in nominal-host seconds

    /// A round is its jobs, back to back; the gauge reads and the
    /// bookkeeping between jobs are not part of it.
    [[nodiscard]] double wall_s() const { return std::accumulate(job_s.begin(), job_s.end(), 0.0); }
    [[nodiscard]] double norm_s() const {
        return std::accumulate(job_norm_s.begin(), job_norm_s.end(), 0.0);
    }
};

class ClosedLoop {
public:
    ClosedLoop(const RunConfig& config, bool cast) : config_(config), cast_(cast) {}

    RunOutcome run() {
        RunOutcome out;
        for (unsigned j = 0; j < kTriplesPerRun; ++j) {
            triples_.push_back(closed_loop_triple(config_.seed, j));
        }
        // Set-up builds the apps and a verification engine per app whose
        // golden outputs cover every input set of the run. Each job then
        // starts on a fresh engine: its caches start empty.
        e2e_.setup_s = timed_setup(gauge_, [this] {
            apps_ = tp::apps::make_all_apps();
            verifiers_.clear();
            for (const auto& app : apps_) {
                verifiers_.push_back(std::make_unique<EvalEngine>(*app, EvalEngine::Options{}));
                for (const std::vector<unsigned>& triple : triples_) {
                    for (const unsigned set : triple) (void)verifiers_.back()->golden(set);
                }
            }
        });
        first_.assign(kTriplesPerRun, std::vector<std::optional<JobResult>>(apps_.size()));
        verified_jobs_.assign(kTriplesPerRun, std::vector<std::uint64_t>(apps_.size(), 0));
        for (const auto& app : apps_) {
            tallies_.push_back(std::make_shared<RunTally>());
            timed_apps_.push_back(std::make_unique<TimedApp>(app->clone(), tallies_.back()));
        }

        SpanLog log;
        timed_section(config_.trace ? &log : nullptr);
        e2e_.peak_rss_mb = peak_rss_mb();
        verify(out);
        summarize(out);

        if (!config_.trace) {
            e2e_.emit(out);
            for (const std::string& l : e2e_.lines("end-to-end:", out)) out.notes.push_back(l);
            return out;
        }
        const int probe_root = log.open("probes");
        LayerInputs inputs;
        inputs.input_sets = triples_[0];
        inputs.epsilon = kProbeEpsilon;
        for (std::size_t a = 0; a < apps_.size(); ++a) {
            const std::optional<JobResult>& r = first_[0][a];
            if (!r || r->threw) continue;
            auto& configs = inputs.configs[std::string(apps_[a]->name())];
            if (r->cast) configs.push_back(r->cast->config);
            for (const TuningResult& t : r->sweep) configs.push_back(t.type_config());
        }
        const LayerReport layers = probe_layers(inputs, &log, probe_root, out);
        log.close(probe_root);
        emit_layer_metrics(layers, out);
        add_engine_metrics(round0_stats_, round0_cache_bytes_max_, out);
        for (const char* name : {"service.queue_depth_p50", "service.queue_depth_max",
                                 "service.admitted", "service.rejected_queue_full",
                                 "service.rejected_deadline", "service.expired"}) {
            out.set(name, 0.0, "count");
        }
        out.set("service.hit_rate", 0.0, "frac");
        out.set("service.cache_bytes", 0.0, "bytes");

        // Kernel and capture shares are measured through the TimedApp
        // wrappers the traced rounds run on.
        std::vector<double> traced_s, untraced_s, traced_wall_s;
        for (const RoundRecord& r : rounds_) {
            (r.traced ? traced_s : untraced_s).push_back(r.norm_s());
            if (r.traced) traced_wall_s.push_back(r.wall_s());
        }
        const double traced_total_s = std::accumulate(traced_wall_s.begin(), traced_wall_s.end(), 0.0);
        double kernel_s = 0.0, capture_s = 0.0;
        for (const auto& tally : tallies_) {
            const RunTally::Snapshot s = tally->snapshot();
            kernel_s += s.untraced_s;
            capture_s += s.traced_s;
        }
        out.set("kernel.share", kernel_s / traced_total_s, "frac");
        out.set("sim.capture_share", capture_s / traced_total_s, "frac");
        out.set("gen.lag_ms_p99", percentile(gaps_ms_, 99.0), "ms");
        out.set("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0, "frac");
        out.set("lat.samples", static_cast<double>(e2e_.lat_ms.size()), "count");
        out.set("fail_frac", fail_frac(out), "frac");
        write_trace(log, config_.trace_out, out);
        for (const std::string& l : e2e_.lines("end-to-end (untraced rounds of this run):", out)) {
            out.notes.push_back(l);
        }
        return out;
    }

private:
    JobResult job(const App& app, const std::vector<unsigned>& sets) {
        JobResult r;
        try {
            EvalEngine engine{app, EvalEngine::Options{}};
            if (cast_) {
                tp::tuning::CastAwareOptions options;
                options.search.epsilon = kCastEpsilon;
                options.search.input_sets = sets;
                options.search.static_bounds = true;
                r.cast = tp::tuning::cast_aware_search(engine, options);
            } else {
                tp::tuning::SearchOptions base;
                base.input_sets = sets;
                r.sweep = tp::tuning::sweep_search(engine, base, kSweepEpsilons);
            }
            last_stats_ = engine.stats();
            last_cache_bytes_ = engine.cache_bytes();
        } catch (const std::exception& e) {
            r.threw = true;
            r.error = e.what();
        }
        return r;
    }

    /// Untraced runs repeat rounds over the run's triples until `seconds`
    /// have passed (at least one round per triple). The gauge is read
    /// between jobs, outside their timing, and each job is scaled by the
    /// mean of the reads on either side of it. Traced runs alternate
    /// blocks of one untraced and one traced round per triple, so both
    /// halves see the same inputs and drift; the untraced half gives the
    /// printed end-to-end figures and the base of trace.overhead_frac.
    void timed_section(SpanLog* log) {
        const char* job_name = cast_ ? "tuning.cast_aware_search" : "tuning.sweep_search";
        const unsigned min_rounds = (log != nullptr ? 2 : 1) * kTriplesPerRun;
        const Clock::time_point start = Clock::now();
        double gauge_before = gauge_.measure();
        Clock::time_point last_end = Clock::now();
        for (unsigned r = 0;; ++r) {
            if (r >= min_rounds && seconds_between(start, Clock::now()) >= config_.seconds) break;
            RoundRecord rec;
            rec.triple = r % kTriplesPerRun;
            rec.traced = log != nullptr && (r / kTriplesPerRun) % 2 == 1;
            SpanLog* round_log = rec.traced ? log : nullptr;
            const std::vector<unsigned>& sets = triples_[rec.triple];
            const ScopedSpan round_span{round_log, "round", -1, r};
            for (std::size_t a = 0; a < apps_.size(); ++a) {
                const Clock::time_point j0 = Clock::now();
                gaps_ms_.push_back(ms(seconds_between(last_end, j0)));
                JobResult result;
                {
                    const ScopedSpan span{round_log, job_name, round_span.index(), r};
                    result = job(rec.traced ? *timed_apps_[a] : *apps_[a], sets);
                }
                const double wall_s = seconds_between(j0, Clock::now());
                double gauge_after = 0.0;
                {
                    const ScopedSpan span{round_log, "bench.host_gauge", round_span.index(), r};
                    gauge_after = gauge_.measure();
                }
                last_end = Clock::now();
                rec.job_s.push_back(wall_s);
                rec.job_norm_s.push_back(wall_s * HostGauge::factor(0.5 * (gauge_before + gauge_after)));
                gauge_before = gauge_after;
                gauge_s_.push_back(gauge_after);
                if (r == 0) {
                    round0_stats_ += last_stats_;
                    round0_cache_bytes_max_ = std::max(round0_cache_bytes_max_, last_cache_bytes_);
                }
                record(rec.triple, a, std::move(result));
            }
            rounds_.push_back(std::move(rec));
        }
    }

    /// Keeps the first result per (triple, app); later rounds on the same
    /// triple must reproduce it bit for bit.
    void record(unsigned triple, std::size_t app, JobResult result) {
        ++attempted_;
        std::optional<JobResult>& first = first_[triple][app];
        if (result.threw) {
            ++failed_;
            problems_.push_back(std::string(apps_[app]->name()) + ": " + result.error);
            if (!first) first = std::move(result);
            return;
        }
        if (!first) {
            first = std::move(result);
        } else if (!same_bits(*first, result)) {
            ++failed_;
            problems_.push_back(std::string(apps_[app]->name()) +
                                ": a repeated round on the same inputs gave different bits");
            return;
        }
        ++verified_jobs_[triple][app];
    }

    /// Outside the timed section: every tuned binding is re-checked on the
    /// verification engines, cast-aware energies against a direct
    /// simulation. A failed check fails every job that produced the result.
    void verify(RunOutcome& out) {
        Digest digest;
        for (unsigned j = 0; j < kTriplesPerRun; ++j) {
            for (std::size_t a = 0; a < apps_.size(); ++a) {
                const std::optional<JobResult>& r = first_[j][a];
                if (!r || r->threw) continue;
                const std::string name(apps_[a]->name());
                std::vector<std::string> bad;
                const auto meets = [&](const TypeConfig& c, double eps) {
                    for (const unsigned set : triples_[j]) {
                        if (!verifiers_[a]->meets(set, c, eps)) {
                            bad.push_back(fmt("binding misses epsilon %g on input set %u", eps, set));
                        }
                    }
                };
                digest.add(name).add(static_cast<std::uint64_t>(j));
                if (cast_) {
                    const CastAwareResult& c = *r->cast;
                    meets(c.config, kCastEpsilon);
                    if (c.tuned_energy_pj > c.base_energy_pj) bad.emplace_back("tuned energy above base");
                    const tp::tuning::CastAwareOptions defaults;
                    const tp::sim::RunReport direct =
                        simulate_directly(*apps_[a], defaults.cost_input_set, c.config, defaults.simd);
                    if (direct.energy.total() != c.tuned_energy_pj || direct.casts != c.tuned_casts) {
                        bad.emplace_back("reported energy/casts differ from a direct simulation");
                    }
                    digest_result(digest, c.base);
                    digest_config(digest, c.config);
                    digest.add(c.base_energy_pj).add(c.tuned_energy_pj);
                    digest.add(c.base_casts).add(c.tuned_casts);
                    digest.add(static_cast<std::uint64_t>(c.moves_accepted));
                    digest_report(digest, direct);
                } else {
                    if (r->sweep.size() != kSweepEpsilons.size()) bad.emplace_back("wrong result count");
                    for (std::size_t k = 0; k < r->sweep.size() && k < kSweepEpsilons.size(); ++k) {
                        if (r->sweep[k].epsilon != kSweepEpsilons[k]) bad.emplace_back("wrong epsilon");
                        meets(r->sweep[k].type_config(), kSweepEpsilons[k]);
                        digest_result(digest, r->sweep[k]);
                    }
                }
                if (!bad.empty()) {
                    failed_ += verified_jobs_[j][a];
                    for (const std::string& b : bad) problems_.push_back(name + ": " + b);
                }
            }
        }
        out.notes.push_back("digest: " + digest.hex());
    }

    void summarize(RunOutcome& out) {
        out.attempted = attempted_;
        out.failed = failed_;
        for (const std::string& p : problems_) out.fail(p);
        // The four triples differ in cost, and a run's rounds do not split
        // evenly between them, so a median over all rounds (or over all of
        // an app's jobs) falls between two triples' clusters and jumps from
        // run to run. Each figure is therefore the median per triple,
        // averaged over the triples; every run covers all of them.
        std::vector<std::vector<double>> round_s(kTriplesPerRun), wall_round_s(kTriplesPerRun);
        std::vector<std::vector<std::vector<double>>> job_ms(
            apps_.size(), std::vector<std::vector<double>>(kTriplesPerRun));
        for (const RoundRecord& r : rounds_) {
            if (r.traced) continue;
            round_s[r.triple].push_back(r.norm_s());
            wall_round_s[r.triple].push_back(r.wall_s());
            for (std::size_t a = 0; a < r.job_norm_s.size(); ++a) {
                job_ms[a][r.triple].push_back(ms(r.job_norm_s[a]));
                e2e_.lat_ms.push_back(ms(r.job_norm_s[a]));
            }
        }
        e2e_.round_s = mean_of_medians(round_s);
        e2e_.lat_ms_p95 = percentile(e2e_.lat_ms, kTailPercentile);
        std::vector<double> app_ms;
        std::string app_line = "job times per app (ms, triple medians averaged):";
        for (std::size_t a = 0; a < job_ms.size(); ++a) {
            app_ms.push_back(mean_of_medians(job_ms[a]));
            app_line += fmt(" %s %.3f", std::string(apps_[a]->name()).c_str(), app_ms.back());
        }
        out.notes.push_back(app_line);
        e2e_.job_ms_geomean = geomean(app_ms);
        // Job times cluster by app, so the median job falls where two apps'
        // clusters meet (iir and pca) and jumped by a third between runs
        // whose rounds differed by a sixth. The mean job of a round does not.
        e2e_.lat_ms_p50 = ms(e2e_.round_s) / static_cast<double>(apps_.size());
        // Every job of a closed loop is one request of its class.
        e2e_.sweep_lat_s_p50 = e2e_.lat_ms_p50 * 1e-3;
        // A closed loop has no latency limit: the fraction is of jobs that
        // completed and verified.
        e2e_.slo_met_frac = attempted_ == 0 ? 0.0
                                            : static_cast<double>(attempted_ - failed_) /
                                                  static_cast<double>(attempted_);
        out.notes.push_back(fmt("rounds: %zu (%zu untraced), jobs attempted %llu, failed %llu",
                                rounds_.size(), e2e_.lat_ms.size() / apps_.size(),
                                static_cast<unsigned long long>(attempted_),
                                static_cast<unsigned long long>(failed_)));
        out.notes.push_back(fmt("host gauge: median %.3f ms (nominal %.3f ms); wall round_s %.6f s",
                                ms(median(gauge_s_)), ms(HostGauge::kNominalS),
                                mean_of_medians(wall_round_s)));
    }

    const RunConfig& config_;
    const bool cast_;
    std::vector<std::vector<unsigned>> triples_;
    std::vector<std::unique_ptr<App>> apps_;
    std::vector<std::unique_ptr<EvalEngine>> verifiers_;
    std::vector<std::shared_ptr<RunTally>> tallies_;
    std::vector<std::unique_ptr<TimedApp>> timed_apps_;
    std::vector<std::vector<std::optional<JobResult>>> first_;
    std::vector<std::vector<std::uint64_t>> verified_jobs_; // by triple, app
    HostGauge gauge_;
    std::vector<double> gauge_s_; // every gauge read between jobs
    std::vector<RoundRecord> rounds_;
    std::vector<double> gaps_ms_; // client bookkeeping between jobs, gauge reads excluded
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
    EndToEnd e2e_;

    EvalStats last_stats_;
    std::size_t last_cache_bytes_ = 0;
    EvalStats round0_stats_;
    std::size_t round0_cache_bytes_max_ = 0;
};

// --- service ----------------------------------------------------------------

// Interactive and cast-aware requests tune on the standard input sets, so
// their work does not depend on the seed; sweeps get seed-derived sets.
const std::vector<unsigned> kServiceSets{0, 1, 2};

tp::tuning::TuningService::Options service_options() {
    tp::tuning::TuningService::Options o;
    o.threads = kServiceWorkers;
    o.max_queued_per_class = kServiceClassCap;
    o.aging_quantum = kAgingQuantum;
    o.deadline_admission = true;
    return o;
}

Clock::time_point due_time(Clock::time_point start, const Arrival& a) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.due_s));
}

/// What one pass over the schedule observed.
struct ServicePass {
    Clock::time_point start;
    std::vector<tp::tuning::TicketHandle> tickets; // invalid when rejected
    std::vector<Clock::time_point> submitted;
    std::vector<double> lag_ms;
    std::vector<double> queue_depth;
    double makespan_s = 0.0;
    double peak_rss_mb = 0.0;
    tp::tuning::AdmissionStats admission;
    std::vector<std::pair<Clock::time_point, double>> gauge_reads; // (end, seconds)
    EvalStats engine_stats;
    std::size_t cache_bytes = 0;
    std::size_t cache_bytes_max = 0;
    std::map<std::string, std::uint64_t> kernel_runs;
};

tp::tuning::Request to_request(const Arrival& a, Clock::time_point due) {
    tp::tuning::Request req;
    switch (a.kind) {
    case RequestKind::kInteractive: {
        tp::tuning::TuningRequest t;
        t.app = a.app;
        t.epsilon = a.epsilon;
        t.input_sets = a.input_sets;
        req.work = t;
        req.priority = tp::tuning::Priority::kInteractive;
        req.deadline = due + kInteractiveDeadline;
        break;
    }
    case RequestKind::kSweep: {
        tp::tuning::SweepRequest s;
        s.app = a.app;
        s.epsilons = kSweepEpsilons;
        s.input_sets = a.input_sets;
        req.work = s;
        req.priority = tp::tuning::Priority::kSweep;
        break;
    }
    case RequestKind::kCastAware: {
        tp::tuning::CastAwareRequest c;
        c.app = a.app;
        c.options.search.epsilon = a.epsilon;
        c.options.search.input_sets = a.input_sets;
        req.work = c;
        req.priority = tp::tuning::Priority::kNormal;
        break;
    }
    }
    return req;
}

ServicePass run_schedule(tp::tuning::TuningService& service, const std::vector<Arrival>& schedule,
                         HostGauge& gauge) {
    ServicePass pass;
    pass.tickets.resize(schedule.size());
    pass.submitted.resize(schedule.size());
    pass.start = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Clock::time_point due = due_time(pass.start, schedule[i]);
        // Sleep to just before the due time, then spin: on a busy host a
        // sleeping thread wakes late, and the lateness would count against
        // the service.
        std::this_thread::sleep_until(due - kGeneratorSpin);
        while (Clock::now() < due) {
        }
        const Clock::time_point now = Clock::now();
        pass.lag_ms.push_back(ms(seconds_between(due, now)));
        pass.queue_depth.push_back(static_cast<double>(service.queued()));
        pass.submitted[i] = now;
        try {
            pass.tickets[i] = service.submit(to_request(schedule[i], due));
        } catch (const tp::tuning::RequestRejected&) {
            // Counted by admission_stats(); the request stays invalid.
        }
        const Clock::time_point after = Clock::now();
        const bool idle = i + 1 == schedule.size() ||
                          due_time(pass.start, schedule[i + 1]) - after >= kGaugeGap;
        if (idle && (pass.gauge_reads.empty() || after - pass.gauge_reads.back().first >= kGaugeEvery)) {
            const double g = gauge.measure();
            pass.gauge_reads.emplace_back(Clock::now(), g);
        }
    }
    Clock::time_point last = pass.start;
    for (const tp::tuning::TicketHandle& t : pass.tickets) {
        if (!t.valid()) continue;
        t.wait();
        last = std::max(last, t.completed_at());
    }
    pass.makespan_s = seconds_between(pass.start, last);
    pass.peak_rss_mb = peak_rss_mb();
    pass.admission = service.admission_stats();
    pass.engine_stats = service.stats();
    for (const std::string& app : kServiceApps) {
        EvalEngine& engine = service.engine(app);
        pass.cache_bytes += engine.cache_bytes();
        pass.cache_bytes_max = std::max(pass.cache_bytes_max, engine.cache_bytes());
        pass.kernel_runs[app] = engine.stats().kernel_runs;
    }
    return pass;
}

/// Reference bits for every distinct request of a schedule, from direct
/// calls: one verification engine per app, apps spread over `threads`
/// threads (verification is outside the timed pass).
class DirectReference {
public:
    DirectReference(const std::vector<Arrival>& schedule, unsigned threads) {
        for (const Arrival& a : schedule) per_app_[a.app].todo.push_back(&a);
        std::vector<AppRefs*> apps;
        for (auto& [name, refs] : per_app_) apps.push_back(&refs);
        std::atomic<std::size_t> next{0};
        const auto work = [&apps, &next] {
            for (std::size_t i = next++; i < apps.size(); i = next++) apps[i]->compute();
        };
        std::vector<std::jthread> pool;
        for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
        work();
    }

    /// Null when the direct call threw (its message is in error()).
    [[nodiscard]] const tp::tuning::RequestResult* get(const Arrival& a) const {
        const AppRefs& refs = per_app_.at(a.app);
        const auto it = refs.results.find(key_of(a));
        return it == refs.results.end() ? nullptr : &it->second;
    }
    [[nodiscard]] const std::string& error(const Arrival& a) const {
        return per_app_.at(a.app).error;
    }

private:
    static std::string key_of(const Arrival& a) {
        std::string k = fmt("%d/%.17g", static_cast<int>(a.kind), a.epsilon);
        for (const unsigned s : a.input_sets) k += fmt("/%u", s);
        return k;
    }

    struct AppRefs {
        std::vector<const Arrival*> todo;
        std::map<std::string, tp::tuning::RequestResult> results;
        std::string error;

        void compute() {
            try {
                EvalEngine engine{*tp::apps::make_app(todo.front()->app), EvalEngine::Options{}};
                for (const Arrival* a : todo) {
                    const std::string key = key_of(*a);
                    if (!results.contains(key)) results.emplace(key, direct(engine, *a));
                }
            } catch (const std::exception& e) {
                error = e.what();
            }
        }
    };

    static tp::tuning::RequestResult direct(EvalEngine& engine, const Arrival& a) {
        switch (a.kind) {
        case RequestKind::kInteractive: {
            tp::tuning::SearchOptions o;
            o.epsilon = a.epsilon;
            o.input_sets = a.input_sets;
            return tp::tuning::distributed_search(engine, o);
        }
        case RequestKind::kSweep: {
            tp::tuning::SearchOptions o;
            o.input_sets = a.input_sets;
            return tp::tuning::sweep_search(engine, o, kSweepEpsilons);
        }
        case RequestKind::kCastAware: {
            tp::tuning::CastAwareOptions o;
            o.search.epsilon = a.epsilon;
            o.search.input_sets = a.input_sets;
            return tp::tuning::cast_aware_search(engine, o);
        }
        }
        throw std::logic_error("unknown request kind");
    }

    std::map<std::string, AppRefs> per_app_; // by app name; fixed before threads start
};

bool same_result(const tp::tuning::RequestResult& got, const tp::tuning::RequestResult& want) {
    if (got.index() != want.index()) return false;
    if (const auto* c = std::get_if<CastAwareResult>(&got)) {
        return same_cast(*c, std::get<CastAwareResult>(want));
    }
    if (const auto* r = std::get_if<TuningResult>(&got)) return *r == std::get<TuningResult>(want);
    return std::get<std::vector<TuningResult>>(got) == std::get<std::vector<TuningResult>>(want);
}

void digest_request_result(Digest& d, const tp::tuning::RequestResult& r) {
    if (const auto* t = std::get_if<TuningResult>(&r)) {
        digest_result(d, *t);
    } else if (const auto* c = std::get_if<CastAwareResult>(&r)) {
        digest_result(d, c->base);
        digest_config(d, c->config);
        d.add(c->base_energy_pj).add(c->tuned_energy_pj).add(c->base_casts).add(c->tuned_casts);
        d.add(static_cast<std::uint64_t>(c->moves_accepted));
    } else {
        for (const TuningResult& t : std::get<std::vector<TuningResult>>(r)) digest_result(d, t);
    }
}

const char* kind_name(RequestKind k) {
    switch (k) {
    case RequestKind::kInteractive: return "request.interactive";
    case RequestKind::kSweep: return "request.sweep";
    case RequestKind::kCastAware: return "request.cast_aware";
    }
    return "request";
}

class ServiceLoop {
public:
    explicit ServiceLoop(const RunConfig& config) : config_(config) {}

    RunOutcome run() {
        RunOutcome out;
        schedule_ = make_schedule(config_.seed, kServiceRate, config_.seconds);
        const std::vector<unsigned>& sets = kServiceSets;
        // Set-up constructs the service and its per-app engines and computes
        // their golden outputs for the interactive input sets. The trial
        // caches start empty; the first kWarmupS seconds of arrivals fill
        // them and are left out of the latency metrics.
        std::unique_ptr<tp::tuning::TuningService> service;
        HostGauge gauge;
        const double setup_s = timed_setup(gauge, [&service, &sets] {
            service.reset();
            service = std::make_unique<tp::tuning::TuningService>(service_options());
            for (const std::string& app : kServiceApps) {
                for (const unsigned set : sets) (void)service->engine(app).golden(set);
            }
        });

        const ServicePass pass = run_schedule(*service, schedule_, gauge);
        service.reset();
        EndToEnd e2e = summarize(pass, out);
        e2e.setup_s = setup_s;
        verify(pass, out);
        if (!config_.trace) {
            e2e.emit(out);
            for (const std::string& l : e2e.lines("end-to-end:", out)) out.notes.push_back(l);
            return out;
        }

        // Spans are rebuilt from the pass's own timestamps after it ends
        // (due -> submit -> completion per request), so tracing adds nothing
        // inside the pass: trace.overhead_frac is 0 by construction.
        SpanLog log;
        for (std::size_t i = 0; i < schedule_.size(); ++i) {
            const auto id = static_cast<std::int64_t>(i);
            const Clock::time_point due = due_time(pass.start, schedule_[i]);
            const tp::tuning::TicketHandle& t = pass.tickets[i];
            const Clock::time_point end = t.valid() ? t.completed_at() : pass.submitted[i];
            const int root = log.add(kind_name(schedule_[i].kind), due, end, -1, id);
            log.add("gen.submit_lag", due, pass.submitted[i], root, id);
            if (t.valid()) log.add("service.ticket", t.submitted_at(), t.completed_at(), root, id);
        }

        const int probe_root = log.open("probes");
        LayerInputs inputs;
        inputs.input_sets = sets;
        inputs.epsilon = kProbeEpsilon;
        for (std::size_t i = 0; i < schedule_.size(); ++i) {
            const Arrival& a = schedule_[i];
            const tp::tuning::TicketHandle& t = pass.tickets[i];
            if (a.kind != RequestKind::kInteractive || a.epsilon != kProbeEpsilon || !t.valid() ||
                t.status() != tp::tuning::RequestStatus::kDone) {
                continue;
            }
            auto& configs = inputs.configs[a.app];
            if (configs.empty()) configs.push_back(t.search_result().type_config());
        }
        const LayerReport layers = probe_layers(inputs, &log, probe_root, out);
        log.close(probe_root);
        emit_layer_metrics(layers, out);
        add_engine_metrics(pass.engine_stats, pass.cache_bytes_max, out);
        // No App seam reaches inside the service's engines, so the kernel
        // share is estimated: kernel runs at the probed untraced unit cost.
        double kernel_s = 0.0;
        for (const auto& [app, runs] : pass.kernel_runs) {
            kernel_s += static_cast<double>(runs) * layers.units.at(app).untraced_us * 1e-6;
        }
        out.set("kernel.share", kernel_s / pass.makespan_s, "frac");
        out.set("sim.capture_share", 0.0, "frac");
        out.set("service.queue_depth_p50", median(pass.queue_depth), "count");
        out.set("service.queue_depth_max",
                *std::max_element(pass.queue_depth.begin(), pass.queue_depth.end()), "count");
        out.set("service.admitted", static_cast<double>(pass.admission.admitted), "count");
        out.set("service.rejected_queue_full",
                static_cast<double>(pass.admission.rejected_queue_full), "count");
        out.set("service.rejected_deadline",
                static_cast<double>(pass.admission.rejected_deadline), "count");
        out.set("service.expired",
                static_cast<double>(count_status(pass, tp::tuning::RequestStatus::kExpired)),
                "count");
        EvalStats ticket_stats;
        for (const tp::tuning::TicketHandle& t : pass.tickets) {
            if (t.valid()) ticket_stats += t.stats();
        }
        out.set("service.hit_rate", ticket_stats.hit_rate(), "frac");
        out.set("service.cache_bytes", static_cast<double>(pass.cache_bytes), "bytes");
        out.set("gen.lag_ms_p99", percentile(pass.lag_ms, 99.0), "ms");
        out.set("trace.overhead_frac", 0.0, "frac");
        out.set("lat.samples", static_cast<double>(e2e.lat_ms.size()), "count");
        out.set("fail_frac", fail_frac(out), "frac");
        write_trace(log, config_.trace_out, out);
        for (const std::string& l : e2e.lines("end-to-end (the same pass):", out)) {
            out.notes.push_back(l);
        }
        return out;
    }

private:
    static std::size_t count_status(const ServicePass& pass, tp::tuning::RequestStatus s) {
        std::size_t n = 0;
        for (const tp::tuning::TicketHandle& t : pass.tickets) n += t.valid() && t.status() == s;
        return n;
    }

    EndToEnd summarize(const ServicePass& pass, RunOutcome& out) const {
        EndToEnd e2e;
        // Once a worker has a request it computes: an interactive search
        // replays a few hundred cached trials, a sweep runs cold. Both slow
        // with the host as the closed loops' jobs do, so latencies are
        // stated in nominal-host time, scaled by the median of the
        // generator's gauge reads. The latency limit applies to wall time.
        std::vector<double> gauge_s;
        for (const auto& [at, g] : pass.gauge_reads) gauge_s.push_back(g);
        const double factor = HostGauge::factor(median(gauge_s));
        std::map<std::string, std::vector<double>> per_app, sweeps_per_app;
        std::vector<double> wall_lat_ms;
        std::size_t interactive = 0;
        std::size_t met = 0;
        std::size_t sweeps = 0;
        for (std::size_t i = 0; i < schedule_.size(); ++i) {
            const Arrival& a = schedule_[i];
            if (a.due_s < kWarmupS) continue;
            const tp::tuning::TicketHandle& t = pass.tickets[i];
            const bool done = t.valid() && t.status() == tp::tuning::RequestStatus::kDone;
            const double latency_s =
                done ? seconds_between(due_time(pass.start, a), t.completed_at()) : 0.0;
            if (a.kind == RequestKind::kInteractive) {
                ++interactive;
                if (!done) continue; // refused, expired or failed: a miss
                wall_lat_ms.push_back(ms(latency_s));
                e2e.lat_ms.push_back(ms(latency_s) * factor);
                per_app[a.app].push_back(e2e.lat_ms.back());
                met += ms(latency_s) <= kSloMs;
            } else if (a.kind == RequestKind::kSweep && done) {
                sweeps_per_app[a.app].push_back(latency_s * factor);
                ++sweeps;
            }
        }
        if (!tail_is_supported(e2e.lat_ms.size(), kTailPercentile)) {
            out.fail(fmt("only %zu interactive latencies after warm-up; p95 needs at least 200",
                         e2e.lat_ms.size()));
        }
        if (sweeps_per_app.empty() || per_app.size() != kServiceApps.size()) {
            out.fail("the schedule left a request class or app without completed requests");
            e2e.lat_ms.push_back(0.0);
            wall_lat_ms.push_back(0.0);
            sweeps_per_app["none"].push_back(0.0);
        }
        // A host stall that covers a few percent of the pass moves the
        // whole-run p95; the median of the p95s of consecutive windows of
        // kTailWindow arrivals (ten samples beyond each) does not.
        e2e.lat_ms_p95 = windowed_percentile(e2e.lat_ms, kTailPercentile, kTailWindow);
        // One pass over the schedule is the service's round.
        e2e.round_s = pass.makespan_s;
        std::vector<double> app_medians;
        for (const auto& [app, xs] : per_app) app_medians.push_back(median(xs));
        e2e.job_ms_geomean = app_medians.empty() ? 0.0 : geomean(app_medians);
        // Sweep latencies cluster by app, and the median of all of them
        // falls where two apps' clusters meet; the mean of the apps'
        // medians does not jump between them.
        std::vector<std::vector<double>> sweep_groups;
        for (auto& [app, xs] : sweeps_per_app) sweep_groups.push_back(std::move(xs));
        e2e.sweep_lat_s_p50 = mean_of_medians(sweep_groups);
        e2e.lat_ms_p50 = median(e2e.lat_ms);
        e2e.slo_met_frac =
            interactive == 0 ? 0.0 : static_cast<double>(met) / static_cast<double>(interactive);
        e2e.peak_rss_mb = pass.peak_rss_mb;
        out.notes.push_back(fmt(
            "arrivals %zu at %.0f/s (interactive after warm-up %zu, sweeps %zu), admitted %llu, "
            "rejected: queue full %llu, deadline %llu; generator lag p99 %.3f ms; queue depth max %.0f",
            schedule_.size(), kServiceRate, interactive, sweeps,
            static_cast<unsigned long long>(pass.admission.admitted),
            static_cast<unsigned long long>(pass.admission.rejected_queue_full),
            static_cast<unsigned long long>(pass.admission.rejected_deadline),
            percentile(pass.lag_ms, 99.0),
            *std::max_element(pass.queue_depth.begin(), pass.queue_depth.end())));
        out.notes.push_back(fmt("host gauge: %zu reads, median %.3f ms (nominal %.3f ms); wall "
                                "interactive latency p50 %.4f ms, windowed p95 %.4f ms",
                                gauge_s.size(), ms(median(gauge_s)), ms(HostGauge::kNominalS),
                                median(wall_lat_ms),
                                windowed_percentile(wall_lat_ms, kTailPercentile, kTailWindow)));
        return e2e;
    }

    /// Every completed result against the direct call it must equal bit
    /// for bit; each rejected, expired or failed request counts as failed.
    void verify(const ServicePass& pass, RunOutcome& out) const {
        const DirectReference reference(schedule_, kVerifyThreads);
        Digest digest;
        std::uint64_t failed = 0;
        for (std::size_t i = 0; i < schedule_.size(); ++i) {
            const Arrival& a = schedule_[i];
            const tp::tuning::TicketHandle& t = pass.tickets[i];
            if (!t.valid() || t.status() != tp::tuning::RequestStatus::kDone) {
                ++failed;
                digest.add("not done");
                continue;
            }
            const tp::tuning::RequestResult& got = t.get();
            digest_request_result(digest, got);
            const tp::tuning::RequestResult* want = reference.get(a);
            if (want == nullptr) {
                ++failed;
                out.fail(fmt("request %zu (%s): the direct call threw: %s", i, a.app.c_str(),
                             reference.error(a).c_str()));
            } else if (!same_result(got, *want)) {
                ++failed;
                out.fail(fmt("request %zu (%s) differs from the direct call", i, a.app.c_str()));
            }
        }
        out.attempted += schedule_.size();
        out.failed += failed;
        out.notes.push_back("digest: " + digest.hex());
    }

    const RunConfig& config_;
    std::vector<Arrival> schedule_;
};

} // namespace

std::vector<unsigned> closed_loop_triple(std::uint64_t seed, unsigned j) {
    const auto m = static_cast<unsigned>((seed + j) % kTriplesPerRun);
    return {3 * m, 3 * m + 1, 3 * m + 2};
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate, double seconds) {
    if (!(rate > 0.0) || !(seconds > 0.0)) throw std::invalid_argument("rate and seconds must be positive");
    SeededRng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EB1CE);
    std::vector<RequestKind> kind_deck;
    kind_deck.insert(kind_deck.end(), kKindDeckInteractive, RequestKind::kInteractive);
    kind_deck.insert(kind_deck.end(), kKindDeckSweep, RequestKind::kSweep);
    kind_deck.insert(kind_deck.end(), kKindDeckCast, RequestKind::kCastAware);
    // A deck draws without replacement and reshuffles when exhausted.
    struct Deck {
        explicit Deck(std::size_t n) : size(n) {}
        std::size_t size;
        std::vector<std::size_t> order;
        std::size_t next = 0;
        std::size_t draw(SeededRng& r) {
            if (next == order.size()) {
                order = r.permutation(size);
                next = 0;
            }
            return order[next++];
        }
    };
    Deck kinds{kind_deck.size()};
    Deck interactive{kServiceApps.size() * kSweepEpsilons.size()};
    Deck sweeps{kServiceApps.size()};
    Deck casts{kCastServiceApps.size()};
    std::vector<Arrival> schedule;
    std::vector<unsigned> sweeps_of_app(kServiceApps.size(), 0);
    for (double t = rng.exponential(rate); t < seconds; t += rng.exponential(rate)) {
        Arrival a;
        a.due_s = t;
        a.kind = kind_deck[kinds.draw(rng)];
        switch (a.kind) {
        case RequestKind::kInteractive: {
            const std::size_t k = interactive.draw(rng);
            a.app = kServiceApps[k / kSweepEpsilons.size()];
            a.epsilon = kSweepEpsilons[k % kSweepEpsilons.size()];
            a.input_sets = kServiceSets;
            break;
        }
        case RequestKind::kSweep: {
            // Bulk work stays cold: every sweep tunes on input sets no
            // other request uses. An app's j-th sweep gets the same sets
            // under every seed, so runs differ in timing and order, not in
            // the sweeps' inputs (whose cost varies from set to set).
            const std::size_t app = sweeps.draw(rng);
            a.app = kServiceApps[app];
            const auto m = static_cast<unsigned>(1'000'000U + app * 4096U + sweeps_of_app[app]++);
            a.input_sets = {3 * m, 3 * m + 1, 3 * m + 2};
            break;
        }
        case RequestKind::kCastAware:
            a.app = kCastServiceApps[casts.draw(rng)];
            a.epsilon = kCastEpsilon;
            a.input_sets = kServiceSets;
            break;
        }
        schedule.push_back(std::move(a));
    }
    return schedule;
}

RunOutcome run_workload(const RunConfig& config) {
    try {
        if (config.workload == "tune_sweep") return ClosedLoop(config, false).run();
        if (config.workload == "cast_aware") return ClosedLoop(config, true).run();
        if (config.workload == "service") return ServiceLoop(config).run();
        RunOutcome out;
        out.fail("unknown workload '" + config.workload + "'");
        return out;
    } catch (const std::exception& e) {
        RunOutcome out;
        out.fail(std::string("run aborted: ") + e.what());
        return out;
    }
}

} // namespace perfbench
