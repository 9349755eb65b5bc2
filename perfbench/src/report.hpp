// Measurement plumbing shared by the workloads, the layer probes and the
// self-tests: order statistics, the result digest, the seeded random
// source, in-memory spans with a Chrome trace-event writer, and the
// metric table that becomes the final JSON line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// --- order statistics -------------------------------------------------------

/// Median (mean of the two middle values for an even count). Throws
/// std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

/// Percentile `p` in [0, 100] by linear interpolation between closest
/// ranks (the "R-7" rule numpy and Python's statistics module call
/// inclusive). Throws std::invalid_argument on an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Samples strictly beyond percentile `p` in a sample of `n`:
/// floor(n * (1 - p / 100)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The benchmark's reporting rule for a tail percentile: it is stated only
/// when at least ten samples lie beyond it (so p95 needs n >= 200).
[[nodiscard]] bool tail_is_supported(std::size_t n, double p);

/// Median over consecutive windows of `xs` (in its order) of each window's
/// percentile `p`. The sample splits into floor(n / min_window) windows of
/// equal size (+-1), each at least `min_window` long; with fewer than
/// `min_window` samples it is the plain percentile. Throws
/// std::invalid_argument on an empty sample or a zero window.
[[nodiscard]] double windowed_percentile(const std::vector<double>& xs, double p,
                                         std::size_t min_window);

/// Geometric mean of positive values. Throws std::invalid_argument on an
/// empty sample or a non-positive value.
[[nodiscard]] double geomean(const std::vector<double>& xs);

// --- result digest ----------------------------------------------------------

/// FNV-1a over a stream of words: every tuned bit and simulated statistic
/// a workload produces is folded in, so two builds that differ only in
/// speed print the same digest for the same seed.
class Digest {
public:
    Digest& add(std::uint64_t word);
    Digest& add(double value); // bit pattern, so -0.0 and NaN payloads count
    Digest& add(std::string_view text);
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

// --- seeded inputs ----------------------------------------------------------

/// The benchmark's only source of randomness. std::mt19937_64 is fully
/// specified by the standard, and the conversions below avoid the
/// implementation-defined standard distributions, so a seed yields the
/// same inputs with every standard library (exponential() goes through
/// std::log1p, so across C libraries an arrival time may move by an ulp).
class SeededRng {
public:
    explicit SeededRng(std::uint64_t seed) : engine_(seed) {}
    /// Uniform in [0, 1) with 53 random bits.
    double uniform();
    /// Uniform integer in [0, n) (n > 0), by rejection.
    std::uint64_t below(std::uint64_t n);
    /// Exponential with the given rate (inverse CDF).
    double exponential(double rate);
    /// Fisher-Yates shuffle of indices [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

private:
    std::mt19937_64 engine_;
};

// --- spans ------------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;            // index into the log; -1 for a root
    std::int64_t request = -1; // spans of one request or job share this id
};

/// In-memory span log: nothing is written until the run ends. Not
/// thread-safe — every span is opened on the benchmark's driving thread.
class SpanLog {
public:
    /// Opens a span and returns its index (for parent links and close()).
    int open(std::string name, int parent = -1, std::int64_t request = -1);
    void close(int index);
    /// A span whose start and end the caller measured itself (e.g. a
    /// service ticket's submit and completion timestamps).
    int add(std::string name, Clock::time_point start, Clock::time_point end,
            int parent = -1, std::int64_t request = -1);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

    /// Total duration and self time (duration minus the part covered by
    /// direct children) per span name, in seconds.
    struct Totals {
        double total_s = 0.0;
        double self_s = 0.0;
        std::size_t count = 0;
    };
    [[nodiscard]] std::map<std::string, Totals> totals() const;

    /// Chrome trace-event JSON ("X" complete events, microseconds since
    /// the first span; parent and request ids in args).
    [[nodiscard]] std::string chrome_trace() const;

private:
    std::vector<Span> spans_;
};

/// RAII span; a null log records nothing, so untraced code paths share the
/// traced ones.
class ScopedSpan {
public:
    ScopedSpan(SpanLog* log, std::string name, int parent = -1,
               std::int64_t request = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    [[nodiscard]] int index() const noexcept { return index_; }

private:
    SpanLog* log_;
    int index_ = -1;
};

// --- output -----------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// A run's outcome: the contract's final JSON line plus the human-readable
/// lines printed before it.
struct RunOutcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; // printed, one per line, before the JSON
    std::vector<std::string> problems; // correctness failures, printed too

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    /// Records a correctness failure (and marks the run incorrect).
    void fail(const std::string& what);

    [[nodiscard]] std::string json_line() const;
};

/// Decimal with 17 significant digits (all a double carries); non-finite
/// values become null.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_quote(std::string_view text);

/// Peak resident set size of this process in MB (getrusage), 0 if unknown.
[[nodiscard]] double peak_rss_mb();

} // namespace perfbench
