// Self-tests of the benchmark's own measurement code: the percentile and
// sample-count rule, the windowed tail, the host gauge, the seeded arrival
// schedule, the result digest, span self time and the trace format, and the
// result line.
// Exit code 0 when every check passes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "gauge.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void test_percentiles() {
    using perfbench::percentile;
    check(near(perfbench::median({3, 1, 2}), 2.0), "median of odd sample");
    check(near(perfbench::median({4, 1, 3, 2}), 2.5), "median of even sample");
    // R-7: rank p/100 * (n - 1), linear between neighbours.
    check(near(percentile({1, 2, 3, 4, 5}, 95.0), 4.8), "p95 interpolates between ranks");
    check(near(percentile({10}, 95.0), 10.0), "percentile of one sample");
    check(near(percentile({5, 1}, 0.0), 1.0) && near(percentile({5, 1}, 100.0), 5.0),
          "percentile end points");
    bool threw = false;
    try {
        (void)percentile({}, 50.0);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    check(threw, "empty sample throws");

    check(perfbench::samples_beyond(200, 95.0) == 10, "200 samples leave 10 beyond p95");
    check(perfbench::samples_beyond(199, 95.0) == 9, "199 samples leave 9 beyond p95");
    check(perfbench::tail_is_supported(200, 95.0), "p95 is stated from 200 samples");
    check(!perfbench::tail_is_supported(199, 95.0), "p95 is not stated below 200 samples");
    check(perfbench::tail_is_supported(1000, 99.0) && !perfbench::tail_is_supported(999, 99.0),
          "p99 needs 1000 samples");
    check(near(perfbench::geomean({1, 100}), 10.0), "geomean");

    // 600 samples make three windows of 200; a stall that fills the middle
    // window's tail moves the whole-run p95 but not the windowed one.
    std::vector<double> lat(600, 1.0);
    for (std::size_t i = 0; i < 600; i += 10) lat[i] = 2.0;  // 10% tail: 2 ms
    for (std::size_t i = 200; i < 260; ++i) lat[i] = 50.0;   // a stall
    check(percentile(lat, 95.0) == 50.0, "a stall sets the whole-run p95");
    check(near(perfbench::windowed_percentile(lat, 95.0, 200), 2.0),
          "the windowed p95 ignores a stall in one window");
    check(near(perfbench::windowed_percentile({3, 1, 2}, 50.0, 200), 2.0),
          "fewer samples than a window give the plain percentile");
    check(near(perfbench::windowed_percentile({1, 2, 3, 10, 20, 30, 100, 200, 300}, 50.0, 3), 20.0),
          "windowed median of window medians");
}

void test_gauge() {
    perfbench::HostGauge gauge;
    const double a = gauge.measure();
    const double b = gauge.measure();
    check(a > 0.0 && b > 0.0, "the gauge takes time");
    check(near(perfbench::HostGauge::factor(2.0 * perfbench::HostGauge::kNominalS), 0.5),
          "a gauge twice its nominal time halves wall times");
}

void test_schedule() {
    using perfbench::make_schedule;
    // The benchmark's own rate over its shortest useful run.
    constexpr double kSeconds = 10.0;
    const auto a = make_schedule(7, perfbench::kServiceRate, kSeconds);
    const auto b = make_schedule(7, perfbench::kServiceRate, kSeconds);
    const auto c = make_schedule(8, perfbench::kServiceRate, kSeconds);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].due_s == b[i].due_s && a[i].kind == b[i].kind && a[i].app == b[i].app &&
               a[i].epsilon == b[i].epsilon && a[i].input_sets == b[i].input_sets;
    }
    check(same, "one seed gives one schedule");
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].due_s != c[i].due_s;
    check(differs, "another seed gives another schedule");

    std::size_t interactive = 0, sweeps = 0, casts = 0, after_warmup = 0;
    double last = 0.0;
    bool ordered = true;
    for (const auto& arrival : a) {
        ordered = ordered && arrival.due_s >= last && arrival.due_s < kSeconds;
        last = arrival.due_s;
        interactive += arrival.kind == perfbench::RequestKind::kInteractive;
        sweeps += arrival.kind == perfbench::RequestKind::kSweep;
        casts += arrival.kind == perfbench::RequestKind::kCastAware;
        after_warmup += arrival.kind == perfbench::RequestKind::kInteractive &&
                        arrival.due_s >= perfbench::kWarmupS;
    }
    check(ordered, "arrivals are ordered and inside the run");
    const double expected = perfbench::kServiceRate * kSeconds;
    check(static_cast<double>(a.size()) > 0.9 * expected &&
              static_cast<double>(a.size()) < 1.1 * expected,
          "arrival count near rate x seconds");
    // Decks draw without replacement, so the 29:2:1 mix holds to within
    // one deck of 32 arrivals.
    check(interactive + sweeps + casts == a.size(), "every arrival has a kind");
    check(std::abs(static_cast<double>(interactive) - 29.0 * a.size() / 32.0) <= 29.0 &&
              std::abs(static_cast<double>(sweeps) - 2.0 * a.size() / 32.0) <= 2.0 &&
              std::abs(static_cast<double>(casts) - 1.0 * a.size() / 32.0) <= 1.0,
          "deck mix 29:2:1");
    check(perfbench::tail_is_supported(after_warmup, 95.0),
          "enough interactive requests after warm-up for p95");
    check(perfbench::closed_loop_triple(0, 0) == std::vector<unsigned>{0, 1, 2},
          "default seed starts on input sets {0,1,2}");
}

void test_digest() {
    perfbench::Digest x, y, z;
    x.add(std::uint64_t{1}).add(2.5).add("pca");
    y.add(std::uint64_t{1}).add(2.5).add("pca");
    z.add(std::uint64_t{1}).add(2.5000000000000004).add("pca");
    check(x.value() == y.value(), "digest is deterministic");
    check(x.value() != z.value(), "digest sees one ulp");
    perfbench::Digest p, q;
    p.add("ab").add("c");
    q.add("a").add("bc");
    check(p.value() != q.value(), "digest separates strings");
    check(x.hex().size() == 16, "digest prints 16 hex digits");
}

void test_spans() {
    using perfbench::Clock;
    perfbench::SpanLog log;
    const Clock::time_point t0 = Clock::now();
    const auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
    const int root = log.add("round", at(0), at(100), -1, 7);
    log.add("job", at(10), at(40), root, 7);
    log.add("job", at(50), at(90), root, 7);
    const auto totals = log.totals();
    check(totals.at("round").count == 1 && totals.at("job").count == 2, "span counts");
    check(near(totals.at("round").total_s, 0.1) && near(totals.at("round").self_s, 0.03),
          "self time is duration minus direct children");
    check(near(totals.at("job").self_s, 0.07), "leaf self time is its duration");
    const std::string trace = log.chrome_trace();
    check(trace.find("\"name\":\"job\",\"ph\":\"X\"") != std::string::npos &&
              trace.find("\"parent\":0,\"request\":7") != std::string::npos,
          "Chrome trace events carry name, parent and request");
}

void test_json_line() {
    perfbench::RunOutcome out;
    out.attempted = 3;
    out.set("round_s", 1.25, "s");
    check(out.json_line() ==
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
              "{\"round_s\": {\"value\": 1.25, \"unit\": \"s\"}}}",
          "result line format");
    out.fail("x");
    check(!out.correct, "a failed check marks the run incorrect");
}

} // namespace

int main() {
    test_percentiles();
    test_gauge();
    test_schedule();
    test_digest();
    test_spans();
    test_json_line();
    std::printf("%s (%d failures)\n", failures == 0 ? "selftest passed" : "selftest FAILED",
                failures);
    return failures == 0 ? 0 : 1;
}
