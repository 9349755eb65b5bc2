#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
    if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
    if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile out of range");
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double p) {
    // Integer arithmetic in hundredths of a percent avoids 200 * 0.05
    // rounding to 9.999...
    const auto keep = static_cast<std::uint64_t>(std::llround((100.0 - p) * 100.0));
    return static_cast<std::size_t>(static_cast<std::uint64_t>(n) * keep / 10000U);
}

bool tail_is_supported(std::size_t n, double p) { return samples_beyond(n, p) >= 10; }

double windowed_percentile(const std::vector<double>& xs, double p, std::size_t min_window) {
    if (min_window == 0) throw std::invalid_argument("windowed percentile with a zero window");
    const std::size_t windows = std::max<std::size_t>(1, xs.size() / min_window);
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = xs.begin() + static_cast<std::ptrdiff_t>(w * xs.size() / windows);
        const auto end = xs.begin() + static_cast<std::ptrdiff_t>((w + 1) * xs.size() / windows);
        per_window.push_back(percentile(std::vector<double>(begin, end), p));
    }
    return median(per_window);
}

double geomean(const std::vector<double>& xs) {
    if (xs.empty()) throw std::invalid_argument("geomean of an empty sample");
    double log_sum = 0.0;
    for (const double x : xs) {
        if (!(x > 0.0)) throw std::invalid_argument("geomean of a non-positive value");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

Digest& Digest::add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
        h_ = (h_ ^ ((word >> (8 * byte)) & 0xFFU)) * 1099511628211ULL;
    }
    return *this;
}

Digest& Digest::add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return add(bits);
}

Digest& Digest::add(std::string_view text) {
    for (const char c : text) h_ = (h_ ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return add(static_cast<std::uint64_t>(text.size()));
}

std::string Digest::hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

double SeededRng::uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

std::uint64_t SeededRng::below(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("below(0)");
    const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                                std::numeric_limits<std::uint64_t>::max() % n;
    for (;;) {
        const std::uint64_t x = engine_();
        if (x < limit) return x % n;
    }
}

double SeededRng::exponential(double rate) {
    return -std::log1p(-uniform()) / rate;
}

std::vector<std::size_t> SeededRng::permutation(std::size_t n) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[below(i)]);
    return order;
}

int SpanLog::open(std::string name, int parent, std::int64_t request) {
    const Clock::time_point now = Clock::now();
    return add(std::move(name), now, now, parent, request);
}

void SpanLog::close(int index) {
    spans_.at(static_cast<std::size_t>(index)).end = Clock::now();
}

int SpanLog::add(std::string name, Clock::time_point start, Clock::time_point end,
                 int parent, std::int64_t request) {
    spans_.push_back(Span{std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            child_s[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
        }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double d = seconds_between(spans_[i].start, spans_[i].end);
        Totals& t = out[spans_[i].name];
        t.total_s += d;
        t.self_s += std::max(0.0, d - child_s[i]);
        ++t.count;
    }
    return out;
}

std::string SpanLog::chrome_trace() const {
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double ts = std::chrono::duration<double, std::micro>(s.start - origin).count();
        const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
        // Requests of the service overlap in time; one track per request
        // keeps the viewer's nesting correct.
        const std::int64_t tid = s.request >= 0 ? s.request + 1 : 0;
        os << (i == 0 ? "" : ",") << "{\"name\":" << json_quote(s.name)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << json_number(ts)
           << ",\"dur\":" << json_number(dur) << ",\"args\":{\"span\":" << i
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
    }
    os << "]}\n";
    return os.str();
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, int parent, std::int64_t request)
    : log_(log) {
    if (log_ != nullptr) index_ = log_->open(std::move(name), parent, request);
}

ScopedSpan::~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
}

void RunOutcome::fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string json_quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string RunOutcome::json_line() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        os << (first ? "" : ", ") << json_quote(name) << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_quote(m.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double peak_rss_mb() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux: kB
}

} // namespace perfbench
