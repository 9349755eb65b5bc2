#include "gauge.hpp"

#include <map>
#include <vector>

#include "report.hpp"

namespace perfbench {
namespace {

constexpr int kRounds = 8;
constexpr std::uint64_t kKeys = 3000;

// The result is folded in here, so the work cannot be optimized away.
volatile std::uint64_t g_sink = 0;

} // namespace

double HostGauge::measure() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int r = 0; r < kRounds; ++r) {
        std::map<std::uint64_t, std::vector<double>> m;
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            std::vector<double>& row = m[k * 2654435761ULL];
            row.assign(8 + k % 24, 1.0);
            acc += row.size();
        }
        for (std::uint64_t k = 0; k < 2 * kKeys; ++k) acc += m.count(k * 2654435761ULL);
    }
    g_sink = g_sink + acc;
    return seconds_between(t0, Clock::now());
}

} // namespace perfbench
