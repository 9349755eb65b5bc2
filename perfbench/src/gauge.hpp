// The host gauge: a fixed piece of work owned by the benchmark, timed next
// to every measured job so that timings can be stated in nominal-host
// seconds (README.md, "Host-normalized time").
//
// On a shared virtual machine the same build runs up to 1.6 times slower
// for minutes at a time. The gauge slows with the host but never with the
// library, so `wall time x kNominalS / gauge time` removes the host's speed
// and keeps the program's.
#pragma once

#include <cstdint>

namespace perfbench {

class HostGauge {
public:
    /// Roughly the gauge's time on the machine the benchmark was sized on
    /// (a shared 4-vCPU x86-64 virtual machine). Any constant would do: it
    /// only sets the scale of the normalized figures.
    static constexpr double kNominalS = 0.005;

    /// Seconds one pass of the fixed work takes now: building and probing
    /// ordered maps of small heap-allocated vectors. Of the candidates tried
    /// (README.md), this is the one whose time tracks the library's jobs
    /// one for one as the host's speed changes; tight arithmetic loops and
    /// a walk through main memory barely slow when the jobs do.
    [[nodiscard]] double measure();

    /// Factor that turns a wall time measured while the gauge read
    /// `gauge_s` into nominal-host seconds.
    [[nodiscard]] static double factor(double gauge_s) { return kNominalS / gauge_s; }
};

} // namespace perfbench
