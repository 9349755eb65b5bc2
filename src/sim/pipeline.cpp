#include "sim/pipeline.hpp"

#include "sim/platform.hpp"

namespace tp::sim {

PipelineResult run_pipeline(const TraceProgram& program, int addr_ops_per_access) {
    const RunReport report = simulate(program, fpu::default_energy_model(),
                                      CoreParams{addr_ops_per_access});
    return PipelineResult{report.cycles, report.stall_cycles, report.issue_slots};
}

} // namespace tp::sim
