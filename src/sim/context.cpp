#include "sim/context.hpp"

namespace tp::sim {

void TpContext::feed_cost() {
    cost_->feed(trace_);
    trace_.clear();
}

TraceProgram TpContext::take_program(bool apply_simd) {
    assert(cost_ == nullptr && "a cost-mode context stores no trace");
    TraceProgram program;
    program.instrs = std::move(trace_);
    program.value_count = value_count_;
    program.values = std::move(values_);
    program.output_taps = std::move(taps_);
    trace_ = Trace{};
    values_.clear();
    taps_.clear();
    value_count_ = 0;
    // With no vectorizable instruction the pass would copy the trace
    // unchanged, so only traces that entered a vector region run it.
    if (apply_simd && any_vectorizable_) vectorize(program);
    any_vectorizable_ = false;
    return program;
}

RunReport TpContext::take_report() {
    assert(cost_ != nullptr && "take_report needs a cost-mode context");
    feed_cost();
    RunReport report = cost_->finish();
    cost_ = std::make_unique<CostStream>(cost_->simd());
    value_count_ = 0;
    return report;
}

} // namespace tp::sim
