#include "sim/context.hpp"

namespace tp::sim {

void TpContext::hand_on() {
    sink_->feed(trace_, values_, taps_);
    trace_.clear();
    values_.clear();
    taps_.clear();
}

void TpContext::flush() {
    assert(sink_mode_ && "flush needs a sink-mode context");
    hand_on();
}

TraceProgram TpContext::take_program(bool apply_simd) {
    assert(sink_ == nullptr && "cost and sink mode store no trace");
    TraceProgram program;
    program.instrs = std::move(trace_);
    program.value_count = value_count_;
    trace_ = Trace{};
    value_count_ = 0;
    // With no vectorizable instruction the pass would copy the trace
    // unchanged, so only traces that entered a vector region run it.
    if (apply_simd && any_vectorizable_) vectorize(program);
    any_vectorizable_ = false;
    return program;
}

RunReport TpContext::take_report() {
    assert(cost_ != nullptr && "take_report needs a cost-mode context");
    hand_on();
    RunReport report = cost_->finish();
    cost_ = std::make_unique<CostStream>(cost_->simd());
    sink_ = cost_.get();
    value_count_ = 0;
    return report;
}

} // namespace tp::sim
