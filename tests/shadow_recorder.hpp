// Test-side recorder for sink-mode runs: a sim::TraceSink that keeps what
// the library's analysis sink folds and drops — every instruction, value
// record and raw() readout of one run — so tests can inspect a run whole
// and replay verbatim copies of the stored-capture passes
// (test_analysis_reference.cpp). Also the value-level attribution helpers
// the range-enclosure checks use to map a rounded run's values onto
// signals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/signal_flow.hpp"
#include "apps/app.hpp"
#include "flexfloat/arith_backend.hpp"
#include "sim/context.hpp"
#include "sim/trace.hpp"

namespace tp::testing {

/// One sink-mode run, kept whole.
struct RecordedRun {
    sim::Trace instrs;
    std::vector<sim::ValueRecord> values; // indexed by value id
    std::vector<sim::OutputTap> taps;     // raw() readouts, in call order
    std::vector<double> output;           // App::run's return value
};

class Recorder final : public sim::TraceSink {
public:
    void feed(std::span<const sim::Instr> instrs,
              std::span<const sim::ValueRecord> values,
              std::span<const sim::OutputTap> taps) override {
        run.instrs.insert(run.instrs.end(), instrs.begin(), instrs.end());
        run.values.insert(run.values.end(), values.begin(), values.end());
        run.taps.insert(run.taps.end(), taps.begin(), taps.end());
    }

    RecordedRun run;
};

/// prepare(input_set) + one run of `config` on a sink-mode context,
/// recorded; inside an arith::ScopedBinary64 when `shadow`.
[[nodiscard]] inline RecordedRun record_run(apps::App& app, unsigned input_set,
                                            const apps::TypeConfig& config,
                                            bool shadow) {
    app.prepare(input_set);
    Recorder recorder;
    sim::TpContext ctx{sim::TpContext::Sinking{&recorder}};
    std::vector<double> output;
    if (shadow) {
        const arith::ScopedBinary64 binary64;
        output = app.run(ctx, config);
    } else {
        output = app.run(ctx, config);
    }
    ctx.flush();
    recorder.run.output = std::move(output);
    return std::move(recorder.run);
}

/// The shadow run analysis::shadow_run folds, recorded instead.
[[nodiscard]] inline RecordedRun record_shadow_run(apps::App& app,
                                                   unsigned input_set) {
    return record_run(app, input_set,
                      analysis::tagging_config(app.signal_table().size()),
                      /*shadow=*/true);
}

/// Producing signal per value id of a recorded shadow run (the tag of its
/// creation format).
[[nodiscard]] inline std::vector<std::int32_t> value_signals(
    const RecordedRun& shadow, std::size_t signal_count) {
    std::vector<std::int32_t> signals;
    signals.reserve(shadow.values.size());
    for (const sim::ValueRecord& record : shadow.values) {
        signals.push_back(analysis::signal_of_tag(record.fmt, signal_count));
    }
    return signals;
}

/// Transfers a shadow run's per-value signal map onto `observed` — a run
/// of the SAME app and input set under an arbitrary (real) config, whose
/// formats cannot identify signals. Value ids are assigned in creation
/// order, so when the two instruction streams agree structurally (length,
/// kinds, ops, value ids) the map carries over id-for-id. Returns empty
/// when control flow diverged from the shadow reference (rounded compares
/// took a different branch).
[[nodiscard]] inline std::vector<std::int32_t> align_value_signals(
    const RecordedRun& observed, const std::vector<std::int32_t>& signals,
    const RecordedRun& reference) {
    if (observed.instrs.size() != reference.instrs.size() ||
        observed.values.size() != reference.values.size()) {
        return {};
    }
    for (std::size_t i = 0; i < observed.instrs.size(); ++i) {
        const sim::Instr& a = observed.instrs[i];
        const sim::Instr& b = reference.instrs[i];
        if (a.kind != b.kind || a.op != b.op || a.dst != b.dst ||
            a.src1 != b.src1 || a.src2 != b.src2 || a.src3 != b.src3 ||
            a.stream != b.stream) {
            return {};
        }
    }
    return signals;
}

/// Per-stream producing signal, read off a shadow run's Load/Store element
/// formats: entry per stream id, kUnknownSignal where the stream never
/// moved tagged data. make_array order is unconditional in the kernels, so
/// stream ids — and this map — transfer to any other run of the same app
/// and input set, even when value-level alignment fails (rounded compares
/// flipping a data-dependent branch).
[[nodiscard]] inline std::vector<std::int32_t> stream_signals(
    const RecordedRun& reference, std::size_t signal_count) {
    std::uint32_t max_stream = 0;
    for (const sim::Instr& instr : reference.instrs) {
        if (instr.kind == sim::InstrKind::Load ||
            instr.kind == sim::InstrKind::Store) {
            max_stream = std::max(max_stream, instr.stream + 1);
        }
    }
    std::vector<std::int32_t> map(max_stream, analysis::kUnknownSignal);
    for (const sim::Instr& instr : reference.instrs) {
        if (instr.kind != sim::InstrKind::Load &&
            instr.kind != sim::InstrKind::Store) {
            continue;
        }
        const std::int32_t sig = analysis::signal_of_tag(instr.fmt, signal_count);
        if (sig >= 0) map[instr.stream] = sig;
    }
    return map;
}

/// Signal per value id of `observed` (a run of the same app and input set
/// as `shadow`): positional when the instruction streams match, else by
/// the load's stream (every other id unattributed).
[[nodiscard]] inline std::vector<std::int32_t> attribute_values(
    const RecordedRun& observed, const RecordedRun& shadow,
    std::size_t signal_count) {
    std::vector<std::int32_t> mapped = align_value_signals(
        observed, value_signals(shadow, signal_count), shadow);
    if (!mapped.empty()) return mapped;
    const std::vector<std::int32_t> streams = stream_signals(shadow, signal_count);
    mapped.assign(observed.values.size(), analysis::kUnknownSignal);
    for (const sim::Instr& instr : observed.instrs) {
        if (instr.kind == sim::InstrKind::Load && instr.dst >= 0 &&
            instr.stream < streams.size()) {
            mapped[static_cast<std::size_t>(instr.dst)] = streams[instr.stream];
        }
    }
    return mapped;
}

} // namespace tp::testing
