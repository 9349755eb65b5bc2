#include "analysis/signal_flow.hpp"

#include <algorithm>
#include <stdexcept>

#include "flexfloat/arith_backend.hpp"

namespace tp::analysis {

apps::TypeConfig tagging_config(std::size_t signal_count) {
    if (signal_count > 51) {
        throw std::invalid_argument(
            "tagging_config: more than 51 signals cannot be tagged (the "
            "mantissa field of the {11, 52-s} tag family bottoms out)");
    }
    apps::TypeConfig config{signal_count};
    for (std::size_t s = 0; s < signal_count; ++s) {
        config.set(static_cast<apps::SignalId>(s),
                   FpFormat{11, static_cast<std::uint8_t>(52 - s)});
    }
    return config;
}

std::int32_t signal_of_tag(FpFormat fmt, std::size_t signal_count) noexcept {
    if (fmt.exp_bits != 11 || fmt.mant_bits > 52) return kUnknownSignal;
    const std::int32_t s = 52 - static_cast<std::int32_t>(fmt.mant_bits);
    return static_cast<std::size_t>(s) < signal_count ? s : kUnknownSignal;
}

apps::TypeConfig staircase_config(std::size_t signal_count) {
    if (signal_count > 22) {
        throw std::invalid_argument(
            "staircase_config: more than 22 signals cannot stay pairwise "
            "distinct (the mantissa field of the {8, 23-s} family bottoms "
            "out)");
    }
    apps::TypeConfig config{signal_count};
    for (std::size_t s = 0; s < signal_count; ++s) {
        config.set(static_cast<apps::SignalId>(s),
                   FpFormat{8, static_cast<std::uint8_t>(23 - s)});
    }
    return config;
}

CapturedTrace capture_trace(apps::App& app, unsigned input_set) {
    app.prepare(input_set);
    sim::TpContext ctx{sim::TpContext::Config{.trace = true,
                                              .record_values = true}};
    CapturedTrace capture;
    capture.input_set = input_set;
    capture.signal_count = app.signal_table().size();
    {
        const arith::ScopedBinary64 shadow;
        capture.output = app.run(ctx, tagging_config(capture.signal_count));
    }
    capture.program = ctx.take_program(false);
    return capture;
}

SignalFlowGraph build_signal_flow(const sim::TraceProgram& program,
                                  std::size_t signal_count) {
    SignalFlowGraph flow;
    flow.signal_count = signal_count;
    flow.value_signal.assign(program.value_count, kUnknownSignal);
    for (std::size_t id = 0; id < program.values.size(); ++id) {
        flow.value_signal[id] = signal_of_tag(program.values[id].fmt, signal_count);
    }
    flow.depends_on.assign(signal_count, std::vector<char>(signal_count, 0));
    flow.ops_in_signal.assign(signal_count, 0);
    flow.max_accumulation_chain.assign(signal_count, 0);

    // Accumulation-chain depth per value id: how many same-signal Add/Sub/Fma
    // roundings stack between a leaf and this value. Loads continue the
    // longest chain ever stored into their stream (a memory round-trip does
    // not reset error growth).
    std::vector<int> chain(program.value_count, 0);
    std::vector<int> stream_chain; // by stream id, grown on first store

    const auto signal_of = [&](std::int32_t id) -> std::int32_t {
        return id >= 0 && static_cast<std::size_t>(id) < flow.value_signal.size()
                   ? flow.value_signal[id]
                   : kUnknownSignal;
    };
    const auto note_edge = [&](std::int32_t consumer, std::int32_t src) {
        const std::int32_t producer = signal_of(src);
        if (consumer >= 0 && producer >= 0) {
            flow.depends_on[static_cast<std::size_t>(consumer)]
                           [static_cast<std::size_t>(producer)] = 1;
        }
    };
    const auto chain_of = [&](std::int32_t id) {
        return id >= 0 ? chain[static_cast<std::size_t>(id)] : 0;
    };

    for (const sim::Instr& instr : program.instrs) {
        const std::int32_t dst_signal = signal_of(instr.dst);
        switch (instr.kind) {
        case sim::InstrKind::FpArith: {
            note_edge(dst_signal, instr.src1);
            note_edge(dst_signal, instr.src2);
            note_edge(dst_signal, instr.src3);
            if (instr.dst < 0) break; // compares produce no value
            if (dst_signal >= 0) {
                ++flow.ops_in_signal[static_cast<std::size_t>(dst_signal)];
            }
            const bool accumulating = instr.op == FpOp::Add ||
                                      instr.op == FpOp::Sub ||
                                      instr.op == FpOp::Fma;
            int depth = std::max(std::max(chain_of(instr.src1), chain_of(instr.src2)),
                                 chain_of(instr.src3));
            if (accumulating) {
                depth += 1;
                if (dst_signal >= 0) {
                    auto& best = flow.max_accumulation_chain[static_cast<std::size_t>(dst_signal)];
                    best = std::max(best, depth);
                }
            }
            chain[static_cast<std::size_t>(instr.dst)] = depth;
            break;
        }
        case sim::InstrKind::FpCast:
            note_edge(dst_signal, instr.src1);
            if (instr.dst >= 0) {
                chain[static_cast<std::size_t>(instr.dst)] = chain_of(instr.src1);
            }
            break;
        case sim::InstrKind::Load:
            if (instr.dst >= 0) {
                chain[static_cast<std::size_t>(instr.dst)] =
                    instr.stream < stream_chain.size()
                        ? stream_chain[instr.stream]
                        : 0;
            }
            break;
        case sim::InstrKind::Store: {
            const std::int32_t src_signal = signal_of(instr.src1);
            // The array's element format is itself a signal binding: a store
            // into a differently-tagged stream is a dependency edge too.
            const std::int32_t stream_signal =
                signal_of_tag(instr.fmt, signal_count);
            if (stream_signal >= 0 && src_signal >= 0) {
                flow.depends_on[static_cast<std::size_t>(stream_signal)]
                               [static_cast<std::size_t>(src_signal)] = 1;
            }
            if (instr.stream >= stream_chain.size()) {
                stream_chain.resize(instr.stream + std::size_t{1}, 0);
            }
            int& best = stream_chain[instr.stream];
            best = std::max(best, chain_of(instr.src1));
            break;
        }
        default:
            break;
        }
    }
    return flow;
}

std::vector<std::int32_t> align_value_signals(const sim::TraceProgram& observed,
                                              const SignalFlowGraph& flow,
                                              const sim::TraceProgram& reference) {
    if (observed.instrs.size() != reference.instrs.size() ||
        observed.value_count != reference.value_count) {
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
    return flow.value_signal;
}

std::vector<std::int32_t> stream_signals(const sim::TraceProgram& reference,
                                         std::size_t signal_count) {
    std::uint32_t max_stream = 0;
    for (const sim::Instr& instr : reference.instrs) {
        if (instr.kind == sim::InstrKind::Load ||
            instr.kind == sim::InstrKind::Store) {
            max_stream = std::max(max_stream, instr.stream + 1);
        }
    }
    std::vector<std::int32_t> map(max_stream, kUnknownSignal);
    for (const sim::Instr& instr : reference.instrs) {
        if (instr.kind != sim::InstrKind::Load &&
            instr.kind != sim::InstrKind::Store) {
            continue;
        }
        const std::int32_t sig = signal_of_tag(instr.fmt, signal_count);
        if (sig >= 0) map[instr.stream] = sig;
    }
    return map;
}

} // namespace tp::analysis
