#include "analysis/signal_flow.hpp"

#include <stdexcept>

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

} // namespace tp::analysis
