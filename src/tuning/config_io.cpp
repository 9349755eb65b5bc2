#include "tuning/config_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "types/type_system.hpp"

namespace tp::tuning {

PrecisionConfig read_precision_config(std::istream& is) {
    PrecisionConfig config;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream fields{line};
        std::string name;
        if (!(fields >> name)) continue; // blank/comment line
        int bits = 0;
        if (!(fields >> bits)) {
            throw std::runtime_error("precision config line " +
                                     std::to_string(line_no) +
                                     ": missing precision bits");
        }
        if (bits < kMinPrecisionBits || bits > kMaxPrecisionBits) {
            throw std::runtime_error(
                "precision config line " + std::to_string(line_no) +
                ": precision out of range [" +
                std::to_string(kMinPrecisionBits) + ", " +
                std::to_string(kMaxPrecisionBits) + "]");
        }
        std::string extra;
        if (fields >> extra) {
            throw std::runtime_error("precision config line " +
                                     std::to_string(line_no) +
                                     ": trailing tokens");
        }
        if (!config.emplace(name, bits).second) {
            throw std::runtime_error("precision config line " +
                                     std::to_string(line_no) +
                                     ": signal '" + name +
                                     "' is already set on an earlier line");
        }
    }
    return config;
}

PrecisionConfig read_precision_config(std::istream& is,
                                      const apps::SignalTable& table) {
    PrecisionConfig config = read_precision_config(is);
    validate_precision_config(config, table);
    return config;
}

void validate_precision_config(const PrecisionConfig& config,
                               const apps::SignalTable& table) {
    for (const auto& [name, bits] : config) {
        (void)bits;
        if (!table.contains(name)) {
            throw std::runtime_error(
                "precision config: unknown signal '" + name +
                "' (the application declares no such variable)");
        }
    }
}

void write_precision_config(std::ostream& os, const PrecisionConfig& config) {
    os << "# <signal> <precision-bits>\n";
    for (const auto& [name, bits] : config) {
        os << name << ' ' << bits << '\n';
    }
}

std::vector<int> seed_bits_from_config(const PrecisionConfig& config,
                                       const apps::SignalTable& table) {
    validate_precision_config(config, table);
    std::vector<int> seed;
    seed.reserve(table.size());
    for (const apps::SignalSpec& spec : table.specs()) {
        const auto it = config.find(spec.name);
        if (it == config.end()) {
            throw std::runtime_error(
                "warm-start seed: no precision for signal '" + spec.name +
                "' (a seed must cover every declared variable)");
        }
        seed.push_back(it->second);
    }
    return seed;
}

std::vector<int> read_warm_start_seed(std::istream& is,
                                      const apps::SignalTable& table) {
    return seed_bits_from_config(read_precision_config(is, table), table);
}

} // namespace tp::tuning
