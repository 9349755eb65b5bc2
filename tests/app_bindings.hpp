// The bindings the app test batteries run every app under: the four
// uniform formats and a mixed one (binary16 with every odd signal
// binary8). Shared by the kernel battery (app_conformance.hpp) and the
// vectorize and costing oracles (test_vectorize.cpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "types/format.hpp"

namespace tp::testing {

[[nodiscard]] inline std::vector<std::pair<std::string, apps::TypeConfig>>
conformance_bindings(const apps::App& app) {
    std::vector<std::pair<std::string, apps::TypeConfig>> bindings{
        {"binary8", app.uniform_config(kBinary8)},
        {"binary16", app.uniform_config(kBinary16)},
        {"binary16alt", app.uniform_config(kBinary16Alt)},
        {"binary32", app.uniform_config(kBinary32)},
    };
    apps::TypeConfig mixed = app.uniform_config(kBinary16);
    for (apps::SignalId id = 1; id < mixed.size(); id += 2) {
        mixed.set(id, kBinary8);
    }
    bindings.emplace_back("mixed", mixed);
    return bindings;
}

} // namespace tp::testing
