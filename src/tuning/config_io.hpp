// Precision-configuration files, in the contract the paper describes for
// DistributedSearch: "the configuration file should include a list of
// numbers, which correspond to the precision bits used for program
// variables", and the target program "is able to read the configuration
// file to tune the precision of its variables accordingly".
//
// Format: one `<signal-name> <precision-bits>` pair per line; '#' starts a
// comment. Signal order is not significant.
//
// This is the one boundary where signals are named: everywhere else they
// are dense SignalIds (apps/signal_table.hpp). The table-aware overloads
// translate and validate — a config naming a signal the app does not
// declare is rejected loudly instead of being carried along silently.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "apps/signal_table.hpp"

namespace tp::tuning {

using PrecisionConfig = std::map<std::string, int>;

/// Parses a configuration stream; throws std::runtime_error on malformed
/// lines, out-of-range precisions, or a signal named on two lines.
[[nodiscard]] PrecisionConfig read_precision_config(std::istream& is);

/// Parses and validates against `table`: every named signal must exist.
/// Throws std::runtime_error naming the offending signal otherwise.
[[nodiscard]] PrecisionConfig read_precision_config(
    std::istream& is, const apps::SignalTable& table);

/// Checks an already-parsed config against an app's signal table; throws
/// std::runtime_error listing the first unknown signal.
void validate_precision_config(const PrecisionConfig& config,
                               const apps::SignalTable& table);

/// Writes a configuration in the same format.
void write_precision_config(std::ostream& os, const PrecisionConfig& config);

/// Translates a parsed config into warm-start seed bits (WarmStart::
/// seed_bits, tuning/search.hpp) in SignalId (declaration) order. Stricter
/// than validate_precision_config: a seed must also COVER the table —
/// every declared signal needs a starting precision, so a missing entry
/// throws std::runtime_error naming it. (TuningResult::precision_config of
/// a previous run covers by construction; a hand-written file may not.)
[[nodiscard]] std::vector<int> seed_bits_from_config(
    const PrecisionConfig& config, const apps::SignalTable& table);

/// Reads a config stream and converts it to seed bits in one step — the
/// "seed a search from a previous run's saved file" path. Equivalent to
/// read_precision_config(is, table) + seed_bits_from_config.
[[nodiscard]] std::vector<int> read_warm_start_seed(
    std::istream& is, const apps::SignalTable& table);

} // namespace tp::tuning
