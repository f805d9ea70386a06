// The built-in matching engines, selected by name.
//
// Broker configuration, benches, and examples select an engine by name
// ("brute-force", "bitset") instead of hard-coding a type.
// Sharding is not part of the name: RoutingTable::Config::shard_count /
// worker_threads wrap the named engine in a ShardedMatcher.
#pragma once

#include <array>
#include <memory>
#include <string_view>

#include "pubsub/matcher.h"

namespace reef::pubsub {

// Canonical names of the built-in engines.
inline constexpr std::string_view kBruteForceEngine = "brute-force";
inline constexpr std::string_view kBitsetEngine = "bitset";

/// Every built-in engine. make_matcher accepts exactly these names, and
/// the differential fuzz harness iterates this list, so an engine added
/// here (with its case in make_matcher) inherits the whole oracle matrix.
inline constexpr std::array<std::string_view, 2> kBuiltinEngines = {
    kBruteForceEngine, kBitsetEngine};

/// Default engine used by brokers when a Config does not name one.
inline constexpr std::string_view kDefaultEngine = kBitsetEngine;

/// Instantiates the built-in engine named `engine`; throws
/// std::invalid_argument (listing kBuiltinEngines) for any other name.
std::unique_ptr<Matcher> make_matcher(std::string_view engine);

}  // namespace reef::pubsub
