// String-keyed registry of matching-engine factories.
//
// Broker configuration, benches, and examples select an engine by name
// ("brute-force", "anchor-index", "bitset") instead of hard-coding a type;
// new engines register themselves without touching broker code.
//
// Any engine can additionally be wrapped in the sharded-routing layer by
// prefixing its name with "sharded:" (e.g. "sharded:anchor-index"): the
// sharded variants of the built-ins are pre-registered, and create() falls
// back to wrapping any other registered engine on demand. Bare registry
// creation uses kDefaultShardCount shards and no worker threads; code that
// wants specific shard/worker counts (RoutingTable, benches) constructs
// ShardedMatcher with an explicit Config instead.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pubsub/matcher.h"

namespace reef::pubsub {

// Canonical names of the built-in engines.
inline constexpr std::string_view kBruteForceEngine = "brute-force";
inline constexpr std::string_view kAnchorIndexEngine = "anchor-index";
inline constexpr std::string_view kBitsetEngine = "bitset";

/// Every built-in engine. The registry registers each one bare and as
/// "sharded:<name>", and the differential fuzz harness iterates this list
/// in its overlay tiers, so an engine added here (with its factory in the
/// registry constructor) inherits the whole oracle matrix.
inline constexpr std::array<std::string_view, 3> kBuiltinEngines = {
    kBruteForceEngine, kAnchorIndexEngine, kBitsetEngine};

/// Name prefix selecting the sharded wrapper around an inner engine.
inline constexpr std::string_view kShardedPrefix = "sharded:";

/// Default engine used by brokers when a Config does not name one.
inline constexpr std::string_view kDefaultEngine = kAnchorIndexEngine;

/// Returns the inner engine name when `engine` names a sharded engine
/// ("sharded:<inner>"), nullopt otherwise.
std::optional<std::string> sharded_inner_engine(std::string_view engine);

class MatcherRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Matcher>()>;

  /// Process-wide registry, pre-populated with the built-in engines.
  static MatcherRegistry& instance();

  /// Registers (or replaces) a factory under `name`.
  void add(std::string name, Factory factory);

  bool contains(const std::string& name) const {
    return factories_.contains(name);
  }

  /// Instantiates the engine registered under `name`; throws
  /// std::invalid_argument (listing the known names) for unknown engines.
  std::unique_ptr<Matcher> create(const std::string& name) const;

  /// Registered engine names, sorted.
  std::vector<std::string> names() const;

 private:
  MatcherRegistry();  // registers the built-ins

  std::map<std::string, Factory> factories_;
};

/// Convenience wrapper over MatcherRegistry::instance().create(engine).
std::unique_ptr<Matcher> make_matcher(const std::string& engine);

}  // namespace reef::pubsub
