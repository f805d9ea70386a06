// The engine list every engine-generic test (and the matching bench's
// smoke check) iterates: each built-in engine bare, then each one wrapped
// in a 4-shard ShardedMatcher, so the sharded layer rides along wherever an
// engine is exercised.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/engines.h"
#include "pubsub/sharded_matcher.h"

namespace reef::pubsub {

struct EngineVariant {
  std::string engine;           ///< built-in engine name (engines.h)
  std::size_t shard_count = 1;  ///< 1 = the plain engine

  /// The name() of the matcher make() builds: "bitset", or "bitset/4"
  /// when sharded.
  std::string label() const {
    return shard_count == 1 ? engine
                            : engine + "/" + std::to_string(shard_count);
  }

  std::unique_ptr<Matcher> make() const {
    if (shard_count == 1) return make_matcher(engine);
    return std::make_unique<ShardedMatcher>(ShardedMatcher::Config{
        .shard_count = shard_count, .inner_engine = engine});
  }
};

/// Every built-in engine bare, then every one over 4 shards.
inline std::vector<EngineVariant> engine_variants() {
  std::vector<EngineVariant> out;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const std::string_view engine : kBuiltinEngines) {
      out.push_back({std::string(engine), shards});
    }
  }
  return out;
}

}  // namespace reef::pubsub
