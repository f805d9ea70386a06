#include "pubsub/matcher_registry.h"

#include <stdexcept>
#include <utility>

#include "pubsub/bitset_matcher.h"
#include "pubsub/sharded_matcher.h"

namespace reef::pubsub {

std::optional<std::string> sharded_inner_engine(std::string_view engine) {
  if (!engine.starts_with(kShardedPrefix)) return std::nullopt;
  return std::string(engine.substr(kShardedPrefix.size()));
}

MatcherRegistry::MatcherRegistry() {
  add(std::string(kBruteForceEngine),
      [] { return std::make_unique<BruteForceMatcher>(); });
  add(std::string(kAnchorIndexEngine),
      [] { return std::make_unique<IndexMatcher>(); });
  add(std::string(kBitsetEngine),
      [] { return std::make_unique<BitsetMatcher>(); });
  // Sharded variants of the built-ins, so names() exposes them and every
  // registry-driven equivalence test / bench covers the sharded layer.
  for (const std::string_view inner : kBuiltinEngines) {
    add(std::string(kShardedPrefix) + std::string(inner),
        [name = std::string(inner)] {
          return std::make_unique<ShardedMatcher>(
              ShardedMatcher::Config{.inner_engine = name});
        });
  }
}

MatcherRegistry& MatcherRegistry::instance() {
  static MatcherRegistry registry;
  return registry;
}

void MatcherRegistry::add(std::string name, Factory factory) {
  factories_.insert_or_assign(std::move(name), std::move(factory));
}

std::unique_ptr<Matcher> MatcherRegistry::create(
    const std::string& name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    // "sharded:<inner>" wraps any registered (unsharded) engine on demand,
    // so runtime-registered engines get a sharded variant for free.
    if (const auto inner = sharded_inner_engine(name);
        inner && !sharded_inner_engine(*inner) && factories_.contains(*inner)) {
      return std::make_unique<ShardedMatcher>(
          ShardedMatcher::Config{.inner_engine = *inner});
    }
    std::string known;
    for (const auto& [known_name, factory] : factories_) {
      if (!known.empty()) known += ", ";
      known += known_name;
    }
    throw std::invalid_argument("unknown matcher engine \"" + name +
                                "\" (registered: " + known + ")");
  }
  return it->second();
}

std::vector<std::string> MatcherRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::unique_ptr<Matcher> make_matcher(const std::string& engine) {
  return MatcherRegistry::instance().create(engine);
}

}  // namespace reef::pubsub
