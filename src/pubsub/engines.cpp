#include "pubsub/engines.h"

#include <stdexcept>
#include <string>

#include "pubsub/bitset_matcher.h"

namespace reef::pubsub {

std::unique_ptr<Matcher> make_matcher(std::string_view engine) {
  if (engine == kBruteForceEngine) return std::make_unique<BruteForceMatcher>();
  if (engine == kBitsetEngine) return std::make_unique<BitsetMatcher>();
  std::string known;
  for (const std::string_view name : kBuiltinEngines) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  throw std::invalid_argument("unknown matcher engine \"" +
                              std::string(engine) + "\" (built-in: " + known +
                              ")");
}

}  // namespace reef::pubsub
