// RoutingTable in isolation: covering-pruned forwarding diffs, unsubscribe
// retraction, replace semantics, and destination resolution — no simulated
// network involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "engine_variants.h"
#include "pubsub/routing_table.h"
#include "util/rng.h"

namespace reef::pubsub {
namespace {

constexpr RoutingTable::IfaceId kNeighbor = 100;
constexpr RoutingTable::IfaceId kOtherNeighbor = 101;
constexpr RoutingTable::IfaceId kClient = 200;

Filter feed(const std::string& url) {
  return Filter().and_(eq("stream", "feed")).and_(eq("feed", url));
}

Filter broad() { return Filter().and_(eq("stream", "feed")); }

std::vector<std::string> keys(const std::vector<Filter>& filters) {
  std::vector<std::string> out;
  for (const auto& f : filters) out.push_back(f.key());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RoutingTable, RefreshForwardsNewClientSubscription) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  auto diff = table.refresh(kNeighbor);
  ASSERT_EQ(diff.subscribe.size(), 1u);
  EXPECT_TRUE(diff.unsubscribe.empty());
  EXPECT_EQ(diff.subscribe[0], feed("http://x/a"));
  EXPECT_EQ(table.forwarded_size(kNeighbor), 1u);

  // A second refresh with no state change is a no-op diff.
  EXPECT_TRUE(table.refresh(kNeighbor).empty());
}

TEST(RoutingTable, CoveringPrunesNarrowFilters) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, broad());
  table.client_subscribe(kClient, 2, feed("http://x/a"));
  table.client_subscribe(kClient, 3, feed("http://x/b"));
  auto diff = table.refresh(kNeighbor);
  // Only the broad filter crosses; the narrow ones are covered.
  ASSERT_EQ(diff.subscribe.size(), 1u);
  EXPECT_EQ(diff.subscribe[0], broad());
  EXPECT_EQ(table.forwarded_size(kNeighbor), 1u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(RoutingTable, CoveringDisabledForwardsEverything) {
  RoutingTable table(RoutingTable::Config{.covering_enabled = false,
                                          .engine = "bitset"});
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, broad());
  table.client_subscribe(kClient, 2, feed("http://x/a"));
  auto diff = table.refresh(kNeighbor);
  EXPECT_EQ(diff.subscribe.size(), 2u);
  EXPECT_EQ(table.forwarded_size(kNeighbor), 2u);
}

TEST(RoutingTable, UnsubscribeDiffRetractsAndUncovers) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, broad());
  table.client_subscribe(kClient, 2, feed("http://x/a"));
  table.refresh(kNeighbor);

  // Retracting the broad filter must unsubscribe it and re-expose the
  // narrow one in the same diff.
  EXPECT_TRUE(table.client_unsubscribe(kClient, 1));
  auto diff = table.refresh(kNeighbor);
  EXPECT_EQ(keys(diff.unsubscribe), keys({broad()}));
  EXPECT_EQ(keys(diff.subscribe), keys({feed("http://x/a")}));
  EXPECT_EQ(table.forwarded_size(kNeighbor), 1u);

  // Retracting the last filter drains the forwarded set.
  EXPECT_TRUE(table.client_unsubscribe(kClient, 2));
  diff = table.refresh(kNeighbor);
  EXPECT_TRUE(diff.subscribe.empty());
  EXPECT_EQ(diff.unsubscribe.size(), 1u);
  EXPECT_EQ(table.forwarded_size(kNeighbor), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, UnknownUnsubscribeIsRejected) {
  RoutingTable table;
  EXPECT_FALSE(table.client_unsubscribe(kClient, 99));
  EXPECT_FALSE(table.broker_unsubscribe(kNeighbor, broad()));
}

TEST(RoutingTable, ClientResubscribeReplacesExistingId) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  table.refresh(kNeighbor);
  // Re-adding the same sub id swaps the filter in place: table size stays
  // 1 and the next diff retracts the old filter, subscribes the new one.
  table.client_subscribe(kClient, 1, feed("http://x/b"));
  EXPECT_EQ(table.size(), 1u);
  auto diff = table.refresh(kNeighbor);
  EXPECT_EQ(keys(diff.subscribe), keys({feed("http://x/b")}));
  EXPECT_EQ(keys(diff.unsubscribe), keys({feed("http://x/a")}));
}

TEST(RoutingTable, BrokerResubscribeIsIdempotent) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  EXPECT_TRUE(table.broker_subscribe(kNeighbor, feed("http://x/a")));
  EXPECT_FALSE(table.broker_subscribe(kNeighbor, feed("http://x/a")));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.broker_unsubscribe(kNeighbor, feed("http://x/a")));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, NeighborFilterNotEchoedBackInItsOwnRefresh) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.add_broker_iface(kOtherNeighbor);
  table.broker_subscribe(kNeighbor, feed("http://x/a"));
  // Never offered back to its source...
  EXPECT_TRUE(table.refresh(kNeighbor).empty());
  // ...but propagated to the other neighbor.
  auto diff = table.refresh(kOtherNeighbor);
  EXPECT_EQ(keys(diff.subscribe), keys({feed("http://x/a")}));
}

TEST(RoutingTable, MatchResolvesDestinations) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 7, feed("http://x/a"));
  table.broker_subscribe(kNeighbor, broad());

  std::vector<RoutingTable::Destination> hits;
  table.match(Event().with("stream", "feed").with("feed", "http://x/a"),
              hits);
  ASSERT_EQ(hits.size(), 2u);
  const auto client_hit = std::find_if(
      hits.begin(), hits.end(),
      [](const RoutingTable::Destination& d) { return !d.is_broker; });
  const auto broker_hit = std::find_if(
      hits.begin(), hits.end(),
      [](const RoutingTable::Destination& d) { return d.is_broker; });
  ASSERT_NE(client_hit, hits.end());
  ASSERT_NE(broker_hit, hits.end());
  EXPECT_EQ(client_hit->iface, kClient);
  EXPECT_EQ(client_hit->client_sub, 7u);
  EXPECT_EQ(broker_hit->iface, kNeighbor);
}

TEST(RoutingTable, MatchBatchAgreesWithPerEventMatch) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.client_subscribe(kClient, 1, feed("http://x/a"));
  table.client_subscribe(kClient, 2, broad());
  table.broker_subscribe(kNeighbor, Filter().and_(gt("price", 10)));

  std::vector<Event> events;
  events.push_back(Event().with("stream", "feed").with("feed", "http://x/a"));
  events.push_back(Event().with("stream", "feed").with("feed", "http://x/b"));
  events.push_back(Event().with("price", 25));
  events.push_back(Event().with("price", 5));

  std::vector<std::vector<RoutingTable::Destination>> batched;
  table.match_batch(events, batched);
  ASSERT_EQ(batched.size(), events.size());
  auto sig = [](std::vector<RoutingTable::Destination> hits) {
    std::vector<std::tuple<RoutingTable::IfaceId, bool, SubscriptionId>> out;
    for (const auto& d : hits) out.emplace_back(d.iface, d.is_broker, d.client_sub);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<RoutingTable::Destination> single;
    table.match(events[i], single);
    EXPECT_EQ(sig(batched[i]), sig(single)) << "event " << i;
  }
}

// --- indexed covering check vs the naive pairwise oracle --------------------

/// The O(n^2) pairwise reduction: the oracle for the signature-indexed
/// RoutingTable::minimal_cover_indexed. A filter is dropped when another
/// one covers it, unless the two are equivalent and it has the smaller
/// key (the canonical representative survives).
std::map<std::string, Filter> minimal_cover_naive(
    const std::map<std::string, Filter>& filters) {
  std::map<std::string, Filter> out;
  for (const auto& [key, filter] : filters) {
    bool dominated = false;
    for (const auto& [other_key, other] : filters) {
      if (other_key != key && other.covers(filter) &&
          (!filter.covers(other) || other_key < key)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.emplace(key, filter);
  }
  return out;
}

/// RoutingTable::refresh re-derived on top of the naive reduction, for
/// one neighbor that receives every filter in `visible`: the subscribe
/// delta and then the unsubscribe delta, each in key order.
struct NaiveNeighbor {
  std::map<std::string, Filter> forwarded;

  RoutingTable::Diff refresh(const std::map<std::string, Filter>& visible) {
    const auto desired = minimal_cover_naive(visible);
    RoutingTable::Diff diff;
    for (const auto& [key, filter] : desired) {
      if (!forwarded.contains(key)) diff.subscribe.push_back(filter);
    }
    for (const auto& [key, filter] : forwarded) {
      if (!desired.contains(key)) diff.unsubscribe.push_back(filter);
    }
    forwarded = desired;
    return diff;
  }
};

Filter churn_filter(util::Rng& rng) {
  // The Reef-like population the indexed cover check targets: per-feed
  // equality subscriptions (massively redundant attributes, distinct
  // values), broad stream filters that cover them, price ranges, prefix
  // content filters, and the occasional universal subscription.
  switch (rng.index(6)) {
    case 0:
    case 1:
    case 2:
      return feed("http://s" + std::to_string(rng.index(200)) + "/f");
    case 3:
      return rng.chance(0.05)
                 ? broad()
                 : Filter().and_(eq("stream", "quotes"))
                       .and_(ge("price", static_cast<double>(rng.index(50))));
    case 4:
      return Filter().and_(prefix(
          "feed", "http://s" + std::to_string(rng.index(20))));
    default:
      return rng.chance(0.02) ? Filter()
                              : Filter().and_(exists("price")).and_(lt(
                                    "price",
                                    static_cast<double>(rng.index(80))));
  }
}

/// Regression gate for the signature-indexed covering check: a table under
/// 1k-filter churn must hand every neighbor forwarding diffs identical to
/// the naive pairwise oracle fed the same operations.
TEST(RoutingTable, IndexedCoveringMatchesNaiveDiffsUnder1kChurn) {
  util::Rng rng(0xc0ffee);
  RoutingTable indexed(RoutingTable::Config{.engine = "bitset"});
  indexed.add_broker_iface(kNeighbor);
  indexed.add_broker_iface(kOtherNeighbor);
  // The oracle side: the live client filters (all visible to both
  // neighbors) and one naive forwarder per neighbor.
  std::map<SubscriptionId, Filter> naive_live;
  std::map<RoutingTable::IfaceId, NaiveNeighbor> naive;
  const auto visible = [&] {
    std::map<std::string, Filter> out;
    for (const auto& [id, f] : naive_live) out.try_emplace(f.key(), f);
    return out;
  };

  const auto diff_signature = [](const RoutingTable::Diff& diff) {
    std::vector<std::string> sig;
    sig.reserve(diff.subscribe.size() + diff.unsubscribe.size() + 1);
    for (const Filter& f : diff.subscribe) sig.push_back("+" + f.key());
    sig.push_back("|");
    for (const Filter& f : diff.unsubscribe) sig.push_back("-" + f.key());
    return sig;
  };

  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;
  std::size_t added = 0;
  int checked_diffs = 0;
  for (int round = 0; round < 80; ++round) {
    // Churn burst: additions dominate until 1k filters went in, then the
    // mix turns removal-only so covering filters get retracted and the
    // filters they covered resurface in the diffs.
    for (int step = 0; step < 20; ++step) {
      const bool add = added < 1000 && (live.empty() || rng.chance(0.75));
      if (add) {
        const Filter f = churn_filter(rng);
        // Client interface derived from the id so the unsubscribe below
        // can reconstruct the same (client, id) pair.
        const RoutingTable::IfaceId client = 300 + next_id % 4;
        indexed.client_subscribe(client, next_id, f);
        naive_live.emplace(next_id, f);
        live.push_back(next_id);
        ++next_id;
        ++added;
      } else if (!live.empty()) {
        const std::size_t idx = rng.index(live.size());
        const RoutingTable::IfaceId client = 300 + live[idx] % 4;
        EXPECT_TRUE(indexed.client_unsubscribe(client, live[idx]));
        naive_live.erase(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    for (const auto neighbor : {kNeighbor, kOtherNeighbor}) {
      const auto from_indexed = diff_signature(indexed.refresh(neighbor));
      const auto from_naive =
          diff_signature(naive[neighbor].refresh(visible()));
      ASSERT_EQ(from_indexed, from_naive)
          << "round " << round << " neighbor " << neighbor;
      if (from_indexed.size() > 1) ++checked_diffs;
      EXPECT_EQ(indexed.forwarded_size(neighbor),
                naive[neighbor].forwarded.size());
    }
  }
  EXPECT_EQ(added, 1000u);
  EXPECT_GT(checked_diffs, 10);  // the churn actually produced diffs

  // Final direct check: a fresh neighbor's first refresh carries the
  // complete covering-minimal form of the final population, so the two
  // reductions are compared in full, not just their churn deltas.
  constexpr RoutingTable::IfaceId kFreshNeighbor = 150;
  indexed.add_broker_iface(kFreshNeighbor);
  const auto full_indexed = diff_signature(indexed.refresh(kFreshNeighbor));
  const auto full_naive =
      diff_signature(naive[kFreshNeighbor].refresh(visible()));
  EXPECT_GT(full_indexed.size(), 1u);
  EXPECT_EQ(full_indexed, full_naive);
  // No engine needs structural maintenance, however heavy the churn.
  EXPECT_EQ(indexed.maintain_runs(), 0u);
}

/// Direct equivalence of the two reductions on adversarial shapes the
/// churn mix may miss: equivalent filters (canonical-representative
/// tie-break), chains of mutual covering, and universal filters.
TEST(RoutingTable, MinimalCoverIndexedEqualsNaiveOnEdgeCases) {
  const auto run_both = [](const std::vector<Filter>& filters) {
    std::map<std::string, Filter> input;
    for (const Filter& f : filters) input.emplace(f.key(), f);
    const auto a = RoutingTable::minimal_cover_indexed(input);
    const auto b = minimal_cover_naive(input);
    EXPECT_EQ(a.size(), b.size());
    auto it_a = a.begin();
    for (const auto& [key, filter] : b) {
      if (it_a == a.end()) {
        ADD_FAILURE() << "indexed cover missing key " << key;
        break;
      }
      EXPECT_EQ(it_a->first, key);
      EXPECT_EQ(it_a->second, filter);
      ++it_a;
    }
    return a;
  };

  // Universal filter covers everything (and survives alone).
  auto cover = run_both({Filter(), broad(), feed("http://x/a")});
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_TRUE(cover.begin()->second.empty());

  // Cross-type numeric equality: eq(p, 3) and eq(p, 3.0) are equivalent
  // but have distinct keys — exactly one survives, via the tie-break.
  cover = run_both({Filter().and_(eq("p", 3)), Filter().and_(eq("p", 3.0))});
  EXPECT_EQ(cover.size(), 1u);

  // Range chains: ge 10 covers ge 20 covers ge 30.
  cover = run_both({Filter().and_(ge("p", 10.0)),
                    Filter().and_(ge("p", 20.0)),
                    Filter().and_(ge("p", 30.0))});
  EXPECT_EQ(cover.size(), 1u);

  // Prefix covers longer prefix and equality; exists covers them all.
  run_both({Filter().and_(prefix("u", "http://a")),
            Filter().and_(prefix("u", "http://a/b")),
            Filter().and_(eq("u", "http://a/b/c")),
            Filter().and_(exists("u"))});

  // Incomparable mix stays intact.
  cover = run_both({feed("http://x/a"), feed("http://x/b"),
                    Filter().and_(ge("price", 5.0))});
  EXPECT_EQ(cover.size(), 3u);
}

TEST(RoutingTable, EngineSelectedByNameAndShardCount) {
  for (const EngineVariant& variant : engine_variants()) {
    RoutingTable table(RoutingTable::Config{
        .engine = variant.engine, .shard_count = variant.shard_count});
    const std::string engine = variant.label();
    EXPECT_EQ(table.matcher().name(), engine);
    table.client_subscribe(kClient, 1, feed("http://x/a"));
    std::vector<RoutingTable::Destination> hits;
    table.match(Event().with("stream", "feed").with("feed", "http://x/a"),
                hits);
    EXPECT_EQ(hits.size(), 1u) << engine;
  }
  EXPECT_THROW(
      RoutingTable(RoutingTable::Config{.engine = "no-such-engine"}),
      std::invalid_argument);
}

}  // namespace
}  // namespace reef::pubsub
