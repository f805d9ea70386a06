// RoutingTable in isolation: covering-pruned forwarding diffs, unsubscribe
// retraction, replace semantics, and destination resolution — no simulated
// network involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "pubsub/routing_table.h"
#include "util/hash.h"
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

  const std::vector<Event> events = {
      Event().with("stream", "feed").with("feed", "http://x/a")};
  std::vector<std::vector<RoutingTable::Destination>> batch;
  table.match_batch(events, batch);
  ASSERT_EQ(batch.size(), 1u);
  const std::vector<RoutingTable::Destination>& hits = batch.front();
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

TEST(RoutingTable, SharedFilterHasOneEngineSlotUntilItsRetractionShips) {
  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  const std::vector<Event> events = {Event().with("stream", "feed")};
  const auto destinations = [&] {
    std::vector<std::vector<RoutingTable::Destination>> batch;
    table.match_batch(events, batch);
    return batch.front().size();
  };

  // Three clients, one filter: one engine slot, three destinations.
  for (const RoutingTable::IfaceId client : {200u, 201u, 202u}) {
    table.client_subscribe(client, 1, broad());
  }
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.matcher().size(), 1u);
  EXPECT_EQ(destinations(), 3u);
  ASSERT_EQ(table.refresh(kNeighbor).subscribe.size(), 1u);

  // The last unsubscribe leaves the filter forwarded: it stays in the
  // engine, but a hit on it reaches nobody.
  for (const RoutingTable::IfaceId client : {200u, 201u, 202u}) {
    EXPECT_TRUE(table.client_unsubscribe(client, 1));
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.matcher().size(), 1u);
  EXPECT_EQ(destinations(), 0u);

  // The refresh ships the retraction and frees the engine slot.
  const RoutingTable::Diff diff = table.refresh(kNeighbor);
  EXPECT_EQ(keys(diff.unsubscribe), keys({broad()}));
  EXPECT_EQ(table.forwarded_size(kNeighbor), 0u);
  EXPECT_EQ(table.matcher().size(), 0u);
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
    std::vector<std::vector<RoutingTable::Destination>> single;
    table.match_batch(std::span<const Event>(&events[i], 1), single);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(sig(batched[i]), sig(single.front())) << "event " << i;
  }
}

// --- indexed covering check vs the naive pairwise oracle --------------------

/// The O(n^2) pairwise reduction: the oracle for the signature-indexed
/// covering step of RoutingTable::refresh. A filter is dropped when another
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

  RoutingTable::Diff refresh(const std::map<std::string, Filter>& visible,
                             bool covering = true) {
    const auto desired = covering ? minimal_cover_naive(visible) : visible;
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

/// refresh() against the naive reduction on adversarial shapes the churn
/// mix may miss: equivalent filters (canonical-representative tie-break),
/// chains of mutual covering, universal filters and set membership. Each
/// case is a fresh table whose one neighbor receives every filter, so its
/// first refresh subscribes exactly the covering-minimal set, in key order.
TEST(RoutingTable, RefreshEqualsNaiveCoverOnEdgeCases) {
  const auto run_both = [](const std::vector<Filter>& filters) {
    RoutingTable table;
    table.add_broker_iface(kNeighbor);
    std::map<std::string, Filter> input;
    SubscriptionId sub = 1;
    for (const Filter& f : filters) {
      table.client_subscribe(kClient, sub++, f);
      input.emplace(f.key(), f);
    }
    const RoutingTable::Diff diff = table.refresh(kNeighbor);
    const auto naive = minimal_cover_naive(input);
    EXPECT_TRUE(diff.unsubscribe.empty());
    EXPECT_EQ(diff.subscribe.size(), naive.size());
    auto it = diff.subscribe.begin();
    for (const auto& [key, filter] : naive) {
      if (it == diff.subscribe.end()) {
        ADD_FAILURE() << "refresh missing key " << key;
        break;
      }
      EXPECT_EQ(it->key(), key);
      EXPECT_EQ(*it, filter);
      ++it;
    }
    return diff.subscribe;
  };

  // Universal filter covers everything (and survives alone).
  auto cover = run_both({Filter(), broad(), feed("http://x/a")});
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_TRUE(cover.front().empty());

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

  // Set membership: an in-set signature is filed under each member, so a
  // narrower set and an equality on a shared member both find it; the
  // empty set is covered by any equality on its attribute.
  cover = run_both({Filter().and_(in_("c", {1, 2, 3})),
                    Filter().and_(in_("c", {2, 3})),
                    Filter().and_(eq("c", 3.0)),
                    Filter().and_(in_("c", {})),
                    Filter().and_(in_("c", {4, 5}))});
  EXPECT_EQ(cover.size(), 2u);
}

// --- routing-table oracle over every control operation ----------------------

/// A random filter from a small pool, so the same filter is often
/// registered by several interfaces at once: the churn mix plus
/// set-membership filters, an empty set and cross-type numeric twins.
Filter oracle_filter(util::Rng& rng) {
  switch (rng.index(8)) {
    case 0:
    case 1:
    case 2:
      return feed("http://s" + std::to_string(rng.index(30)) + "/f");
    case 3:
      return rng.chance(0.1) ? broad()
                             : Filter().and_(eq("stream", "quotes"))
                                   .and_(ge("price", static_cast<double>(
                                                         rng.index(10))));
    case 4:
      return Filter().and_(
          prefix("feed", "http://s" + std::to_string(rng.index(4))));
    case 5: {
      std::vector<Value> members;
      for (std::size_t n = rng.index(3); n > 0; --n) {
        members.emplace_back(static_cast<int>(rng.index(6)));
      }
      return Filter().and_(in_("c", std::move(members)));
    }
    case 6:
      return rng.chance(0.5)
                 ? Filter().and_(eq("c", static_cast<int>(rng.index(6))))
                 : Filter().and_(eq("c", static_cast<double>(rng.index(6))));
    default:
      return rng.chance(0.05) ? Filter()
                              : Filter().and_(exists("price")).and_(lt(
                                    "price",
                                    static_cast<double>(rng.index(10))));
  }
}

/// The table's state re-derived from maps: client subscriptions, the
/// filters each neighbor registered, and what each neighbor was sent.
struct NaiveTable {
  std::map<std::pair<RoutingTable::IfaceId, SubscriptionId>, Filter> clients;
  std::map<RoutingTable::IfaceId, std::map<std::string, Filter>> brokers;
  std::map<RoutingTable::IfaceId, NaiveNeighbor> neighbors;
  bool covering = true;

  std::map<std::string, Filter> visible_to(RoutingTable::IfaceId n) const {
    std::map<std::string, Filter> out;
    for (const auto& [id, f] : clients) out.try_emplace(f.key(), f);
    for (const auto& [b, filters] : brokers) {
      if (b != n) out.insert(filters.begin(), filters.end());
    }
    return out;
  }

  RoutingTable::Diff refresh(RoutingTable::IfaceId n) {
    return neighbors[n].refresh(visible_to(n), covering);
  }

  std::string fingerprint() const {
    std::vector<std::string> lines;
    for (const auto& [id, f] : clients) {
      lines.push_back("C " + std::to_string(id.first) + " " +
                      std::to_string(id.second) + " " + f.key());
    }
    for (const auto& [b, filters] : brokers) {
      for (const auto& [key, f] : filters) {
        lines.push_back("B " + std::to_string(b) + " " + key);
      }
    }
    for (const auto& [n, neighbor] : neighbors) {
      for (const auto& [key, f] : neighbor.forwarded) {
        lines.push_back("F " + std::to_string(n) + " " + key);
      }
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

  /// Distinct filters registered on some interface or still forwarded to
  /// some neighbor: what the table keeps interned.
  std::size_t distinct_filters() const {
    std::set<std::string> held;
    for (const auto& [id, f] : clients) held.insert(f.key());
    for (const auto& [b, filters] : brokers) {
      for (const auto& [key, f] : filters) held.insert(key);
    }
    for (const auto& [n, neighbor] : neighbors) {
      for (const auto& [key, f] : neighbor.forwarded) held.insert(key);
    }
    return held.size();
  }
};

std::vector<std::string> diff_keys(const RoutingTable::Diff& diff) {
  std::vector<std::string> sig;
  for (const Filter& f : diff.subscribe) sig.push_back("+" + f.key());
  sig.push_back("|");
  for (const Filter& f : diff.unsubscribe) sig.push_back("-" + f.key());
  return sig;
}

std::uint64_t key_digest(const std::map<std::string, Filter>& filters) {
  std::uint64_t digest = 0;
  for (const auto& [key, f] : filters) digest ^= util::fnv1a64(key);
  return digest;
}

/// 10k random control operations — client subscribe / replace /
/// unsubscribe, filters received from neighbors (so visibility differs
/// per neighbor, and one filter is often registered from a client and a
/// neighbor at once), drop_broker_iface_state with forwards pending,
/// broker_resync, and refresh of a random neighbor — against NaiveTable.
/// Every diff, forwarded set, digest and (periodically) the fingerprint
/// must equal the reference, and after every op the engine holds exactly
/// one filter per distinct filter the reference holds; after every
/// retract the engine and the signature buckets drain to zero.
void run_oracle(RoutingTable::Config config, std::uint64_t seed) {
  constexpr std::array<RoutingTable::IfaceId, 3> kBrokers = {100, 101, 102};
  constexpr std::array<RoutingTable::IfaceId, 3> kClients = {200, 201, 202};
  util::Rng rng(seed);
  NaiveTable naive;
  naive.covering = config.covering_enabled;
  RoutingTable table(std::move(config));
  for (const auto b : kBrokers) table.add_broker_iface(b);

  const auto pick = [&](const auto& ids) { return ids[rng.index(ids.size())]; };
  const auto check_refresh = [&](RoutingTable::IfaceId n, int op) {
    ASSERT_EQ(diff_keys(table.refresh(n)), diff_keys(naive.refresh(n)))
        << "op " << op << " neighbor " << n;
    const auto& forwarded = naive.neighbors[n].forwarded;
    ASSERT_EQ(table.forwarded_size(n), forwarded.size()) << "op " << op;
    ASSERT_EQ(table.forwarded_digest(n), key_digest(forwarded)) << "op " << op;
  };

  int refreshes_with_diff = 0;
  int drops_with_forwards = 0;
  for (int op = 0; op < 10000; ++op) {
    const std::size_t kind = rng.index(100);
    if (kind < 30) {  // client subscribe, or replace an existing sub id
      const auto client = pick(kClients);
      const SubscriptionId sub = rng.index(40);
      Filter f = oracle_filter(rng);
      naive.clients.insert_or_assign({client, sub}, f);
      table.client_subscribe(client, sub, std::move(f));
    } else if (kind < 45) {  // client unsubscribe (maybe unknown)
      const auto client = pick(kClients);
      const SubscriptionId sub = rng.index(40);
      const bool known = naive.clients.erase({client, sub}) > 0;
      ASSERT_EQ(table.client_unsubscribe(client, sub), known) << "op " << op;
    } else if (kind < 60) {  // neighbor subscribe; often a client's filter
      const auto b = pick(kBrokers);
      Filter f = oracle_filter(rng);
      if (!naive.clients.empty() && rng.chance(0.3)) {
        auto it = naive.clients.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.index(naive.clients.size())));
        f = it->second;
      }
      const bool fresh = naive.brokers[b].try_emplace(f.key(), f).second;
      ASSERT_EQ(table.broker_subscribe(b, std::move(f)), fresh) << "op " << op;
    } else if (kind < 70) {  // neighbor unsubscribe (maybe unknown)
      const auto b = pick(kBrokers);
      const Filter f = oracle_filter(rng);
      const bool known = naive.brokers[b].erase(f.key()) > 0;
      ASSERT_EQ(table.broker_unsubscribe(b, f), known) << "op " << op;
    } else if (kind < 72) {  // neighbor restart with forwards pending
      const auto b = pick(kBrokers);
      const bool had = !naive.brokers[b].empty() ||
                       !naive.neighbors[b].forwarded.empty();
      if (table.forwarded_size(b) > 0) ++drops_with_forwards;
      naive.brokers[b].clear();
      naive.neighbors[b].forwarded.clear();
      ASSERT_EQ(table.drop_broker_iface_state(b), had) << "op " << op;
    } else if (kind < 76) {  // anti-entropy resync: keep some, add some
      const auto b = pick(kBrokers);
      std::vector<Filter> want;
      for (const auto& [key, f] : naive.brokers[b]) {
        if (rng.chance(0.7)) want.push_back(f);
      }
      for (std::size_t n = rng.index(4); n > 0; --n) {
        want.push_back(oracle_filter(rng));
      }
      if (!want.empty() && rng.chance(0.3)) want.push_back(want.front());
      std::map<std::string, Filter> next;
      for (const Filter& f : want) next.try_emplace(f.key(), f);
      const bool changed = next.size() != naive.brokers[b].size() ||
                           !std::equal(next.begin(), next.end(),
                                       naive.brokers[b].begin(),
                                       [](const auto& x, const auto& y) {
                                         return x.first == y.first;
                                       });
      naive.brokers[b] = std::move(next);
      ASSERT_EQ(table.broker_resync(b, want), changed) << "op " << op;
      ASSERT_EQ(table.broker_iface_digest(b), key_digest(naive.brokers[b]));
    } else {  // refresh one neighbor
      const auto n = pick(kBrokers);
      const std::size_t before = naive.neighbors[n].forwarded.size();
      check_refresh(n, op);
      if (before != naive.neighbors[n].forwarded.size()) ++refreshes_with_diff;
    }
    if (::testing::Test::HasFatalFailure()) return;  // from check_refresh
    ASSERT_EQ(table.matcher().size(), naive.distinct_filters()) << "op " << op;
    if (op % 250 == 0) {
      ASSERT_EQ(table.state_fingerprint(), naive.fingerprint()) << "op " << op;
    }
  }
  EXPECT_GT(refreshes_with_diff, 100);
  EXPECT_GT(drops_with_forwards, 5);

  // Forwarded filters replay in key order.
  for (const auto n : kBrokers) {
    check_refresh(n, -1);
    std::vector<std::string> replay;
    for (const Filter& f : table.forwarded_filters(n)) {
      replay.push_back(f.key());
    }
    std::vector<std::string> expected;
    for (const auto& [key, f] : naive.neighbors[n].forwarded) {
      expected.push_back(key);
    }
    EXPECT_EQ(replay, expected);
  }
  EXPECT_EQ(table.state_fingerprint(), naive.fingerprint());

  // Retract everything: forwarded sets still hold filters whose last
  // registration is gone until each neighbor is refreshed.
  for (const auto& [id, f] : naive.clients) {
    EXPECT_TRUE(table.client_unsubscribe(id.first, id.second));
  }
  naive.clients.clear();
  for (const auto b : kBrokers) {
    table.broker_resync(b, {});
    naive.brokers[b].clear();
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.signature_entries(), 0u);
  for (const auto n : kBrokers) check_refresh(n, -2);
  EXPECT_EQ(table.matcher().size(), 0u);
  EXPECT_EQ(table.state_fingerprint(), "");
}

TEST(RoutingTable, RefreshMatchesNaiveOracleUnder10kOps) {
  run_oracle(RoutingTable::Config{}, 0x5eed);
}

TEST(RoutingTable, RefreshMatchesNaiveOracleOnBruteForceEngine) {
  run_oracle(RoutingTable::Config{.engine = "brute-force"}, 0xface);
}

TEST(RoutingTable, RefreshMatchesNaiveOracleWithoutCovering) {
  run_oracle(RoutingTable::Config{.covering_enabled = false}, 0xbeef);
}

TEST(RoutingTable, EngineSelectedByName) {
  for (const std::string_view name : kBuiltinEngines) {
    const std::string engine(name);
    RoutingTable table(RoutingTable::Config{.engine = engine});
    EXPECT_EQ(table.matcher().name(), engine);
    table.client_subscribe(kClient, 1, feed("http://x/a"));
    const std::vector<Event> events = {
        Event().with("stream", "feed").with("feed", "http://x/a")};
    std::vector<std::vector<RoutingTable::Destination>> hits;
    table.match_batch(events, hits);
    ASSERT_EQ(hits.size(), 1u) << engine;
    EXPECT_EQ(hits.front().size(), 1u) << engine;
  }
  EXPECT_THROW(
      RoutingTable(RoutingTable::Config{.engine = "no-such-engine"}),
      std::invalid_argument);
}

}  // namespace
}  // namespace reef::pubsub
