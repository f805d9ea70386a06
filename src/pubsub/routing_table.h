// Covering-based subscription routing table (the Siena-style routing core,
// extracted from the Broker so it can be unit-tested and reused without a
// simulated network).
//
// A RoutingTable tracks, per interface (neighbor broker or attached
// client), the filters reachable through that interface, answers "which
// interfaces does this event cross" via a pluggable matching engine, and
// computes the covering-pruned subscribe/unsubscribe delta that each
// neighbor should receive: a filter is not forwarded to a neighbor if a
// filter already forwarded there covers it. The table never touches the
// network — the Broker is a thin message adapter that feeds it protocol
// events and ships the diffs it returns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/engines.h"
#include "pubsub/filter.h"
#include "pubsub/matcher.h"

namespace reef::pubsub {

class RoutingTable {
 public:
  /// Interface identifier. Deliberately a bare integer (not sim::NodeId)
  /// so the routing core stays independent of the simulation layer; the
  /// Broker passes its node ids through unchanged.
  using IfaceId = std::uint32_t;
  static constexpr IfaceId kNoIface = 0xffffffff;

  struct Config {
    /// Covering-based pruning of forwarded subscriptions (ablation knob).
    bool covering_enabled = true;
    /// Matching engine, by built-in name (make_matcher).
    std::string engine = std::string(kDefaultEngine);
    /// Filter-state shards for the matching engine. The table wraps
    /// `engine` in a ShardedMatcher iff shard_count > 1 or
    /// worker_threads > 0; 1 with no workers is the plain engine.
    std::size_t shard_count = 1;
    /// Worker threads fanning match_batch over the shards; 0 = inline.
    std::size_t worker_threads = 0;
  };

  /// Where a matched event must go: an interface plus, for client
  /// interfaces, the client's own subscription id.
  struct Destination {
    IfaceId iface = kNoIface;
    bool is_broker = false;
    SubscriptionId client_sub = 0;  ///< valid when !is_broker
  };

  /// A destination decorated with its relevance score and, for client
  /// subscriptions with a non-neutral ScoringSpec, the delivery policy to
  /// apply (top_k / min_score). `scoring` is nullptr for neighbor-broker
  /// destinations and for unscored subscriptions — forwarding between
  /// brokers is boolean-only; suppression is an edge-delivery policy. The
  /// pointer is owned by the table and stable until that subscription is
  /// removed or replaced.
  struct ScoredDestination {
    Destination dest;
    double score = kConstantScore;
    const ScoringSpec* scoring = nullptr;
  };

  /// Subscribe/unsubscribe delta for one neighbor, produced by refresh().
  struct Diff {
    std::vector<Filter> subscribe;
    std::vector<Filter> unsubscribe;
    bool empty() const noexcept {
      return subscribe.empty() && unsubscribe.empty();
    }
  };

  RoutingTable();
  explicit RoutingTable(Config config);

  // --- interfaces -----------------------------------------------------------
  /// Declares a neighbor-broker interface (idempotent).
  void add_broker_iface(IfaceId iface);
  /// Declares an attached-client interface (idempotent).
  void add_client_iface(IfaceId iface);
  bool has_broker_iface(IfaceId iface) const {
    return broker_ifaces_.contains(iface);
  }

  // --- subscription state ---------------------------------------------------
  /// Registers a client subscription; a duplicate (client, sub_id) pair
  /// replaces the previous filter. Implicitly declares the client iface.
  /// `scoring` is the subscription's delivery policy; the default
  /// (neutral) spec is a plain unscored subscription.
  void client_subscribe(IfaceId client, SubscriptionId sub_id, Filter filter,
                        ScoringSpec scoring = {});

  /// Retracts a client subscription. Returns false (and changes nothing)
  /// when the (client, sub_id) pair is unknown.
  bool client_unsubscribe(IfaceId client, SubscriptionId sub_id);

  /// Registers a filter received from a neighbor broker, aggregated by
  /// canonical key. Returns false on an idempotent re-subscribe.
  bool broker_subscribe(IfaceId broker, Filter filter);

  /// Retracts a neighbor broker's filter. Returns false when that broker
  /// never registered it.
  bool broker_unsubscribe(IfaceId broker, const Filter& filter);

  // --- fault tolerance ------------------------------------------------------
  /// Drops everything tied to a restarted neighbor: every filter received
  /// *from* `iface` and the forwarded bookkeeping *toward* it (the
  /// neighbor lost its table, so what we handed out is void). The iface
  /// itself stays declared. Returns true if anything was removed.
  bool drop_broker_iface_state(IfaceId iface);

  /// Replace-all apply of a neighbor's full want-set (anti-entropy
  /// resync). Idempotent: filters already registered for `broker` are
  /// kept (dedup by canonical key), missing ones are added, and ones
  /// absent from `want` are removed. Returns true if anything changed.
  bool broker_resync(IfaceId broker, const std::vector<Filter>& want);

  /// Replace-all apply of a client's full subscription set. Idempotent on
  /// (sub_id, filter-key, scoring) triples. Returns true if anything
  /// changed.
  bool client_resync(IfaceId client,
                     const std::vector<ClientSubscription>& subs);

  /// Order-independent digest of the filters received from a neighbor
  /// broker (XOR of per-filter key hashes; 0 when empty). The restarted
  /// requester sends this in its ResyncRequest; a responder whose
  /// forwarded_digest matches can skip the replay.
  std::uint64_t broker_iface_digest(IfaceId iface) const;
  /// Digest of the (sub_id, filter) pairs received from a client.
  std::uint64_t client_iface_digest(IfaceId iface) const;
  /// Digest of the filters currently forwarded *to* a neighbor.
  std::uint64_t forwarded_digest(IfaceId iface) const;

  /// Filters currently forwarded to `iface`, sorted by canonical key —
  /// the responder side of a broker resync replay (refresh() first so
  /// forwarded equals desired, then replay this).
  std::vector<Filter> forwarded_filters(IfaceId iface) const;

  /// Live subscriptions registered by `client` (filter + scoring spec),
  /// sorted by id — the broker side of the client resync replay.
  std::vector<ClientSubscription> client_subscriptions(IfaceId client) const;

  /// Canonical, engine-independent dump of the whole table: one sorted
  /// line per stored entry and per forwarded filter. Two tables with the
  /// same fingerprint route identically; the fault fuzz harness compares
  /// healed runs against the never-faulted oracle with this.
  std::string state_fingerprint() const;

  // --- forwarding -----------------------------------------------------------
  /// Recomputes the set of filters `neighbor` should receive (everything
  /// visible on other interfaces, reduced to its covering-minimal form
  /// when covering is enabled), updates the forwarded bookkeeping, and
  /// returns the delta to ship. Deterministic: diff entries come out in
  /// canonical-key order.
  Diff refresh(IfaceId neighbor);

  // --- matching -------------------------------------------------------------
  /// Appends one Destination per matching registration. An interface can
  /// appear multiple times (once per matching client subscription /
  /// neighbor filter); the caller deduplicates broker interfaces.
  void match(const Event& event, std::vector<Destination>& out) const;

  /// Batch matching through Matcher::match_batch: `out` is replaced with
  /// one destination vector per event, parallel to `events`.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<Destination>>& out) const;

  /// Scored batch matching through Matcher::match_batch_scored: same
  /// destinations as match_batch, each decorated with its relevance score
  /// and (for client subscriptions with a non-neutral spec) the delivery
  /// policy. Scores are computed after the boolean match on the calling
  /// thread, so they are identical for every engine/shard/worker config
  /// that agrees on the match sets — which the Matcher contract
  /// guarantees.
  void match_batch_scored(std::span<const Event> events,
                          std::vector<std::vector<ScoredDestination>>& out)
      const;

  // --- introspection --------------------------------------------------------
  /// Total filters stored across all interfaces.
  std::size_t size() const noexcept { return entries_.size(); }
  /// Filters currently forwarded to (i.e. requested from) `neighbor`.
  std::size_t forwarded_size(IfaceId neighbor) const;
  const Matcher& matcher() const noexcept { return *matcher_; }
  const Config& config() const noexcept { return config_; }
  /// Always 0: no engine needs structural maintenance, so the table runs
  /// none. Kept only because the end-to-end benchmark (bench/e2e) still
  /// reports it as a per-layer metric.
  std::uint64_t maintain_runs() const noexcept { return 0; }

  // --- covering reduction (public for tests and benches) --------------------
  /// Reduces a key->filter set to its maximal elements under covering,
  /// pruning candidate cover pairs through a per-call signature index
  /// (each filter is bucketed by one constraint; only filters whose
  /// bucket a candidate's own constraints can reach are checked). Of
  /// mutually covering filters, the one with the smallest key survives.
  static std::map<std::string, Filter> minimal_cover_indexed(
      std::map<std::string, Filter> filters);

 private:
  struct ClientIface {
    std::unordered_map<SubscriptionId, std::uint64_t> engine_ids;
  };
  struct BrokerIface {
    /// Aggregated filters received from this neighbor, by canonical key.
    std::unordered_map<std::string, std::uint64_t> engine_ids;
    /// Filters we have handed out *to* this neighbor, by canonical key.
    std::unordered_map<std::string, Filter> forwarded;
  };
  struct EngineEntry {
    Filter filter;
    IfaceId iface = kNoIface;
    bool from_broker = false;
    SubscriptionId client_sub = 0;  // valid when !from_broker
  };

  std::uint64_t add_entry(Filter filter, IfaceId iface, bool from_broker,
                          SubscriptionId client_sub, ScoringSpec scoring = {});
  void remove_entry(std::uint64_t engine_id);
  Destination destination_of(std::uint64_t engine_id) const;
  /// The stored spec of an entry (neutral when it has none).
  ScoringSpec entry_scoring(std::uint64_t engine_id) const;

  /// Filters visible on interfaces other than `excluded` (deduplicated by
  /// canonical key).
  std::map<std::string, Filter> filters_not_from(IfaceId excluded) const;

  Config config_;
  std::unordered_map<IfaceId, BrokerIface> broker_ifaces_;
  std::unordered_map<IfaceId, ClientIface> client_ifaces_;

  std::unique_ptr<Matcher> matcher_;
  std::unordered_map<std::uint64_t, EngineEntry> entries_;
  /// Non-neutral specs by engine id, mirroring entries_ (the scored match
  /// path's lookup surface; see Matcher::match_batch_scored).
  ScoringIndex scoring_index_;
  std::uint64_t next_engine_id_ = 1;
};

}  // namespace reef::pubsub
