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
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pubsub/engines.h"
#include "pubsub/filter.h"
#include "pubsub/matcher.h"
#include "pubsub/scoring.h"
#include "util/thread_pool.h"

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
    /// Worker threads sharing each batch match. The table cuts a batch
    /// into min(worker_threads + 1, batch size) contiguous event ranges
    /// and matches them on the pool plus the calling thread, each range
    /// through the one engine's const match_batch into its own slice of
    /// the output, so output is identical for every setting. 0 = inline,
    /// no pool.
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
  /// apply (top_k / min_score) and the spec's top-k window slot (its
  /// registration id: distinct among live registrations and kept on a
  /// same-sub_id replace). `scoring` is nullptr and `slot`
  /// kNoScoringSlot for neighbor-broker destinations and for unscored
  /// subscriptions — forwarding between brokers is boolean-only;
  /// suppression is an edge-delivery policy. The pointer is owned by the
  /// table and stable until that subscription is removed or replaced.
  /// `suppressed` is false as matched; the broker's top-k selection sets
  /// it on the hits its delivery policy cuts.
  struct ScoredDestination {
    Destination dest;
    double score = kConstantScore;
    const ScoringSpec* scoring = nullptr;
    std::uint32_t slot = kNoScoringSlot;
    bool suppressed = false;
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
  /// Digest of the subscriptions received from a client: the XOR of
  /// client_subscription_digest over them, the value a Client computes
  /// over its own live subscriptions.
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
  /// canonical-key order. Covering-minimal: a visible filter is dropped
  /// when another visible filter covers it, and of mutually covering
  /// filters the one with the smallest key survives. One pass over the
  /// interned filters, probing the persistent signature index; the only
  /// Filter copies made are the returned diff entries.
  Diff refresh(IfaceId neighbor);

  // --- matching -------------------------------------------------------------
  /// Batch matching through Matcher::match_batch, split over the workers
  /// (Config::worker_threads): `out` is replaced with one destination
  /// vector per event, parallel to `events`, holding one Destination per
  /// registration of each matching filter. An interface can appear multiple
  /// times (once per matching client subscription / neighbor filter); the
  /// caller deduplicates broker interfaces. A single event is a span of one.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<Destination>>& out) const;

  /// Scored batch matching: same destinations as match_batch, each
  /// decorated with its relevance score (kConstantScore without a spec)
  /// and (for client subscriptions with a non-neutral spec) the delivery
  /// policy. A BM25 hit is scored against its event's TermBag for the
  /// spec's text attributes (interned to ids when the spec was
  /// registered); the bag is built once per event per distinct attribute
  /// list, on the first hit that needs it, so an event's hits tokenize
  /// its text once. TermBag::score is score_event's formula, so each
  /// score is bitwise score_event(spec, event). Scores are computed after
  /// the boolean match on the calling thread, with scratch local to the
  /// call, so they are identical for every engine/worker config that
  /// agrees on the match sets — which the Matcher contract guarantees.
  void match_batch_scored(std::span<const Event> events,
                          std::vector<std::vector<ScoredDestination>>& out)
      const;

  // --- introspection --------------------------------------------------------
  /// Registrations (client subscriptions and neighbors' filters) across all
  /// interfaces; matcher().size() counts the distinct filters.
  std::size_t size() const noexcept {
    return registrations_.size() - free_reg_ids_.size();
  }
  /// Filters currently forwarded to (i.e. requested from) `neighbor`.
  std::size_t forwarded_size(IfaceId neighbor) const;
  const Matcher& matcher() const noexcept { return *matcher_; }
  const Config& config() const noexcept { return config_; }
  /// Always 0: no engine needs structural maintenance, so the table runs
  /// none. Kept only because the end-to-end benchmark (bench/e2e) still
  /// reports it as a per-layer metric.
  std::uint64_t maintain_runs() const noexcept { return 0; }
  /// Entries of the covering signature index (one per registered
  /// filter, one per member for a set-membership signature). 0 once no
  /// filter is registered.
  std::size_t signature_entries() const noexcept {
    return cover_index_.size();
  }

 private:
  /// Registration id: its index in registrations_ and its top-k window
  /// slot. Dense, recycled LIFO.
  using RegId = std::uint32_t;
  static constexpr RegId kNoRegId = 0xffffffff;
  /// Interned filter: one per distinct canonical key in this table, dense
  /// and recycled LIFO — the AttrTable idiom applied to filters, per
  /// table and refcounted, and the filter's matcher id (the engine holds
  /// its one copy). The control plane (forwarded sets, broker
  /// registrations, the cover index) works on these ids; keys appear only
  /// at interning, on a mutual-cover tie, and in emitted (sorted) output.
  using FilterId = std::uint32_t;
  static constexpr FilterId kNoFilterId = 0xffffffff;

  struct ClientIface {
    std::unordered_map<SubscriptionId, RegId> reg_ids;
  };
  struct BrokerIface {
    /// Filters received from this neighbor (at most one registration per
    /// distinct filter).
    std::unordered_map<FilterId, RegId> reg_ids;
    /// Filters we have handed out *to* this neighbor, sorted by id; each
    /// holds a forward reference on its FilterRecord.
    std::vector<FilterId> forwarded;
  };
  /// A non-neutral spec with its text attributes interned to ids, in spec
  /// order (duplicates kept), so the scored match path never hashes an
  /// attribute name.
  struct ScoredSpec {
    ScoringSpec spec;
    std::vector<AttrId> attr_ids;
  };
  /// One registration of an interned filter: who gets a hit on it. A
  /// free record (its id on free_reg_ids_) has iface kNoIface.
  struct Registration {
    IfaceId iface = kNoIface;
    bool from_broker = false;
    SubscriptionId client_sub = 0;  // valid when !from_broker
    /// Null for a neutral spec; behind a pointer so ScoredDestination's
    /// view of it outlives growth of registrations_.
    std::unique_ptr<const ScoredSpec> scored;
    FilterId filter = 0;
    /// Next (larger) registration id of the filter (FilterRecord::first_reg).
    RegId next_reg = kNoRegId;
  };
  /// One distinct filter, in the matcher from intern() to
  /// release_if_unused(): still forwarded after its last registration, it
  /// matches with no destination until a refresh retracts it. A free
  /// record (its id on free_filter_ids_) has regs == forwards == 0.
  struct FilterRecord {
    std::uint64_t key_hash = 0;  // its filter_ids_ key
    std::uint32_t regs = 0;      // registrations
    std::uint32_t forwards = 0;  // forwarded sets holding it
    RegId first_reg = kNoRegId;  // head of the registrations' list
  };

  /// Persistent covering signature index over the registered filters
  /// (regs > 0): a filter is filed when its registration count goes 0->1
  /// and unfiled on 1->0. Buckets are multimap keys, so an emptied bucket
  /// leaves nothing behind. See routing_table.cpp for the signature rule
  /// and why probing a filter's own constraints reaches every filter that
  /// can cover it.
  class SignatureIndex {
   public:
    void add(FilterId id, const Filter& filter);
    void remove(FilterId id, const Filter& filter);
    /// True when `pred(id)` holds for some filed id that may cover
    /// `filter` (the filter's own id included, ids possibly repeated);
    /// stops at the first hit.
    template <typename Pred>
    bool any_candidate(const Filter& filter, Pred&& pred) const;
    std::size_t size() const noexcept { return buckets_.size(); }

   private:
    /// Keyed by a hash of (attribute, value) for a value bucket, of the
    /// attribute alone for an attribute bucket, and one fixed key for the
    /// empty filters: a collision only adds candidates that Filter::covers
    /// rejects.
    std::unordered_multimap<std::uint64_t, FilterId> buckets_;
  };

  /// The id `filter`'s key is interned under, interning it into the
  /// matcher when new (a new record has no registration yet: add_entry it).
  FilterId intern(Filter filter);
  /// Registers the filter interned as `filter_id` under a new RegId.
  RegId add_entry(FilterId filter_id, IfaceId iface, bool from_broker,
                  SubscriptionId client_sub, ScoringSpec scoring = {});
  void remove_entry(RegId reg_id);
  /// The stored spec of a registration (neutral when it has none).
  ScoringSpec entry_scoring(RegId reg_id) const;

  /// The id `key` is interned under, or kNoFilterId.
  FilterId find_filter(const std::string& key) const;
  const Filter& filter_of(FilterId id) const { return matcher_->filter(id); }
  const std::string& key_of(FilterId id) const { return filter_of(id).key(); }
  /// Drops one forward reference, freeing the record when none is left.
  void release_forward(FilterId id);
  void release_if_unused(FilterId id);
  /// Sorts `ids` by canonical key (the wire and replay order).
  void sort_by_key(std::vector<FilterId>& ids) const;

  /// Engine hits (FilterIds) for `events`, one vector per event, split over
  /// the pool in contiguous ranges (see Config::worker_threads).
  void match_engine_batch(std::span<const Event> events,
                          std::vector<std::vector<SubscriptionId>>& out) const;
  /// Matches `events` into `out`: make_hit(event index, RegId) for every
  /// registration of every filter hit, each event's vector reserved once.
  template <typename Hit, typename MakeHit>
  void expand_hits(std::span<const Event> events,
                   std::vector<std::vector<Hit>>& out, MakeHit&& make_hit) const;

  Config config_;
  std::unordered_map<IfaceId, BrokerIface> broker_ifaces_;
  std::unordered_map<IfaceId, ClientIface> client_ifaces_;

  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when worker_threads == 0
  std::vector<Registration> registrations_;  // by RegId
  std::vector<RegId> free_reg_ids_;         // released ids, reused LIFO

  /// Interning, keyed by fnv1a64 of the canonical key; the filter itself
  /// holds the key, so colliding hashes are told apart by comparing it.
  std::unordered_multimap<std::uint64_t, FilterId> filter_ids_;
  std::vector<FilterRecord> filters_;  // by FilterId
  std::vector<FilterId> free_filter_ids_;  // released ids, reused LIFO
  SignatureIndex cover_index_;

  // refresh() scratch, kept across calls for its capacity.
  std::vector<const Filter*> visible_;  // by FilterId; null = not visible
  std::vector<FilterId> desired_;
};

}  // namespace reef::pubsub
