#include "pubsub/routing_table.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "pubsub/engines.h"
#include "pubsub/range_index.h"
#include "pubsub/sharded_matcher.h"
#include "util/hash.h"

namespace reef::pubsub {

namespace {

/// Builds the configured engine: the plain named engine, wrapped in a
/// ShardedMatcher iff the config asks for shards or workers.
std::unique_ptr<Matcher> make_table_matcher(const RoutingTable::Config& cfg) {
  if (cfg.shard_count <= 1 && cfg.worker_threads == 0) {
    return make_matcher(cfg.engine);
  }
  return std::make_unique<ShardedMatcher>(
      ShardedMatcher::Config{.shard_count = cfg.shard_count,
                             .worker_threads = cfg.worker_threads,
                             .inner_engine = cfg.engine});
}

}  // namespace

RoutingTable::RoutingTable() : RoutingTable(Config{}) {}

RoutingTable::RoutingTable(Config config)
    : config_(std::move(config)), matcher_(make_table_matcher(config_)) {}

void RoutingTable::add_broker_iface(IfaceId iface) {
  broker_ifaces_.try_emplace(iface);
}

void RoutingTable::add_client_iface(IfaceId iface) {
  client_ifaces_.try_emplace(iface);
}

std::uint64_t RoutingTable::add_entry(Filter filter, IfaceId iface,
                                      bool from_broker,
                                      SubscriptionId client_sub,
                                      ScoringSpec scoring) {
  const std::uint64_t engine_id = next_engine_id_++;
  matcher_->add(engine_id, filter);
  entries_.emplace(engine_id,
                   EngineEntry{std::move(filter), iface, from_broker,
                               client_sub});
  scoring_index_.set(engine_id, std::move(scoring));  // no-op when neutral
  return engine_id;
}

void RoutingTable::remove_entry(std::uint64_t engine_id) {
  matcher_->remove(engine_id);
  entries_.erase(engine_id);
  scoring_index_.erase(engine_id);
}

void RoutingTable::client_subscribe(IfaceId client, SubscriptionId sub_id,
                                    Filter filter, ScoringSpec scoring) {
  add_client_iface(client);
  ClientIface& iface = client_ifaces_[client];
  if (const auto it = iface.engine_ids.find(sub_id);
      it != iface.engine_ids.end()) {
    remove_entry(it->second);  // replace semantics on duplicate sub_id
  }
  iface.engine_ids[sub_id] =
      add_entry(std::move(filter), client, /*from_broker=*/false, sub_id,
                std::move(scoring));
}

bool RoutingTable::client_unsubscribe(IfaceId client, SubscriptionId sub_id) {
  const auto iface_it = client_ifaces_.find(client);
  if (iface_it == client_ifaces_.end()) return false;
  const auto sub_it = iface_it->second.engine_ids.find(sub_id);
  if (sub_it == iface_it->second.engine_ids.end()) return false;
  remove_entry(sub_it->second);
  iface_it->second.engine_ids.erase(sub_it);
  return true;
}

bool RoutingTable::broker_subscribe(IfaceId broker, Filter filter) {
  auto& iface = broker_ifaces_[broker];
  // Copy the key before add_entry moves the filter out.
  std::string key = filter.key();
  if (iface.engine_ids.contains(key)) return false;  // idempotent
  const std::uint64_t engine_id =
      add_entry(std::move(filter), broker, /*from_broker=*/true, 0);
  iface.engine_ids.emplace(std::move(key), engine_id);
  return true;
}

bool RoutingTable::broker_unsubscribe(IfaceId broker, const Filter& filter) {
  const auto iface_it = broker_ifaces_.find(broker);
  if (iface_it == broker_ifaces_.end()) return false;
  const auto key_it = iface_it->second.engine_ids.find(filter.key());
  if (key_it == iface_it->second.engine_ids.end()) return false;
  remove_entry(key_it->second);
  iface_it->second.engine_ids.erase(key_it);
  return true;
}

// --- fault tolerance ---------------------------------------------------------

bool RoutingTable::drop_broker_iface_state(IfaceId iface) {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return false;
  BrokerIface& broker = it->second;
  const bool changed =
      !broker.engine_ids.empty() || !broker.forwarded.empty();
  for (const auto& [key, engine_id] : broker.engine_ids) {
    remove_entry(engine_id);
  }
  broker.engine_ids.clear();
  broker.forwarded.clear();
  return changed;
}

bool RoutingTable::broker_resync(IfaceId broker,
                                 const std::vector<Filter>& want) {
  add_broker_iface(broker);
  BrokerIface& iface = broker_ifaces_.at(broker);
  std::map<std::string, const Filter*> desired;
  for (const Filter& filter : want) desired.emplace(filter.key(), &filter);
  bool changed = false;
  // Remove what the neighbor no longer wants.
  for (auto it = iface.engine_ids.begin(); it != iface.engine_ids.end();) {
    if (desired.contains(it->first)) {
      ++it;
      continue;
    }
    remove_entry(it->second);
    it = iface.engine_ids.erase(it);
    changed = true;
  }
  // Add what it wants and we don't have (dedup: present keys are kept
  // as-is, so a replayed state is a no-op).
  for (const auto& [key, filter] : desired) {
    if (iface.engine_ids.contains(key)) continue;
    const std::uint64_t engine_id =
        add_entry(*filter, broker, /*from_broker=*/true, 0);
    iface.engine_ids.emplace(key, engine_id);
    changed = true;
  }
  return changed;
}

bool RoutingTable::client_resync(IfaceId client,
                                 const std::vector<ClientSubscription>& subs) {
  add_client_iface(client);
  ClientIface& iface = client_ifaces_.at(client);
  std::unordered_map<SubscriptionId, const ClientSubscription*> desired;
  for (const ClientSubscription& sub : subs) desired.emplace(sub.sub_id, &sub);
  bool changed = false;
  for (auto it = iface.engine_ids.begin(); it != iface.engine_ids.end();) {
    const auto want = desired.find(it->first);
    if (want != desired.end() &&
        entries_.at(it->second).filter.key() == want->second->filter.key() &&
        entry_scoring(it->second) == want->second->scoring) {
      ++it;  // identical (sub_id, filter, scoring): keep, idempotent
      continue;
    }
    remove_entry(it->second);
    it = iface.engine_ids.erase(it);
    changed = true;
  }
  for (const auto& [sub_id, sub] : desired) {
    if (iface.engine_ids.contains(sub_id)) continue;
    iface.engine_ids[sub_id] = add_entry(sub->filter, client,
                                         /*from_broker=*/false, sub_id,
                                         sub->scoring);
    changed = true;
  }
  return changed;
}

std::uint64_t RoutingTable::broker_iface_digest(IfaceId iface) const {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const auto& [key, engine_id] : it->second.engine_ids) {
    digest ^= util::fnv1a64(key);
  }
  return digest;
}

std::uint64_t RoutingTable::client_iface_digest(IfaceId iface) const {
  const auto it = client_ifaces_.find(iface);
  if (it == client_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const auto& [sub_id, engine_id] : it->second.engine_ids) {
    digest ^= util::hash_combine(util::fnv1a64(entries_.at(engine_id).filter.key()),
                                 sub_id);
    // Fold non-neutral scoring specs so a spec change (same filter) is
    // not mistaken for matching state; ScoringSpec::hash() is 0 for
    // neutral specs, and folding nothing then keeps the PR 9 digest.
    if (const ScoringSpec* spec = scoring_index_.find(engine_id)) {
      digest ^= util::hash_combine(spec->hash(), sub_id);
    }
  }
  return digest;
}

std::uint64_t RoutingTable::forwarded_digest(IfaceId iface) const {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const auto& [key, filter] : it->second.forwarded) {
    digest ^= util::fnv1a64(key);
  }
  return digest;
}

std::vector<Filter> RoutingTable::forwarded_filters(IfaceId iface) const {
  std::vector<Filter> filters;
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return filters;
  filters.reserve(it->second.forwarded.size());
  // `forwarded` is keyed by canonical key in an unordered map; emit in
  // key order for a deterministic replay.
  std::map<std::string, const Filter*> ordered;
  for (const auto& [key, filter] : it->second.forwarded) {
    ordered.emplace(key, &filter);
  }
  for (const auto& [key, filter] : ordered) filters.push_back(*filter);
  return filters;
}

std::vector<ClientSubscription> RoutingTable::client_subscriptions(
    IfaceId client) const {
  std::vector<ClientSubscription> subs;
  const auto it = client_ifaces_.find(client);
  if (it == client_ifaces_.end()) return subs;
  subs.reserve(it->second.engine_ids.size());
  for (const auto& [sub_id, engine_id] : it->second.engine_ids) {
    subs.push_back(ClientSubscription{sub_id, entries_.at(engine_id).filter,
                                      entry_scoring(engine_id)});
  }
  std::sort(subs.begin(), subs.end(),
            [](const ClientSubscription& a, const ClientSubscription& b) {
              return a.sub_id < b.sub_id;
            });
  return subs;
}

std::string RoutingTable::state_fingerprint() const {
  std::vector<std::string> lines;
  lines.reserve(entries_.size());
  for (const auto& [engine_id, entry] : entries_) {
    if (entry.from_broker) {
      lines.push_back("B " + std::to_string(entry.iface) + " " +
                      entry.filter.key());
    } else {
      std::string line = "C " + std::to_string(entry.iface) + " " +
                         std::to_string(entry.client_sub) + " " +
                         entry.filter.key();
      // Non-neutral scoring is routing state too (a healed broker that
      // lost a spec would over-deliver); neutral entries keep the PR 9
      // fingerprint lines.
      if (const ScoringSpec* spec = scoring_index_.find(engine_id)) {
        line += " " + spec->summary();
      }
      lines.push_back(std::move(line));
    }
  }
  for (const auto& [iface, broker] : broker_ifaces_) {
    for (const auto& [key, filter] : broker.forwarded) {
      lines.push_back("F " + std::to_string(iface) + " " + key);
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::map<std::string, Filter> RoutingTable::filters_not_from(
    IfaceId excluded) const {
  std::map<std::string, Filter> out;
  for (const auto& [engine_id, entry] : entries_) {
    if (entry.iface == excluded) continue;
    out.try_emplace(entry.filter.key(), entry.filter);
  }
  return out;
}

namespace {

/// True when `filter` must be dropped from the minimal cover because
/// `other` covers it (and is not merely an equivalent filter for which
/// `filter` is the canonical, lexicographically-first representative).
bool dominates(const std::string& other_key, const Filter& other,
               const std::string& key, const Filter& filter) {
  if (other_key == key) return false;
  if (!other.covers(filter)) return false;
  return !filter.covers(other) || other_key < key;
}

}  // namespace

std::map<std::string, Filter> RoutingTable::minimal_cover_indexed(
    std::map<std::string, Filter> filters) {
  // Signature index: every non-empty filter is bucketed under one of its
  // constraints. Soundness rests on Filter::covers semantics — if g covers
  // f, then *every* constraint of g (its signature included) covers some
  // constraint of f on the same attribute. Hence g is reachable from f's
  // own constraints: an equality signature eq(a, v) only ever covers
  // eq(a, v) (cross-type numerics compare equal via canonical_numeric) or
  // an *empty* in-set (which everything covers vacuously), so value
  // buckets plus the empty-set fallback below suffice. A set-membership
  // signature in(a, S) covers only eq(a, m) / in(a, T subset of S) with a
  // bucketable member in common, so bucketing g under every bucketable
  // member value is reachable from f's per-member probes (members that are
  // null/NaN are unsatisfiable and can never witness a cover, so skipping
  // them is sound). Any other signature op is reachable through the
  // attribute bucket alone. Empty filters cover everything and are always
  // candidates.
  using Item = const std::pair<const std::string, Filter>*;
  std::vector<Item> empties;
  std::unordered_map<AttrId, std::unordered_map<Value, std::vector<Item>>,
                     AttrIdHash>
      eq_sig;
  std::unordered_map<AttrId, std::vector<Item>, AttrIdHash> attr_sig;
  for (const auto& entry : filters) {
    const Filter& filter = entry.second;
    if (filter.empty()) {
      empties.push_back(&entry);
      continue;
    }
    // Prefer an equality constraint as the signature: its value bucket
    // prunes far harder than an attribute bucket (feed subscriptions all
    // share their attributes but rarely their feed URL). Failing that, a
    // set-membership constraint buckets under every bucketable member —
    // still value-level pruning, at the cost of |set| bucket entries.
    const Constraint* sig = nullptr;
    const Constraint* in_sig = nullptr;
    for (const Constraint& c : filter.constraints()) {
      if (c.op() == Op::kEq) {
        sig = &c;
        break;
      }
      if (in_sig == nullptr && c.op() == Op::kIn) {
        for (const Value& m : c.members()) {
          if (eq_bucketable(m)) {
            in_sig = &c;
            break;
          }
        }
      }
    }
    if (sig != nullptr) {
      eq_sig[sig->attr_id()][canonical_numeric(sig->value())].push_back(
          &entry);
    } else if (in_sig != nullptr) {
      auto& buckets = eq_sig[in_sig->attr_id()];
      for (const Value& m : in_sig->members()) {
        if (eq_bucketable(m)) buckets[canonical_numeric(m)].push_back(&entry);
      }
    } else {
      attr_sig[filter.constraints().front().attr_id()].push_back(&entry);
    }
  }

  std::map<std::string, Filter> out;
  std::vector<Item> candidates;
  for (const auto& entry : filters) {
    const auto& [key, filter] = entry;
    candidates.assign(empties.begin(), empties.end());
    AttrId prev_attr = kNoAttrId;
    for (const Constraint& c : filter.constraints()) {
      // Constraints are canonically sorted, so one attribute-bucket probe
      // per distinct attribute.
      if (prev_attr == kNoAttrId || prev_attr != c.attr_id()) {
        prev_attr = c.attr_id();
        if (const auto it = attr_sig.find(c.attr_id());
            it != attr_sig.end()) {
          candidates.insert(candidates.end(), it->second.begin(),
                            it->second.end());
        }
      }
      if (c.op() == Op::kIn) {
        if (const auto attr_it = eq_sig.find(c.attr_id());
            attr_it != eq_sig.end()) {
          if (c.members().empty()) {
            // in {} matches nothing, so every value-bucketed signature on
            // this attribute covers it vacuously — all buckets are
            // candidates.
            for (const auto& bucket : attr_it->second) {
              candidates.insert(candidates.end(), bucket.second.begin(),
                                bucket.second.end());
            }
          } else {
            for (const Value& m : c.members()) {
              if (!eq_bucketable(m)) continue;
              if (const auto value_it =
                      attr_it->second.find(canonical_numeric(m));
                  value_it != attr_it->second.end()) {
                candidates.insert(candidates.end(), value_it->second.begin(),
                                  value_it->second.end());
              }
            }
          }
        }
        continue;
      }
      if (c.op() != Op::kEq) continue;
      if (const auto attr_it = eq_sig.find(c.attr_id());
          attr_it != eq_sig.end()) {
        if (const auto value_it =
                attr_it->second.find(canonical_numeric(c.value()));
            value_it != attr_it->second.end()) {
          candidates.insert(candidates.end(), value_it->second.begin(),
                            value_it->second.end());
        }
      }
    }
    bool dominated = false;
    for (const Item other : candidates) {
      if (dominates(other->first, other->second, key, filter)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.emplace(key, filter);
  }
  return out;
}

RoutingTable::Diff RoutingTable::refresh(IfaceId neighbor) {
  BrokerIface& iface = broker_ifaces_.at(neighbor);
  std::map<std::string, Filter> desired = filters_not_from(neighbor);
  if (config_.covering_enabled) {
    desired = minimal_cover_indexed(std::move(desired));
  }

  Diff diff;
  // Subscriptions that became necessary.
  for (const auto& [key, filter] : desired) {
    if (iface.forwarded.contains(key)) continue;
    diff.subscribe.push_back(filter);
    iface.forwarded.emplace(key, filter);
  }
  // Subscriptions no longer needed (or now covered). Collect keys in map
  // order for a deterministic diff.
  std::map<std::string, Filter> stale;
  for (const auto& [key, filter] : iface.forwarded) {
    if (!desired.contains(key)) stale.emplace(key, filter);
  }
  for (auto& [key, filter] : stale) {
    diff.unsubscribe.push_back(std::move(filter));
    iface.forwarded.erase(key);
  }
  return diff;
}

RoutingTable::Destination RoutingTable::destination_of(
    std::uint64_t engine_id) const {
  const EngineEntry& entry = entries_.at(engine_id);
  return Destination{entry.iface, entry.from_broker, entry.client_sub};
}

ScoringSpec RoutingTable::entry_scoring(std::uint64_t engine_id) const {
  const ScoringSpec* spec = scoring_index_.find(engine_id);
  return spec != nullptr ? *spec : ScoringSpec{};
}

void RoutingTable::match(const Event& event,
                         std::vector<Destination>& out) const {
  std::vector<SubscriptionId> engine_hits;
  matcher_->match(event, engine_hits);
  out.reserve(out.size() + engine_hits.size());
  for (const std::uint64_t engine_id : engine_hits) {
    out.push_back(destination_of(engine_id));
  }
}

void RoutingTable::match_batch(
    std::span<const Event> events,
    std::vector<std::vector<Destination>>& out) const {
  std::vector<std::vector<SubscriptionId>> engine_hits;
  matcher_->match_batch(events, engine_hits);
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[i].reserve(engine_hits[i].size());
    for (const std::uint64_t engine_id : engine_hits[i]) {
      out[i].push_back(destination_of(engine_id));
    }
  }
}

void RoutingTable::match_batch_scored(
    std::span<const Event> events,
    std::vector<std::vector<ScoredDestination>>& out) const {
  std::vector<std::vector<ScoredHit>> engine_hits;
  matcher_->match_batch_scored(events, scoring_index_, engine_hits);
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[i].reserve(engine_hits[i].size());
    for (const ScoredHit& hit : engine_hits[i]) {
      out[i].push_back(ScoredDestination{destination_of(hit.id), hit.score,
                                         scoring_index_.find(hit.id)});
    }
  }
}

std::size_t RoutingTable::forwarded_size(IfaceId neighbor) const {
  const auto it = broker_ifaces_.find(neighbor);
  return it == broker_ifaces_.end() ? 0 : it->second.forwarded.size();
}

}  // namespace reef::pubsub
