#include "pubsub/routing_table.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "pubsub/engines.h"
#include "pubsub/range_index.h"
#include "util/hash.h"

namespace reef::pubsub {

RoutingTable::RoutingTable() : RoutingTable(Config{}) {}

RoutingTable::RoutingTable(Config config)
    : config_(std::move(config)), matcher_(make_matcher(config_.engine)) {
  if (config_.worker_threads > 0) {
    pool_ = std::make_unique<util::ThreadPool>(config_.worker_threads);
  }
}

void RoutingTable::add_broker_iface(IfaceId iface) {
  broker_ifaces_.try_emplace(iface);
}

void RoutingTable::add_client_iface(IfaceId iface) {
  client_ifaces_.try_emplace(iface);
}

RoutingTable::FilterId RoutingTable::intern(Filter filter) {
  FilterId id = find_filter(filter.key());
  if (id != kNoFilterId) return id;
  // A new id comes off the free list LIFO, like registration ids.
  id = static_cast<FilterId>(filters_.size());
  if (free_filter_ids_.empty()) {
    filters_.emplace_back();
  } else {
    id = free_filter_ids_.back();
    free_filter_ids_.pop_back();
  }
  filters_[id].key_hash = util::fnv1a64(filter.key());
  filter_ids_.emplace(filters_[id].key_hash, id);
  matcher_->add(id, std::move(filter));
  return id;
}

RoutingTable::RegId RoutingTable::add_entry(FilterId filter_id, IfaceId iface,
                                            bool from_broker,
                                            SubscriptionId client_sub,
                                            ScoringSpec scoring) {
  RegId reg_id = static_cast<RegId>(registrations_.size());
  if (free_reg_ids_.empty()) {
    registrations_.emplace_back();
  } else {
    reg_id = free_reg_ids_.back();
    free_reg_ids_.pop_back();
  }
  FilterRecord& record = filters_[filter_id];
  // Linked in ascending id order (kNoRegId, the largest, ends the list), so
  // a filter's hits expand in registration order.
  RegId* link = &record.first_reg;
  while (*link < reg_id) link = &registrations_[*link].next_reg;
  Registration& entry = registrations_[reg_id];
  entry = Registration{iface,   from_broker, client_sub,
                       nullptr, filter_id,   *link};
  *link = reg_id;
  if (record.regs++ == 0) cover_index_.add(filter_id, filter_of(filter_id));
  if (!scoring.neutral()) {
    // Interning, not AttrTable::lookup: a spec may arrive before any event
    // carries its attribute, and the id it resolves to must be the one
    // those events get.
    std::vector<AttrId> attr_ids;
    attr_ids.reserve(scoring.text_attrs.size());
    for (const std::string& attr : scoring.text_attrs) {
      attr_ids.push_back(AttrTable::instance().intern(attr));
    }
    entry.scored = std::make_unique<const ScoredSpec>(
        ScoredSpec{std::move(scoring), std::move(attr_ids)});
  }
  return reg_id;
}

void RoutingTable::remove_entry(RegId reg_id) {
  const FilterId filter_id = registrations_[reg_id].filter;
  FilterRecord& record = filters_[filter_id];
  // Unlink the registration from its filter's list.
  RegId* link = &record.first_reg;
  while (*link != reg_id) link = &registrations_[*link].next_reg;
  *link = registrations_[reg_id].next_reg;
  if (--record.regs == 0) cover_index_.remove(filter_id, filter_of(filter_id));
  registrations_[reg_id] = Registration{};  // frees the spec
  free_reg_ids_.push_back(reg_id);
  release_if_unused(filter_id);
}

RoutingTable::FilterId RoutingTable::find_filter(const std::string& key) const {
  const auto [begin, end] = filter_ids_.equal_range(util::fnv1a64(key));
  for (auto it = begin; it != end; ++it) {
    if (key_of(it->second) == key) return it->second;
  }
  return kNoFilterId;
}

void RoutingTable::release_forward(FilterId id) {
  --filters_[id].forwards;
  release_if_unused(id);
}

void RoutingTable::release_if_unused(FilterId id) {
  FilterRecord& record = filters_[id];
  if (record.regs > 0 || record.forwards > 0) return;
  auto it = filter_ids_.find(record.key_hash);
  while (it->second != id) ++it;  // equal keys are adjacent
  filter_ids_.erase(it);
  matcher_->remove(id);
  record = FilterRecord{};
  free_filter_ids_.push_back(id);
}

void RoutingTable::sort_by_key(std::vector<FilterId>& ids) const {
  std::sort(ids.begin(), ids.end(), [this](FilterId a, FilterId b) {
    return key_of(a) < key_of(b);
  });
}

void RoutingTable::client_subscribe(IfaceId client, SubscriptionId sub_id,
                                    Filter filter, ScoringSpec scoring) {
  add_client_iface(client);
  ClientIface& iface = client_ifaces_[client];
  if (const auto it = iface.reg_ids.find(sub_id); it != iface.reg_ids.end()) {
    remove_entry(it->second);  // replace semantics on duplicate sub_id
  }
  iface.reg_ids[sub_id] =
      add_entry(intern(std::move(filter)), client, /*from_broker=*/false,
                sub_id, std::move(scoring));
}

bool RoutingTable::client_unsubscribe(IfaceId client, SubscriptionId sub_id) {
  const auto iface_it = client_ifaces_.find(client);
  if (iface_it == client_ifaces_.end()) return false;
  const auto sub_it = iface_it->second.reg_ids.find(sub_id);
  if (sub_it == iface_it->second.reg_ids.end()) return false;
  remove_entry(sub_it->second);
  iface_it->second.reg_ids.erase(sub_it);
  return true;
}

bool RoutingTable::broker_subscribe(IfaceId broker, Filter filter) {
  BrokerIface& iface = broker_ifaces_[broker];
  const FilterId filter_id = intern(std::move(filter));
  if (iface.reg_ids.contains(filter_id)) return false;  // idempotent
  iface.reg_ids.emplace(filter_id,
                        add_entry(filter_id, broker, /*from_broker=*/true, 0));
  return true;
}

bool RoutingTable::broker_unsubscribe(IfaceId broker, const Filter& filter) {
  const auto iface_it = broker_ifaces_.find(broker);
  if (iface_it == broker_ifaces_.end()) return false;
  const auto reg_it = iface_it->second.reg_ids.find(find_filter(filter.key()));
  if (reg_it == iface_it->second.reg_ids.end()) return false;
  remove_entry(reg_it->second);
  iface_it->second.reg_ids.erase(reg_it);
  return true;
}

// --- fault tolerance ---------------------------------------------------------

bool RoutingTable::drop_broker_iface_state(IfaceId iface) {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return false;
  BrokerIface& broker = it->second;
  const bool changed = !broker.reg_ids.empty() || !broker.forwarded.empty();
  for (const FilterId id : broker.forwarded) release_forward(id);
  broker.forwarded.clear();
  for (const auto& [id, reg_id] : broker.reg_ids) remove_entry(reg_id);
  broker.reg_ids.clear();
  return changed;
}

bool RoutingTable::broker_resync(IfaceId broker,
                                 const std::vector<Filter>& want) {
  add_broker_iface(broker);
  BrokerIface& iface = broker_ifaces_.at(broker);
  // The registrations `want` keeps, as sorted ids.
  std::vector<FilterId> kept;
  for (const Filter& filter : want) {
    const FilterId id = find_filter(filter.key());
    if (iface.reg_ids.contains(id)) kept.push_back(id);
  }
  std::sort(kept.begin(), kept.end());
  bool changed = false;
  // Remove what the neighbor no longer wants.
  for (auto it = iface.reg_ids.begin(); it != iface.reg_ids.end();) {
    if (std::binary_search(kept.begin(), kept.end(), it->first)) {
      ++it;
      continue;
    }
    remove_entry(it->second);
    it = iface.reg_ids.erase(it);
    changed = true;
  }
  // Add what it wants and we don't have (dedup: present filters are kept
  // as-is, so a replayed state is a no-op).
  for (const Filter& filter : want) {
    const FilterId filter_id = intern(filter);
    if (iface.reg_ids.contains(filter_id)) continue;
    iface.reg_ids.emplace(filter_id,
                          add_entry(filter_id, broker, /*from_broker=*/true, 0));
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
  for (auto it = iface.reg_ids.begin(); it != iface.reg_ids.end();) {
    const auto want = desired.find(it->first);
    if (want != desired.end() &&
        key_of(registrations_[it->second].filter) ==
            want->second->filter.key() &&
        entry_scoring(it->second) == want->second->scoring) {
      ++it;  // identical (sub_id, filter, scoring): keep, idempotent
      continue;
    }
    remove_entry(it->second);
    it = iface.reg_ids.erase(it);
    changed = true;
  }
  for (const auto& [sub_id, sub] : desired) {
    if (iface.reg_ids.contains(sub_id)) continue;
    iface.reg_ids[sub_id] = add_entry(intern(sub->filter), client,
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
  for (const auto& [id, reg_id] : it->second.reg_ids) {
    digest ^= util::fnv1a64(key_of(id));
  }
  return digest;
}

std::uint64_t RoutingTable::client_iface_digest(IfaceId iface) const {
  const auto it = client_ifaces_.find(iface);
  if (it == client_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const auto& [sub_id, reg_id] : it->second.reg_ids) {
    digest ^= client_subscription_digest(
        sub_id, filter_of(registrations_[reg_id].filter),
        entry_scoring(reg_id));
  }
  return digest;
}

std::uint64_t RoutingTable::forwarded_digest(IfaceId iface) const {
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return 0;
  std::uint64_t digest = 0;
  for (const FilterId id : it->second.forwarded) {
    digest ^= util::fnv1a64(key_of(id));
  }
  return digest;
}

std::vector<Filter> RoutingTable::forwarded_filters(IfaceId iface) const {
  std::vector<Filter> filters;
  const auto it = broker_ifaces_.find(iface);
  if (it == broker_ifaces_.end()) return filters;
  std::vector<FilterId> ordered = it->second.forwarded;
  sort_by_key(ordered);  // key order: a deterministic replay
  filters.reserve(ordered.size());
  for (const FilterId id : ordered) filters.push_back(filter_of(id));
  return filters;
}

std::vector<ClientSubscription> RoutingTable::client_subscriptions(
    IfaceId client) const {
  std::vector<ClientSubscription> subs;
  const auto it = client_ifaces_.find(client);
  if (it == client_ifaces_.end()) return subs;
  subs.reserve(it->second.reg_ids.size());
  for (const auto& [sub_id, reg_id] : it->second.reg_ids) {
    subs.push_back(ClientSubscription{
        sub_id, filter_of(registrations_[reg_id].filter),
        entry_scoring(reg_id)});
  }
  std::sort(subs.begin(), subs.end(),
            [](const ClientSubscription& a, const ClientSubscription& b) {
              return a.sub_id < b.sub_id;
            });
  return subs;
}

std::string RoutingTable::state_fingerprint() const {
  std::vector<std::string> lines;
  lines.reserve(size());
  for (const Registration& entry : registrations_) {
    if (entry.iface == kNoIface) continue;  // free record
    const std::string& key = key_of(entry.filter);
    if (entry.from_broker) {
      lines.push_back("B " + std::to_string(entry.iface) + " " + key);
    } else {
      std::string line = "C " + std::to_string(entry.iface) + " " +
                         std::to_string(entry.client_sub) + " " + key;
      // Non-neutral scoring is routing state too (a healed broker that
      // lost a spec would over-deliver); neutral entries keep the PR 9
      // fingerprint lines.
      if (entry.scored) line += " " + entry.scored->spec.summary();
      lines.push_back(std::move(line));
    }
  }
  for (const auto& [iface, broker] : broker_ifaces_) {
    for (const FilterId id : broker.forwarded) {
      lines.push_back("F " + std::to_string(iface) + " " + key_of(id));
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

// --- covering signature index ------------------------------------------------
//
// Every non-empty filter is filed under one of its constraints, its
// signature. Soundness rests on Filter::covers semantics — if g covers f,
// then *every* constraint of g (its signature included) covers some
// constraint of f on the same attribute. Hence g is reachable from f's own
// constraints: an equality signature eq(a, v) only ever covers eq(a, v)
// (cross-type numerics compare equal via canonical_numeric) or an *empty*
// in-set (which everything covers vacuously), so value buckets plus the
// empty-set fallback in any_candidate suffice. A set-membership signature
// in(a, S) covers only eq(a, m) / in(a, T subset of S) with a bucketable
// member in common, so filing g under every bucketable member value is
// reachable from f's per-member probes (members that are null/NaN are
// unsatisfiable and can never witness a cover, so skipping them is
// sound). Any other signature — an equality on a null/NaN value included —
// is reachable through the attribute bucket alone. Empty filters cover
// everything: they share one bucket, which every probe takes.

namespace {

/// The bucket key of eq(attr, value). Value::hash hashes an int through
/// its exact double image, so eq(p, 3) and eq(p, 3.0) share a bucket.
std::uint64_t value_key(AttrId attr, const Value& value) {
  return util::hash_combine(attr, value.hash());
}

/// The bucket key of the attribute bucket of `attr`.
constexpr std::uint64_t attr_key(AttrId attr) {
  return util::hash_combine(attr, 0);
}

/// The bucket of the empty filters.
constexpr std::uint64_t kEmptyKey = attr_key(kNoAttrId);

/// Calls visit(key) for each bucket `filter` is filed under.
/// Prefer an equality constraint as the signature: its value bucket
/// prunes far harder than an attribute bucket (feed subscriptions all
/// share their attributes but rarely their feed URL). Failing that, a
/// set-membership constraint files under every bucketable member — still
/// value-level pruning, at the cost of |set| entries.
template <typename Visit>
void for_each_signature(const Filter& filter, Visit&& visit) {
  if (filter.empty()) {
    visit(kEmptyKey);
    return;
  }
  const Constraint* in_sig = nullptr;
  for (const Constraint& c : filter.constraints()) {
    if (c.op() == Op::kEq && eq_bucketable(c.value())) {
      visit(value_key(c.attr_id(), c.value()));
      return;
    }
    if (in_sig == nullptr && c.op() == Op::kIn &&
        std::any_of(c.members().begin(), c.members().end(), eq_bucketable)) {
      in_sig = &c;
    }
  }
  if (in_sig != nullptr) {
    for (const Value& m : in_sig->members()) {
      if (eq_bucketable(m)) visit(value_key(in_sig->attr_id(), m));
    }
    return;
  }
  visit(attr_key(filter.constraints().front().attr_id()));
}

}  // namespace

void RoutingTable::SignatureIndex::add(FilterId id, const Filter& filter) {
  for_each_signature(filter,
                     [&](std::uint64_t key) { buckets_.emplace(key, id); });
}

void RoutingTable::SignatureIndex::remove(FilterId id, const Filter& filter) {
  for_each_signature(filter, [&](std::uint64_t key) {
    auto it = buckets_.find(key);
    while (it->second != id) ++it;  // equal keys are adjacent
    buckets_.erase(it);
  });
}

template <typename Pred>
bool RoutingTable::SignatureIndex::any_candidate(const Filter& filter,
                                                 Pred&& pred) const {
  const auto any_in = [&](std::uint64_t key) {
    const auto [begin, end] = buckets_.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (pred(it->second)) return true;
    }
    return false;
  };
  if (any_in(kEmptyKey)) return true;
  AttrId prev_attr = kNoAttrId;
  for (const Constraint& c : filter.constraints()) {
    // Constraints are canonically sorted, so one attribute-bucket probe
    // per distinct attribute.
    if (c.attr_id() != prev_attr) {
      prev_attr = c.attr_id();
      if (any_in(attr_key(c.attr_id()))) return true;
    }
    if (c.op() == Op::kEq) {
      if (eq_bucketable(c.value()) &&
          any_in(value_key(c.attr_id(), c.value()))) {
        return true;
      }
    } else if (c.op() == Op::kIn) {
      if (c.members().empty()) {
        // in {} matches nothing, so every signature on this attribute
        // covers it vacuously. Buckets are hashed, so take every filed
        // filter; covers() drops the other attributes. That walks the
        // whole index per such filter, but only a parsed or hand-built
        // "in {}" makes one: the Reef recommenders build no set-membership
        // constraint.
        for (const auto& [key, id] : buckets_) {
          if (pred(id)) return true;
        }
        continue;
      }
      for (const Value& m : c.members()) {
        if (eq_bucketable(m) && any_in(value_key(c.attr_id(), m))) return true;
      }
    }
  }
  return false;
}

// --- forwarding --------------------------------------------------------------

RoutingTable::Diff RoutingTable::refresh(IfaceId neighbor) {
  BrokerIface& iface = broker_ifaces_.at(neighbor);
  // A filter is visible to `neighbor` iff some interface other than the
  // neighbor registered it: regs(f) > [neighbor registered f].
  visible_.resize(filters_.size());  // geometric growth, unlike assign
  for (FilterId id = 0; id < filters_.size(); ++id) {
    visible_[id] = filters_[id].regs > 0 ? &filter_of(id) : nullptr;
  }
  for (const auto& [id, reg_id] : iface.reg_ids) {
    if (filters_[id].regs == 1) visible_[id] = nullptr;
  }

  // The desired forwarded set, built in id order (so sorted).
  desired_.clear();
  for (FilterId id = 0; id < filters_.size(); ++id) {
    const Filter* filter = visible_[id];
    if (filter == nullptr) continue;
    // Dropped when another visible filter covers it, unless the two are
    // equivalent and this one has the smaller key.
    const bool dominated =
        config_.covering_enabled &&
        cover_index_.any_candidate(*filter, [&](FilterId other_id) {
          const Filter* other = visible_[other_id];
          if (other_id == id || other == nullptr) return false;
          if (!other->covers(*filter)) return false;
          return !filter->covers(*other) || key_of(other_id) < key_of(id);
        });
    if (!dominated) desired_.push_back(id);
  }

  // The delta is two set differences of sorted id vectors; only the
  // emitted entries are put in key order.
  std::vector<FilterId> added;
  std::vector<FilterId> removed;
  std::set_difference(desired_.begin(), desired_.end(), iface.forwarded.begin(),
                      iface.forwarded.end(), std::back_inserter(added));
  std::set_difference(iface.forwarded.begin(), iface.forwarded.end(),
                      desired_.begin(), desired_.end(),
                      std::back_inserter(removed));
  sort_by_key(added);
  sort_by_key(removed);
  Diff diff;
  diff.subscribe.reserve(added.size());
  for (const FilterId id : added) {
    diff.subscribe.push_back(filter_of(id));
    ++filters_[id].forwards;
  }
  diff.unsubscribe.reserve(removed.size());
  for (const FilterId id : removed) {
    diff.unsubscribe.push_back(filter_of(id));
    release_forward(id);
  }
  iface.forwarded.swap(desired_);
  return diff;
}

ScoringSpec RoutingTable::entry_scoring(RegId reg_id) const {
  const Registration& entry = registrations_[reg_id];
  return entry.scored ? entry.scored->spec : ScoringSpec{};
}

void RoutingTable::match_engine_batch(
    std::span<const Event> events,
    std::vector<std::vector<SubscriptionId>>& out) const {
  const std::size_t ranges =
      std::min(config_.worker_threads + 1, events.size());
  if (ranges <= 1) {
    matcher_->match_batch(events, out);
    return;
  }
  // Contiguous ranges, each matched into its own slice of `out`: per-event
  // engine output does not depend on the rest of the batch (Matcher
  // contract point 2), so the result is the same for every range count
  // and every thread schedule.
  out.assign(events.size(), {});
  pool_->parallel_for(ranges, [&](std::size_t r) {
    const std::size_t begin = events.size() * r / ranges;
    const std::size_t end = events.size() * (r + 1) / ranges;
    std::vector<std::vector<SubscriptionId>> hits;
    matcher_->match_batch(events.subspan(begin, end - begin), hits);
    std::move(hits.begin(), hits.end(),
              out.begin() + static_cast<std::ptrdiff_t>(begin));
  });
}

template <typename MakeHit>
void RoutingTable::expand_hits(std::span<const Event> events,
                               std::vector<std::vector<Destination>>& out,
                               MakeHit&& make_hit) const {
  std::vector<std::vector<SubscriptionId>> filter_hits;
  match_engine_batch(events, filter_hits);
  out.assign(events.size(), {});
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::size_t regs = 0;
    for (const SubscriptionId id : filter_hits[i]) regs += filters_[id].regs;
    out[i].reserve(regs);
    for (const SubscriptionId id : filter_hits[i]) {
      for (RegId reg_id = filters_[id].first_reg; reg_id != kNoRegId;
           reg_id = registrations_[reg_id].next_reg) {
        out[i].push_back(make_hit(i, reg_id));
      }
    }
  }
}

void RoutingTable::match_batch(
    std::span<const Event> events,
    std::vector<std::vector<Destination>>& out) const {
  expand_hits(events, out, [this](std::size_t, RegId reg_id) {
    const Registration& entry = registrations_[reg_id];
    return Destination{entry.iface, entry.from_broker, entry.client_sub};
  });
}

void RoutingTable::match_batch_scored(
    std::span<const Event> events,
    std::vector<std::vector<Destination>>& out) const {
  // One TermBag per event per distinct attribute list, built at the first
  // BM25 hit that needs it; every other hit with an equal list scores
  // against it. The slots and their buffers are reused across the batch.
  struct BagSlot {
    const std::vector<AttrId>* attrs = nullptr;
    TermBag bag;
  };
  std::vector<BagSlot> bags;
  std::size_t bag_event = events.size();  // the event the live slots are for
  std::size_t live = 0;                   // slots built for bag_event
  const auto bag_for = [&](std::size_t i,
                           const std::vector<AttrId>& attrs) -> TermBag& {
    if (i != bag_event) {
      bag_event = i;
      live = 0;
    }
    for (std::size_t b = 0; b < live; ++b) {
      if (bags[b].attrs == &attrs || *bags[b].attrs == attrs) {
        return bags[b].bag;
      }
    }
    if (live == bags.size()) bags.emplace_back();
    BagSlot& slot = bags[live++];
    slot.attrs = &attrs;
    slot.bag.assign(events[i], attrs);
    return slot.bag;
  };
  expand_hits(events, out, [&](std::size_t i, RegId reg_id) {
    const Registration& entry = registrations_[reg_id];
    Destination hit{entry.iface, entry.from_broker, entry.client_sub};
    if (const ScoredSpec* scored = entry.scored.get()) {
      if (scored->spec.policy == ScoringPolicy::kBm25) {
        hit.score = bag_for(i, scored->attr_ids).score(scored->spec.query);
      }
      hit.scoring = &scored->spec;
      hit.slot = reg_id;
    }
    return hit;
  });
}

std::size_t RoutingTable::forwarded_size(IfaceId neighbor) const {
  const auto it = broker_ifaces_.find(neighbor);
  return it == broker_ifaces_.end() ? 0 : it->second.forwarded.size();
}

}  // namespace reef::pubsub
