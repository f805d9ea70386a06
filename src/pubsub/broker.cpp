#include "pubsub/broker.h"

#include <algorithm>
#include <any>
#include <cassert>
#include <tuple>
#include <utility>

#include "util/log.h"

namespace reef::pubsub {

namespace {

/// Forwards the broker's routing/matching knobs into the routing core.
/// Field-by-field (not positional) so the two Config structs can evolve
/// independently; the flush budgets stay broker-local — the table never
/// touches the network.
RoutingTable::Config make_table_config(const Broker::Config& config) {
  RoutingTable::Config table;
  table.covering_enabled = config.covering_enabled;
  table.engine = config.matcher_engine;
  table.shard_count = config.shard_count;
  table.worker_threads = config.worker_threads;
  return table;
}

ReliableChannel::Config make_channel_config(const Broker::Config& config) {
  ReliableChannel::Config channel;
  channel.enabled = config.reliable_control;
  channel.retransmit_timeout = config.retransmit_timeout;
  channel.retransmit_timeout_max = config.retransmit_timeout_max;
  return channel;
}

}  // namespace

Broker::Broker(sim::Simulator& sim, sim::Network& net, std::string name)
    : Broker(sim, net, std::move(name), Config{}) {}

Broker::Broker(sim::Simulator& sim, sim::Network& net, std::string name,
               Config config)
    : sim_(sim),
      net_(net),
      name_(std::move(name)),
      config_(config),
      table_(make_table_config(config_)),
      channel_(sim, net, make_channel_config(config_)) {
  id_ = net_.attach(*this, name_);
  channel_.bind(id_);
  channel_.set_deliver(
      [this](sim::NodeId from, const CtrlOp& op) { on_ctrl_op(from, op); });
  channel_.set_on_peer_restart(
      [this](sim::NodeId peer) { on_peer_restart(peer); });
  if (config_.heartbeat_period > 0) {
    sim_.every(config_.heartbeat_period, config_.heartbeat_period,
               [this] { heartbeat_tick(); });
  }
}

void Broker::add_neighbor(Broker& other) {
  assert(other.id() != id_);
  if (table_.has_broker_iface(other.id())) return;
  neighbors_.push_back(other.id());
  table_.add_broker_iface(other.id());
  last_heard_[other.id()] = sim_.now();
  // Bring the new neighbor up to date with everything reachable through us.
  refresh_neighbor(other.id());
}

void Broker::attach_client(sim::NodeId client) {
  if (std::find(clients_.begin(), clients_.end(), client) == clients_.end()) {
    clients_.push_back(client);
  }
  table_.add_client_iface(client);
}

void Broker::handle_message(const sim::Message& msg) {
  if (!alive_) return;  // the network drops these anyway; belt and braces
  if (table_.has_broker_iface(msg.from)) {
    // Any traffic from a neighbor is a liveness signal.
    last_heard_[msg.from] = sim_.now();
    quarantined_.erase(msg.from);
  }
  if (channel_.on_message(msg)) return;
  if (msg.type == kTypeHeartbeat) return;  // liveness recorded above
  if (msg.type == kTypeClientSubscribe) {
    on_client_subscribe(msg.from,
                        std::any_cast<const ClientSubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypeClientUnsubscribe) {
    on_client_unsubscribe(
        msg.from, std::any_cast<const ClientUnsubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypeSubscribe) {
    on_broker_subscribe(msg.from,
                        std::any_cast<const SubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypeUnsubscribe) {
    on_broker_unsubscribe(msg.from,
                          std::any_cast<const UnsubscribeMsg&>(msg.payload));
  } else if (msg.type == kTypePublish) {
    on_publish(msg.from, std::any_cast<const PublishMsg&>(msg.payload).event);
  } else if (msg.type == kTypePublishBatch) {
    on_publish_batch(msg.from,
                     std::any_cast<const PublishBatchMsg&>(msg.payload));
  } else {
    util::log_warn("broker") << name_ << ": unknown message type " << msg.type;
  }
}

void Broker::on_client_subscribe(sim::NodeId from,
                                 const ClientSubscribeMsg& msg) {
  ++stats_.subs_received;
  table_.client_subscribe(from, msg.sub_id, msg.filter, msg.scoring);
  refresh_all_neighbors_except(sim::kNoNode);
}

void Broker::on_client_unsubscribe(sim::NodeId from,
                                   const ClientUnsubscribeMsg& msg) {
  ++stats_.subs_received;
  if (!table_.client_unsubscribe(from, msg.sub_id)) return;
  refresh_all_neighbors_except(sim::kNoNode);
}

void Broker::on_broker_subscribe(sim::NodeId from, const SubscribeMsg& msg) {
  ++stats_.subs_received;
  if (!table_.broker_subscribe(from, msg.filter)) return;  // re-subscribe
  // Propagate onward, but never back where it came from.
  refresh_all_neighbors_except(from);
}

void Broker::on_broker_unsubscribe(sim::NodeId from,
                                   const UnsubscribeMsg& msg) {
  ++stats_.subs_received;
  if (!table_.broker_unsubscribe(from, msg.filter)) return;
  refresh_all_neighbors_except(from);
}

// --- fault tolerance ---------------------------------------------------------

void Broker::on_ctrl_op(sim::NodeId from, const CtrlOp& op) {
  switch (op.kind) {
    case CtrlOp::Kind::kSubscribe:
      on_broker_subscribe(from, SubscribeMsg{op.filter});
      break;
    case CtrlOp::Kind::kUnsubscribe:
      on_broker_unsubscribe(from, UnsubscribeMsg{op.filter});
      break;
    case CtrlOp::Kind::kClientSubscribe:
      on_client_subscribe(
          from, ClientSubscribeMsg{op.sub_id, op.filter, op.scoring});
      break;
    case CtrlOp::Kind::kClientUnsubscribe:
      on_client_unsubscribe(from, ClientUnsubscribeMsg{op.sub_id});
      break;
    case CtrlOp::Kind::kResyncRequest:
      on_resync_request(from, op.digest);
      break;
    case CtrlOp::Kind::kResyncState:
      on_resync_state(from, op.filters);
      break;
    case CtrlOp::Kind::kClientResyncState:
      on_client_resync_state(from, op.subs);
      break;
  }
}

void Broker::on_peer_restart(sim::NodeId peer) {
  // The peer's epoch bumped: it lost all state. Restart our stream toward
  // it (any unacked backlog is superseded by the resync that follows) and
  // void everything we had learned from it — its wants died with it; the
  // resync request it is about to deliver re-establishes what it needs.
  channel_.reset_peer_send(peer);
  if (!table_.has_broker_iface(peer)) return;
  if (table_.drop_broker_iface_state(peer)) {
    refresh_all_neighbors_except(peer);
  }
}

void Broker::send_resync_request(sim::NodeId peer) {
  CtrlOp op;
  op.kind = CtrlOp::Kind::kResyncRequest;
  op.digest = table_.has_broker_iface(peer) ? table_.broker_iface_digest(peer)
                                            : table_.client_iface_digest(peer);
  ++stats_.resync_msgs;
  stats_.resync_bytes += ctrl_op_wire_size(op);
  channel_.send(peer, std::move(op));
}

void Broker::on_resync_request(sim::NodeId from, std::uint64_t digest) {
  // Only a restarted neighbor broker sends these (clients answer them).
  if (!table_.has_broker_iface(from)) return;
  // Sync the forwarded bookkeeping to the desired set, discarding the
  // incremental diff — the full-state replay below supersedes it.
  (void)table_.refresh(from);
  if (table_.forwarded_digest(from) == digest) return;  // already in sync
  CtrlOp op;
  op.kind = CtrlOp::Kind::kResyncState;
  op.filters = table_.forwarded_filters(from);
  ++stats_.resync_msgs;
  stats_.resync_bytes += ctrl_op_wire_size(op);
  channel_.send(from, std::move(op));
}

void Broker::on_resync_state(sim::NodeId from, const std::vector<Filter>& want) {
  if (table_.broker_resync(from, want)) {
    refresh_all_neighbors_except(from);
  }
}

void Broker::on_client_resync_state(
    sim::NodeId from, const std::vector<ClientSubscription>& subs) {
  if (table_.client_resync(from, subs)) {
    refresh_all_neighbors_except(sim::kNoNode);
  }
}

void Broker::heartbeat_tick() {
  if (!alive_) return;
  for (const sim::NodeId neighbor : neighbors_) {
    ++stats_.heartbeats_sent;
    net_.send(id_, neighbor, std::string(kTypeHeartbeat), HeartbeatMsg{},
              kHeartbeatWireBytes);
  }
  const sim::Time timeout = config_.suspicion_timeout > 0
                                ? config_.suspicion_timeout
                                : 4 * config_.heartbeat_period;
  for (const sim::NodeId neighbor : neighbors_) {
    if (quarantined_.contains(neighbor)) continue;
    if (sim_.now() - last_heard_[neighbor] > timeout) {
      quarantined_.insert(neighbor);
      ++stats_.suspicions;
    }
  }
}

void Broker::crash() {
  alive_ = false;
  channel_.set_alive(false);
  // The incarnation's volatile state dies here: routing table, pending
  // output, channel streams. Neighbor/client lists survive — they are the
  // static configuration restart() re-declares.
  table_ = RoutingTable(make_table_config(config_));
  pending_pubs_.clear();
  pending_delivers_.clear();
  quarantined_.clear();
  channel_.reset_all();
}

void Broker::restart() {
  assert(!alive_ && "restart of a live broker");
  alive_ = true;
  channel_.set_alive(true);
  for (const sim::NodeId neighbor : neighbors_) {
    table_.add_broker_iface(neighbor);
    last_heard_[neighbor] = sim_.now();  // fresh suspicion clock
  }
  for (const sim::NodeId client : clients_) table_.add_client_iface(client);
  if (!config_.reliable_control) return;  // best-effort: empty until churn
  // Anti-entropy: ask every peer for the state this incarnation lost. The
  // requests ride the (fresh-epoch) reliable streams, so they survive any
  // fault that outlives the restart.
  for (const sim::NodeId neighbor : neighbors_) send_resync_request(neighbor);
  for (const sim::NodeId client : clients_) send_resync_request(client);
}

void Broker::on_publish(sim::NodeId from, const Event& event) {
  ++stats_.pubs_received;
  ++stats_.matches_run;
  if (config_.scoring_enabled) {
    const std::span<const Event> events{&event, 1};
    std::vector<std::vector<RoutingTable::ScoredDestination>> hits;
    table_.match_batch_scored(events, hits);
    route_scored(from, events, hits);
    return;
  }
  std::vector<RoutingTable::Destination> hits;
  table_.match(event, hits);
  route_event(from, event, hits);
}

void Broker::on_publish_batch(sim::NodeId from, const PublishBatchMsg& msg) {
  stats_.pubs_received += msg.events.size();
  ++stats_.matches_run;
  if (config_.scoring_enabled) {
    std::vector<std::vector<RoutingTable::ScoredDestination>> hits;
    table_.match_batch_scored(msg.events, hits);
    route_scored(from, msg.events, hits);
    return;
  }
  std::vector<std::vector<RoutingTable::Destination>> hits;
  table_.match_batch(msg.events, hits);
  for (std::size_t i = 0; i < msg.events.size(); ++i) {
    route_event(from, msg.events[i], hits[i]);
  }
}

void Broker::route_event(sim::NodeId from, const Event& event,
                         const std::vector<RoutingTable::Destination>& hits) {
  // Group matches by interface; an event crosses each interface once.
  // Interfaces are visited in id order and each client's matched-sub list
  // is sorted, so the broker's output is a pure function of the match
  // *sets* — engines (sharded or not, any worker count) that agree on the
  // sets produce byte-identical wire traffic regardless of hit order.
  broker_hits_.clear();
  client_hits_.clear();
  for (const RoutingTable::Destination& dest : hits) {
    if (dest.iface == from) continue;  // never echo back
    if (dest.is_broker) {
      // Graceful degradation: no data-plane traffic into a suspected-dead
      // neighbor's black hole. Its routes stay in the table and the
      // quarantine lifts on its first sign of life.
      if (quarantined_.contains(dest.iface)) continue;
      broker_hits_.push_back(dest.iface);
    } else {
      client_hits_.push_back(
          ClientHit{.client = dest.iface, .sub = dest.client_sub});
    }
  }
  enqueue_routed(event);
}

void Broker::enqueue_routed(const Event& event) {
  std::sort(broker_hits_.begin(), broker_hits_.end());
  broker_hits_.erase(std::unique(broker_hits_.begin(), broker_hits_.end()),
                     broker_hits_.end());
  for (const sim::NodeId neighbor : broker_hits_) {
    enqueue_publish(neighbor, event);
  }
  std::sort(client_hits_.begin(), client_hits_.end(),
            [](const ClientHit& a, const ClientHit& b) {
              return std::tie(a.client, a.sub) < std::tie(b.client, b.sub);
            });
  for (auto run = client_hits_.begin(); run != client_hits_.end();) {
    const auto end = std::find_if(run, client_hits_.end(),
                                  [client = run->client](const ClientHit& h) {
                                    return h.client != client;
                                  });
    bool any_scored = false;
    for (auto it = run; it != end; ++it) any_scored |= it->scored;
    const auto count = static_cast<std::size_t>(end - run);
    std::vector<SubscriptionId> subs;
    std::vector<double> scores;
    subs.reserve(count);
    if (any_scored) scores.reserve(count);
    for (auto it = run; it != end; ++it) {
      subs.push_back(it->sub);
      if (any_scored) scores.push_back(it->score);
    }
    enqueue_delivery(run->client, event, std::move(subs), std::move(scores));
    run = end;
  }
}

// --- scored delivery (Config::scoring_enabled) -------------------------------

void Broker::route_scored(
    sim::NodeId from, std::span<const Event> events,
    const std::vector<std::vector<RoutingTable::ScoredDestination>>& hits) {
  // Pass 1: collect, per (client, subscription) with a non-neutral policy,
  // the scored candidates of this publication batch — the top-k window.
  // The window is the wire-message batch, so its composition depends only
  // on what the publisher framed together, never on engine, shard, worker,
  // or flush-budget choices (see docs/ARCHITECTURE.md "Scored delivery").
  // Sorting by (client, subscription, event) lays each window out as one
  // run, its candidates in ascending event order.
  struct Candidate {
    sim::NodeId client = sim::kNoNode;
    SubscriptionId sub = 0;
    std::uint32_t index = 0;  // event position in the batch
    double score = kConstantScore;
    const ScoringSpec* spec = nullptr;
  };
  std::vector<Candidate> cands;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (const RoutingTable::ScoredDestination& sd : hits[i]) {
      if (sd.dest.is_broker || sd.scoring == nullptr) continue;
      if (sd.dest.iface == from) continue;  // never echo back
      ++stats_.scored_matches;
      cands.push_back(Candidate{sd.dest.iface, sd.dest.client_sub,
                                static_cast<std::uint32_t>(i), sd.score,
                                sd.scoring});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.client, a.sub, a.index) <
                     std::tie(b.client, b.sub, b.index);
            });
  // Pass 2: per window, the min_score filter then the bounded top-k cut.
  // Ties at the cut break by ascending event order (TopKSelector), so the
  // surviving set is a pure function of the window's (event, score) pairs.
  suppressed_.clear();
  for (auto run = cands.begin(); run != cands.end();) {
    const auto end = std::find_if(run, cands.end(), [&run](const Candidate& c) {
      return c.client != run->client || c.sub != run->sub;
    });
    const ScoringSpec& spec = *run->spec;
    TopKSelector topk(spec.top_k);
    std::size_t eligible = 0;
    for (auto it = run; it != end; ++it) {
      if (it->score < spec.min_score) {
        ++stats_.suppressed_by_threshold;
        suppressed_.emplace_back(it->index, it->client, it->sub);
        continue;
      }
      ++eligible;
      topk.offer(it->score, it->index);
    }
    const std::vector<std::uint32_t> survivors = topk.take();
    if (survivors.size() != eligible) {
      stats_.suppressed_by_k += eligible - survivors.size();
      // The run is in ascending event order and survivors is sorted, so
      // one linear merge marks the evicted candidates.
      std::size_t next = 0;
      for (auto it = run; it != end; ++it) {
        if (it->score < spec.min_score) continue;  // marked above
        if (next < survivors.size() && survivors[next] == it->index) {
          ++next;
          continue;
        }
        suppressed_.emplace_back(it->index, it->client, it->sub);
      }
    }
    run = end;
  }
  std::sort(suppressed_.begin(), suppressed_.end());
  // Pass 3: the boolean routing pass, per event in batch order, skipping
  // suppressed deliveries and attaching scores.
  for (std::size_t i = 0; i < events.size(); ++i) {
    route_event_scored(from, events[i], static_cast<std::uint32_t>(i),
                       hits[i]);
  }
}

void Broker::route_event_scored(
    sim::NodeId from, const Event& event, std::uint32_t event_index,
    const std::vector<RoutingTable::ScoredDestination>& hits) {
  // Mirrors route_event: interfaces in id order, per-client sub lists
  // sorted by id. Scores never influence grouping or order — a scored
  // delivery leaves in exactly the position its boolean twin would have.
  broker_hits_.clear();
  client_hits_.clear();
  for (const RoutingTable::ScoredDestination& sd : hits) {
    if (sd.dest.iface == from) continue;  // never echo back
    if (sd.dest.is_broker) {
      if (quarantined_.contains(sd.dest.iface)) continue;
      broker_hits_.push_back(sd.dest.iface);
      continue;
    }
    if (sd.scoring != nullptr &&
        std::binary_search(suppressed_.begin(), suppressed_.end(),
                           Suppressed{event_index, sd.dest.iface,
                                      sd.dest.client_sub})) {
      continue;
    }
    client_hits_.push_back(ClientHit{.client = sd.dest.iface,
                                     .sub = sd.dest.client_sub,
                                     .score = sd.score,
                                     .scored = sd.scoring != nullptr});
  }
  enqueue_routed(event);
}

// --- adaptive output coalescing ----------------------------------------------

std::optional<Broker::FlushCause> Broker::tripped_budget(
    std::size_t events, std::size_t bytes) const {
  if (config_.flush_max_events != 0 && events >= config_.flush_max_events) {
    return FlushCause::kEvents;
  }
  if (config_.flush_max_bytes != 0 && bytes >= config_.flush_max_bytes) {
    return FlushCause::kBytes;
  }
  return std::nullopt;
}

void Broker::note_flush(FlushCause cause, std::size_t units,
                        sim::Time enqueue_time_sum) {
  switch (cause) {
    case FlushCause::kEvents: ++stats_.flushes_by_events; break;
    case FlushCause::kBytes: ++stats_.flushes_by_bytes; break;
    case FlushCause::kDelay: ++stats_.flushes_by_delay; break;
  }
  stats_.flushed_units += units;
  stats_.residence_ticks_total +=
      static_cast<sim::Time>(units) * sim_.now() - enqueue_time_sum;
}

void Broker::enqueue_publish(sim::NodeId neighbor, const Event& event) {
  ++stats_.pubs_forwarded;
  PendingPubs& pending = pending_pubs_[neighbor];
  pending.bytes += publish_entry_wire_size(event);
  pending.enqueue_time_sum += sim_.now();
  pending.events.push_back(event);
  if (const auto cause =
          tripped_budget(pending.events.size(), pending.bytes)) {
    // Budget trip: this interface's batch leaves mid-tick, synchronously.
    // Extract before sending so a re-entrant enqueue (there is none today —
    // sends deliver asynchronously — but the invariant is cheap) starts a
    // fresh batch.
    auto node = pending_pubs_.extract(neighbor);
    PendingPubs& full = node.mapped();
    note_flush(*cause, full.events.size(), full.enqueue_time_sum);
    send_publishes(neighbor, std::move(full.events));
    return;
  }
  schedule_flush();
}

void Broker::enqueue_delivery(sim::NodeId client, const Event& event,
                              std::vector<SubscriptionId> subs,
                              std::vector<double> scores) {
  ++stats_.deliveries;
  PendingDelivers& pending = pending_delivers_[client];
  DeliverMsg item{event, std::move(subs), std::move(scores)};
  pending.bytes += deliver_entry_wire_size(item);
  pending.enqueue_time_sum += sim_.now();
  pending.items.push_back(std::move(item));
  if (const auto cause =
          tripped_budget(pending.items.size(), pending.bytes)) {
    auto node = pending_delivers_.extract(client);
    PendingDelivers& full = node.mapped();
    note_flush(*cause, full.items.size(), full.enqueue_time_sum);
    send_deliveries(client, std::move(full.items));
    return;
  }
  schedule_flush();
}

void Broker::schedule_flush() {
  if (flush_scheduled_) return;
  // With flush_max_delay_ticks = 0 this runs at the *current* instant,
  // after every already-queued event for this instant — i.e. after all
  // publications arriving this tick have been matched — so one wire
  // message carries the whole tick's output (the per-tick baseline). With
  // a delay budget the timer is armed by the oldest pending event and
  // later arrivals ride along, so no event waits longer than the budget.
  flush_scheduled_ = true;
  sim_.after(config_.flush_max_delay_ticks, [this] { flush_pending(); });
}

void Broker::flush_pending() {
  flush_scheduled_ = false;
  if (!alive_) return;  // crashed with a timer in flight: output is gone
  // Drain by moving the maps out so the flush (and the maps' memory) stay
  // proportional to this window's destinations, not every interface ever
  // sent to. Nothing re-enters the pending maps during the loop — sends
  // deliver asynchronously. The maps can be empty: a budget trip may have
  // drained everything since the timer was armed.
  auto pubs = std::exchange(pending_pubs_, {});
  for (auto& [neighbor, pending] : pubs) {
    note_flush(FlushCause::kDelay, pending.events.size(),
               pending.enqueue_time_sum);
    send_publishes(neighbor, std::move(pending.events));
  }
  auto delivers = std::exchange(pending_delivers_, {});
  for (auto& [client, pending] : delivers) {
    note_flush(FlushCause::kDelay, pending.items.size(),
               pending.enqueue_time_sum);
    send_deliveries(client, std::move(pending.items));
  }
}

void Broker::send_publishes(sim::NodeId neighbor, std::vector<Event> events) {
  ++stats_.pub_msgs_sent;
  if (events.size() == 1) {
    Event event = std::move(events.front());
    const std::size_t bytes = publish_msg_wire_size(event);
    net_.send(id_, neighbor, std::string(kTypePublish),
              PublishMsg{std::move(event)}, bytes);
    return;
  }
  const std::size_t bytes = publish_batch_wire_size(events);
  const std::size_t units = events.size();
  net_.send(id_, neighbor, std::string(kTypePublishBatch),
            PublishBatchMsg{std::move(events)}, bytes, units);
}

void Broker::send_deliveries(sim::NodeId client,
                             std::vector<DeliverMsg> items) {
  ++stats_.deliver_msgs_sent;
  if (items.size() == 1) {
    DeliverMsg item = std::move(items.front());
    const std::size_t bytes = deliver_msg_wire_size(item);
    net_.send(id_, client, std::string(kTypeDeliver), std::move(item), bytes);
    return;
  }
  const std::size_t bytes = deliver_batch_wire_size(items);
  const std::size_t units = items.size();
  net_.send(id_, client, std::string(kTypeDeliverBatch),
            DeliverBatchMsg{std::move(items)}, bytes, units);
}

// --- subscription forwarding -------------------------------------------------

void Broker::refresh_neighbor(sim::NodeId neighbor) {
  RoutingTable::Diff diff = table_.refresh(neighbor);
  for (Filter& filter : diff.subscribe) {
    ++stats_.subs_forwarded;
    if (config_.reliable_control) {
      CtrlOp op;
      op.kind = CtrlOp::Kind::kSubscribe;
      op.filter = std::move(filter);
      channel_.send(neighbor, std::move(op));
      continue;
    }
    const std::size_t bytes = filter.wire_size() + 8;
    net_.send(id_, neighbor, std::string(kTypeSubscribe),
              SubscribeMsg{std::move(filter)}, bytes);
  }
  for (Filter& filter : diff.unsubscribe) {
    ++stats_.unsubs_forwarded;
    if (config_.reliable_control) {
      CtrlOp op;
      op.kind = CtrlOp::Kind::kUnsubscribe;
      op.filter = std::move(filter);
      channel_.send(neighbor, std::move(op));
      continue;
    }
    const std::size_t bytes = filter.wire_size() + 8;
    net_.send(id_, neighbor, std::string(kTypeUnsubscribe),
              UnsubscribeMsg{std::move(filter)}, bytes);
  }
}

void Broker::refresh_all_neighbors_except(sim::NodeId except) {
  for (const sim::NodeId neighbor : neighbors_) {
    if (neighbor != except) refresh_neighbor(neighbor);
  }
}

}  // namespace reef::pubsub
