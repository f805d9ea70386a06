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
/// independently; the flush delay stays broker-local — the table never
/// touches the network.
RoutingTable::Config make_table_config(const Broker::Config& config) {
  RoutingTable::Config table;
  table.covering_enabled = config.covering_enabled;
  table.engine = config.matcher_engine;
  table.worker_threads = config.worker_threads;
  return table;
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
      channel_(sim, net, config_.control) {
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
  dirty_.push_back(true);
  schedule_refresh();
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
  if (msg.type == kTypePublish || msg.type == kTypePublishBatch) {
    on_publish(msg.from,
               std::any_cast<const PublishBatchMsg&>(msg.payload).events);
  } else {
    util::log_warn("broker") << name_ << ": unknown message type " << msg.type;
  }
}

void Broker::on_ctrl_op(sim::NodeId from, const CtrlOp& op) {
  switch (op.kind) {
    case CtrlOp::Kind::kClientSubscribe:
      ++stats_.subs_received;
      table_.client_subscribe(from, op.sub_id, op.filter, op.scoring);
      mark_dirty(sim::kNoNode);
      break;
    case CtrlOp::Kind::kClientUnsubscribe:
      ++stats_.subs_received;
      if (table_.client_unsubscribe(from, op.sub_id)) {
        mark_dirty(sim::kNoNode);
      }
      break;
    case CtrlOp::Kind::kSubscribe:
      ++stats_.subs_received;
      // Propagate onward, but never back where it came from; a
      // re-subscribe changes nothing.
      if (table_.broker_subscribe(from, op.filter)) {
        mark_dirty(from);
      }
      break;
    case CtrlOp::Kind::kUnsubscribe:
      ++stats_.subs_received;
      if (table_.broker_unsubscribe(from, op.filter)) {
        mark_dirty(from);
      }
      break;
    case CtrlOp::Kind::kResyncRequest:
      on_resync_request(from, op.digest);
      break;
    case CtrlOp::Kind::kResyncState:
      if (table_.broker_resync(from, op.filters)) {
        mark_dirty(from);
      }
      break;
    case CtrlOp::Kind::kClientResyncState:
      if (table_.client_resync(from, op.subs)) {
        mark_dirty(sim::kNoNode);
      }
      break;
  }
}

// --- fault tolerance ---------------------------------------------------------

void Broker::on_peer_restart(sim::NodeId peer) {
  // The peer's epoch bumped: it lost all state. Restart our stream toward
  // it (any unacked backlog is superseded by the resync that follows) and
  // void everything we had learned from it — its wants died with it; the
  // resync request it is about to deliver re-establishes what it needs.
  channel_.reset_peer_send(peer);
  if (!table_.has_broker_iface(peer)) return;
  if (table_.drop_broker_iface_state(peer)) {
    mark_dirty(peer);
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

void Broker::heartbeat_tick() {
  if (!alive_) return;
  for (const sim::NodeId neighbor : neighbors_) {
    ++stats_.heartbeats_sent;
    net_.send(id_, neighbor, std::string(kTypeHeartbeat), HeartbeatMsg{},
              kHeartbeatWireBytes);
  }
  const sim::Time timeout = 4 * config_.heartbeat_period;
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
  dirty_.assign(dirty_.size(), false);
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
  if (!config_.control.enabled) return;  // best-effort: empty until churn
  // Anti-entropy: ask every peer for the state this incarnation lost. The
  // requests ride the (fresh-epoch) reliable streams, so they survive any
  // fault that outlives the restart.
  for (const sim::NodeId neighbor : neighbors_) send_resync_request(neighbor);
  for (const sim::NodeId client : clients_) send_resync_request(client);
}

void Broker::on_publish(sim::NodeId from, std::span<const Event> events) {
  stats_.pubs_received += events.size();
  ++stats_.matches_run;
  std::vector<std::vector<RoutingTable::Destination>> hits;
  if (config_.scoring_enabled) {
    table_.match_batch_scored(events, hits);
    const DeliverySelector::Counts cut = selector_.select(from, hits);
    stats_.scored_matches += cut.scored_matches;
    stats_.suppressed_by_k += cut.suppressed_by_k;
    stats_.suppressed_by_threshold += cut.suppressed_by_threshold;
  } else {
    table_.match_batch(events, hits);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    route_event(from, events[i], hits[i]);
  }
}

void Broker::route_event(sim::NodeId from, const Event& event,
                         const std::vector<RoutingTable::Destination>& hits) {
  // Group matches by interface; an event crosses each interface once.
  // Interfaces are visited in id order and each client's matched-sub list
  // is sorted, so the broker's output is a pure function of the match
  // *sets* — engines (any worker count) that agree on the
  // sets produce byte-identical wire traffic regardless of hit order. A
  // scored delivery leaves in exactly the position its boolean twin would.
  broker_hits_.clear();
  client_hits_.clear();
  for (const RoutingTable::Destination& hit : hits) {
    if (hit.iface == from) continue;  // never echo back
    if (hit.is_broker) {
      // Graceful degradation: no data-plane traffic into a suspected-dead
      // neighbor's black hole. Its routes stay in the table and the
      // quarantine lifts on its first sign of life.
      if (quarantined_.contains(hit.iface)) continue;
      broker_hits_.push_back(hit.iface);
      continue;
    }
    ClientHit client{.client = hit.iface, .sub = hit.client_sub};
    if (hit.scoring != nullptr) {
      if (hit.suppressed) continue;
      client.score = hit.score;
      client.scored = true;
    }
    client_hits_.push_back(client);
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

DeliverySelector::Counts DeliverySelector::select(
    RoutingTable::IfaceId from,
    std::vector<std::vector<RoutingTable::Destination>>& hits) {
  // The window is the wire-message batch, so its composition depends only
  // on what the sender framed together, never on engine or worker count;
  // an upstream flush delay that merges publications merges windows.
  const auto is_candidate = [from](const RoutingTable::Destination& hit) {
    return hit.scoring != nullptr && hit.iface != from;  // never echo
  };
  // Pass 1: count each window's candidates.
  ++epoch_;
  live_.clear();
  for (const auto& event_hits : hits) {
    for (const RoutingTable::Destination& hit : event_hits) {
      if (!is_candidate(hit)) continue;
      assert(hit.slot != kNoScoringSlot && "a spec without a window slot");
      if (hit.slot >= windows_.size()) windows_.resize(hit.slot + 1);
      Window& window = windows_[hit.slot];
      if (window.epoch != epoch_) {
        window = Window{epoch_, hit.scoring, 0, 0};
        live_.push_back(hit.slot);
      }
      ++window.size;
    }
  }
  // Lay the windows' runs out back to back.
  std::uint32_t total = 0;
  for (const std::uint32_t slot : live_) {
    Window& window = windows_[slot];
    window.begin = total;
    total += window.size;
    window.size = 0;  // refilled by the scatter
  }
  cands_.resize(total);
  // Pass 2: scatter each candidate into its window's run, in event order.
  for (std::uint32_t i = 0; i < hits.size(); ++i) {
    for (std::uint32_t j = 0; j < hits[i].size(); ++j) {
      const RoutingTable::Destination& hit = hits[i][j];
      if (!is_candidate(hit)) continue;
      Window& window = windows_[hit.slot];
      cands_[window.begin + window.size++] = TopKCandidate{hit.score, i, j};
    }
  }
  // Pass 3: per window, the min_score filter then the top-k cut; ties at
  // the cut break by ascending event order, so the surviving set is a
  // pure function of the window's (event, score) pairs.
  Counts counts;
  counts.scored_matches = total;
  for (const std::uint32_t slot : live_) {
    const Window& window = windows_[slot];
    const std::span<TopKCandidate> run(cands_.data() + window.begin,
                                       window.size);
    const TopKCut cut =
        cut_top_k(run, window.spec->top_k, window.spec->min_score);
    counts.suppressed_by_threshold += run.size() - cut.eligible;
    counts.suppressed_by_k += cut.eligible - cut.kept;
    for (const TopKCandidate& c : run.subspan(cut.kept)) {
      hits[c.order][c.handle].suppressed = true;
    }
  }
  return counts;
}

// --- output coalescing -------------------------------------------------------

void Broker::note_flush(std::size_t units, sim::Time enqueue_time_sum) {
  stats_.flushed_units += units;
  stats_.residence_ticks_total +=
      static_cast<sim::Time>(units) * sim_.now() - enqueue_time_sum;
}

void Broker::enqueue_publish(sim::NodeId neighbor, const Event& event) {
  ++stats_.pubs_forwarded;
  PendingPubs& pending = pending_pubs_[neighbor];
  pending.enqueue_time_sum += sim_.now();
  pending.events.push_back(event);
  schedule_flush();
}

void Broker::enqueue_delivery(sim::NodeId client, const Event& event,
                              std::vector<SubscriptionId> subs,
                              std::vector<double> scores) {
  ++stats_.deliveries;
  PendingDelivers& pending = pending_delivers_[client];
  pending.enqueue_time_sum += sim_.now();
  pending.items.push_back(
      DeliverMsg{event, std::move(subs), std::move(scores)});
  schedule_flush();
}

void Broker::schedule_flush() {
  if (flush_scheduled_) return;
  // With flush_max_delay_ticks = 0 this runs at the *current* instant,
  // after every already-queued event for this instant — i.e. after all
  // publications arriving this tick have been matched — so one wire
  // message carries the whole tick's output (the per-tick baseline). With
  // a delay the timer is armed by the oldest pending event and later
  // arrivals ride along, so no event waits longer than the delay.
  flush_scheduled_ = true;
  sim_.after(config_.flush_max_delay_ticks, [this] { flush_pending(); });
}

void Broker::flush_pending() {
  flush_scheduled_ = false;
  if (!alive_) return;  // crashed with a timer in flight: output is gone
  // Drain by moving the maps out so the flush (and the maps' memory) stay
  // proportional to this window's destinations, not every interface ever
  // sent to. Nothing re-enters the pending maps during the loop — sends
  // deliver asynchronously.
  auto pubs = std::exchange(pending_pubs_, {});
  for (auto& [neighbor, pending] : pubs) {
    note_flush(pending.events.size(), pending.enqueue_time_sum);
    send_publishes(neighbor, std::move(pending.events));
  }
  auto delivers = std::exchange(pending_delivers_, {});
  for (auto& [client, pending] : delivers) {
    note_flush(pending.items.size(), pending.enqueue_time_sum);
    send_deliveries(client, std::move(pending.items));
  }
}

void Broker::send_publishes(sim::NodeId neighbor, std::vector<Event> events) {
  ++stats_.pub_msgs_sent;
  const std::size_t bytes = publish_batch_wire_size(events);
  const std::size_t units = events.size();
  net_.send(id_, neighbor, std::string(publish_type(units)),
            PublishBatchMsg{std::move(events)}, bytes, units);
}

void Broker::send_deliveries(sim::NodeId client,
                             std::vector<DeliverMsg> items) {
  ++stats_.deliver_msgs_sent;
  const std::size_t bytes = deliver_batch_wire_size(items);
  const std::size_t units = items.size();
  net_.send(id_, client, std::string(deliver_type(units)),
            DeliverBatchMsg{std::move(items)}, bytes, units);
}

// --- subscription forwarding -------------------------------------------------

void Broker::refresh_neighbor(sim::NodeId neighbor) {
  RoutingTable::Diff diff = table_.refresh(neighbor);
  for (Filter& filter : diff.subscribe) {
    ++stats_.subs_forwarded;
    CtrlOp op;
    op.kind = CtrlOp::Kind::kSubscribe;
    op.filter = std::move(filter);
    channel_.send(neighbor, std::move(op));
  }
  for (Filter& filter : diff.unsubscribe) {
    ++stats_.unsubs_forwarded;
    CtrlOp op;
    op.kind = CtrlOp::Kind::kUnsubscribe;
    op.filter = std::move(filter);
    channel_.send(neighbor, std::move(op));
  }
}

void Broker::mark_dirty(sim::NodeId except) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] != except) dirty_[i] = true;
  }
  schedule_refresh();
}

void Broker::schedule_refresh() {
  if (refresh_scheduled_) return;
  if (std::find(dirty_.begin(), dirty_.end(), true) == dirty_.end()) return;
  // Like the per-tick flush, the pass runs at this instant after every
  // arrival already queued for it (see the control-plane coalescing
  // invariants in broker.h).
  refresh_scheduled_ = true;
  sim_.after(0, [this] { refresh_dirty(); });
}

void Broker::refresh_dirty() {
  refresh_scheduled_ = false;
  if (!alive_) return;  // crashed with a pass in flight: its state is gone
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (!dirty_[i]) continue;
    dirty_[i] = false;
    refresh_neighbor(neighbors_[i]);
  }
}

}  // namespace reef::pubsub
