// Content-based pub/sub broker (Siena-style subscription forwarding).
//
// Brokers form an *acyclic* overlay. The routing logic — which filters are
// reachable through which interface, covering-based pruning of forwarded
// subscriptions, and event-to-interface matching — lives in RoutingTable;
// the Broker is a thin adapter that decodes protocol messages, feeds the
// table, and ships the table's answers over the simulated network.
//
// Publications crossing the broker are *coalesced per interface* until the
// flush timer fires: instead of one wire message per event, everything
// bound for the same neighbor (or client) leaves in a single
// PublishBatchMsg / DeliverBatchMsg (one entry or many: messages.h picks
// the tag and framing), and every inbound publication message is matched
// through the amortized Matcher::match_batch path.
//
// ## Flush-policy invariants (Config::flush_max_delay_ticks)
//
// Pending per-interface output leaves on the flush timer only; the delay
// budget decides *when*, never *what*:
//
//   1. Delivery sets are delay-independent. Every (event, interface,
//      subscription) delivery the match sets imply is eventually sent
//      exactly once, in enqueue order per interface, for every delay.
//      (One caveat inherited from per-tick batching: holding an event
//      longer can let it race a subscription change in flight — pub/sub
//      gives no ordering guarantee in that window. With settled
//      subscriptions, delivery sets are identical across all delays; the
//      differential fuzz harness holds this.) Scored top-k windows are the
//      exception: a window is one inbound wire message, so a delay that
//      merges publications upstream can merge windows downstream.
//   2. Output is order-canonical. The flush visits pending interfaces in
//      interface-id order and client matched-sub lists are sorted, so any
//      two configurations that produce the same batch boundaries produce
//      byte-identical wire traffic.
//   3. flush_max_delay_ticks = 0 is strict per-tick coalescing: the
//      flush runs at the current instant after every already-queued
//      arrival (the Simulator guarantees same-instant FIFO), so one wire
//      message per interface carries the whole tick's output.
//   4. Per-event residence (flush time minus enqueue time, in sim clock
//      ticks) accumulates in residence_ticks_total over flushed_units —
//      the bench's latency-vs-throughput sweep reads both.
//
// ## Control-plane coalescing (one refresh pass per instant)
//
// A subscription op or a peer restart only marks the neighbors whose
// forwarded set it may change; the first mark of an instant arms one pass
// at that instant, after every arrival already queued for it (the
// same-instant FIFO the per-tick flush relies on).
//
//   1. One RoutingTable::refresh per dirty neighbor per instant: a burst
//      of ops (a population install, a resync) pays one pass, not one per
//      op.
//   2. Only the net diff crosses the link: a filter subscribed and
//      retracted, or subscribed and then covered, within the instant is
//      never forwarded.
//   3. The forwarded set at quiescence is unchanged. refresh() makes it a
//      function of current state alone, so coalescing moves only the order
//      of same-instant sends, never their sim time or the converged state.
//   4. A crash clears the dirty set and a pass in flight returns, so a dead
//      incarnation sends nothing. A resync request still refreshes its
//      requester synchronously (its digest compare needs synced
//      bookkeeping); the pass after it finds an empty diff.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pubsub/engines.h"
#include "pubsub/messages.h"
#include "pubsub/reliable_channel.h"
#include "pubsub/routing_table.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::pubsub {

/// Scored delivery's per-batch cut (Broker::Config::scoring_enabled; see
/// docs/ARCHITECTURE.md "Scored delivery"). A *window* is one non-neutral
/// client subscription's hits within one publication batch — the events
/// of one inbound wire message. Its buffers are reused across batches, so
/// in steady state a batch allocates nothing per window or per hit.
class DeliverySelector {
 public:
  struct Counts {
    std::uint64_t scored_matches = 0;           ///< candidates seen
    std::uint64_t suppressed_by_k = 0;          ///< cut by top_k
    std::uint64_t suppressed_by_threshold = 0;  ///< below min_score
  };

  /// Applies each window's min_score filter and top-k cut (cut_top_k)
  /// and marks the cut hits `suppressed` in place. Candidates are the
  /// hits carrying a spec, except echoes back to `from`. One linear pass:
  /// candidates are counted per window slot (Destination::slot, the
  /// subscription's engine id), scattered into back-to-back runs in event
  /// order, and each run is cut.
  Counts select(RoutingTable::IfaceId from,
                std::vector<std::vector<RoutingTable::Destination>>& hits);

 private:
  /// One live window: its candidates are cands_[begin, begin + size).
  /// Stamped with its batch's epoch, so an entry from an earlier batch
  /// reads as absent and nothing is cleared per batch.
  struct Window {
    std::uint64_t epoch = 0;
    const ScoringSpec* spec = nullptr;
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  std::vector<Window> windows_;        // by slot
  std::vector<std::uint32_t> live_;    // this batch's slots, first-hit order
  std::vector<TopKCandidate> cands_;   // every live window's run
  std::uint64_t epoch_ = 0;
};

class Broker final : public sim::Node {
 public:
  struct Config {
    /// Covering-based pruning of forwarded subscriptions (ablation knob).
    bool covering_enabled = true;
    /// Matching engine, by built-in name ("brute-force" or "bitset"; see
    /// engines.h).
    std::string matcher_engine = std::string(kDefaultEngine);
    /// Worker threads sharing each batch match: the routing table cuts a
    /// batch into contiguous event ranges, one per worker plus the
    /// calling thread, over its one engine; 0 matches inline on the
    /// simulator thread. Match output is bit-identical for every setting
    /// (tests/pubsub_workers_test.cpp holds this).
    std::size_t worker_threads = 0;
    /// Scored delivery (see scoring.h): publications are matched through
    /// the scored batch path and each client subscription's ScoringSpec
    /// (top_k / min_score) is applied per publication batch before
    /// deliveries are enqueued. Off by default — the boolean path of
    /// PR 1-9, byte for byte. With it on, subscriptions whose spec is
    /// neutral still produce byte-identical wire output to the disabled
    /// path (the neutral property the fuzz tier pins); only non-neutral
    /// specs attach scores and can suppress deliveries.
    bool scoring_enabled = false;
    /// The one flush rule: how long (in sim clock ticks, i.e. sim::Time
    /// microseconds) pending output may wait for more arrivals before the
    /// timer-driven flush sends it. 0 = flush at the end of the current
    /// instant — the strict per-tick coalescing of PR 1-4 and the
    /// ablation baseline. Larger values coalesce *across* ticks: fewer,
    /// larger wire messages, at up to this much added delivery latency
    /// per event (the bench's latency-vs-throughput sweep quantifies the
    /// trade). The deadline is armed when output goes pending with no
    /// timer in flight, so it is a *max* residence bound: later arrivals
    /// ride an already-armed timer and wait at most the remainder of its
    /// window, never longer than the delay.
    sim::Time flush_max_delay_ticks = 0;
    /// The control channel every subscription op goes through. With
    /// `control.enabled`, subscription traffic (broker-broker and
    /// client-broker) rides per-peer sequenced streams with cumulative
    /// acks and timeout/backoff retransmission, so partitions and lossy
    /// links can delay but never lose a subscribe/unsubscribe. Off by
    /// default: each op is sent once, best-effort, under its own type tag.
    /// Clients take the same config through
    /// Client::enable_reliable_control.
    ReliableChannel::Config control;
    /// Neighbor-liveness heartbeat period; 0 (default) disables
    /// heartbeats and suspicion entirely. A neighbor silent for more than
    /// four periods is suspected and its routes quarantined (data-plane
    /// traffic stops being forwarded into the black hole; control traffic
    /// keeps retransmitting). Any message from the neighbor un-quarantines.
    sim::Time heartbeat_period = 0;
  };

  struct Stats {
    std::uint64_t subs_received = 0;    ///< control msgs in (sub+unsub)
    std::uint64_t subs_forwarded = 0;   ///< kSubscribe ops sent to neighbors
    std::uint64_t unsubs_forwarded = 0; ///< kUnsubscribe ops sent
    std::uint64_t pubs_received = 0;    ///< events in (batch counts each)
    std::uint64_t pubs_forwarded = 0;   ///< events out to neighbors
    std::uint64_t pub_msgs_sent = 0;    ///< wire messages carrying them
    std::uint64_t deliveries = 0;       ///< (event, client) deliveries
    std::uint64_t deliver_msgs_sent = 0; ///< wire messages carrying them
    std::uint64_t matches_run = 0;      ///< matcher invocations (batch = 1)
    // --- scored delivery (Config::scoring_enabled; see scoring.h) ---
    /// Relevance scores computed for candidate deliveries to non-neutral
    /// subscriptions (the scored-fanout volume before suppression).
    std::uint64_t scored_matches = 0;
    /// Candidate deliveries cut by a subscription's top-k bound.
    std::uint64_t suppressed_by_k = 0;
    /// Candidate deliveries scoring below a subscription's min_score.
    std::uint64_t suppressed_by_threshold = 0;
    // --- flush introspection (see the flush-policy invariants) ---
    /// Logical units (events / deliveries) flushed, denominating
    /// residence_ticks_total.
    std::uint64_t flushed_units = 0;
    /// Sum over flushed units of (flush time - enqueue time) in sim clock
    /// ticks; mean event residence = residence_ticks_total / flushed_units.
    /// 0 under per-tick flushing (everything leaves the instant it arrived).
    sim::Time residence_ticks_total = 0;
    // --- fault tolerance (control.enabled / heartbeat_period) ---
    std::uint64_t retransmits = 0;     ///< control msgs resent on timeout
    std::uint64_t acks_sent = 0;       ///< cumulative acks emitted
    std::uint64_t heartbeats_sent = 0; ///< liveness probes to neighbors
    std::uint64_t suspicions = 0;      ///< neighbor quarantine transitions
    std::uint64_t resync_msgs = 0;     ///< anti-entropy msgs sent (req+state)
    std::uint64_t resync_bytes = 0;    ///< their wire bytes
  };

  Broker(sim::Simulator& sim, sim::Network& net, std::string name);
  Broker(sim::Simulator& sim, sim::Network& net, std::string name,
         Config config);

  sim::NodeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// Declares `other` a neighbor of this broker (one direction; the
  /// overlay helper wires both). The resulting graph must stay acyclic.
  void add_neighbor(Broker& other);

  /// Registers an attached client so deliveries can reach it. Called by
  /// Client::connect.
  void attach_client(sim::NodeId client);

  void handle_message(const sim::Message& msg) override;

  // --- crash/restart lifecycle ----------------------------------------------
  /// Crashes the broker: its in-memory routing table and pending output
  /// are lost and every timer stands down. The caller (Overlay::crash)
  /// also marks the node down so in-flight traffic is dropped.
  void crash();

  /// Restarts a crashed broker with an *empty* routing table: the static
  /// topology (neighbor and client interfaces) is re-declared, and with
  /// control.enabled, anti-entropy resync requests go to every
  /// neighbor and client to rebuild subscription state (without it the
  /// broker black-holes until new churn happens to repopulate it).
  void restart();

  bool alive() const noexcept { return alive_; }

  // --- introspection --------------------------------------------------------
  /// Snapshot of the counters (reliable-channel counters merged in).
  Stats stats() const noexcept {
    Stats merged = stats_;
    merged.retransmits = channel_.stats().retransmits;
    merged.acks_sent = channel_.stats().acks_sent;
    return merged;
  }
  /// Total filters stored across all interfaces (routing-table size).
  std::size_t table_size() const noexcept { return table_.size(); }
  /// Filters currently forwarded to (i.e. requested from) a neighbor.
  std::size_t forwarded_size(sim::NodeId neighbor) const {
    return table_.forwarded_size(neighbor);
  }
  std::size_t neighbor_count() const noexcept { return neighbors_.size(); }
  const std::vector<sim::NodeId>& neighbors() const noexcept {
    return neighbors_;
  }
  const RoutingTable& routing_table() const noexcept { return table_; }
  const ReliableChannel& control_channel() const noexcept { return channel_; }
  bool neighbor_quarantined(sim::NodeId neighbor) const {
    return quarantined_.contains(neighbor);
  }
  std::size_t quarantined_count() const noexcept {
    return quarantined_.size();
  }

 private:
  /// Matches one inbound publication message, through match_batch_scored
  /// when scoring is enabled and match_batch otherwise, and files every
  /// event into the per-interface output queues.
  void on_publish(sim::NodeId from, std::span<const Event> events);

  /// The one control-op dispatcher: subscription ops from either channel
  /// mode and the anti-entropy ops of the reliable stream.
  void on_ctrl_op(sim::NodeId from, const CtrlOp& op);

  // --- fault tolerance ---
  /// A peer came back with a higher epoch: drop its stale state and
  /// restart our stream toward it (the resync request follows on the
  /// fresh stream).
  void on_peer_restart(sim::NodeId peer);
  void on_resync_request(sim::NodeId from, std::uint64_t digest);
  void send_resync_request(sim::NodeId peer);
  void heartbeat_tick();

  /// Files one event of the batch being routed into the per-interface
  /// output queues. Client hits the selector_ marked `suppressed` are
  /// skipped and ones carrying a spec carry their score (both only on the
  /// scored path). Scores never influence grouping or order.
  void route_event(sim::NodeId from, const Event& event,
                   const std::vector<RoutingTable::Destination>& hits);

  /// One client destination of the event being routed; `score`/`scored`
  /// are set only on the scored path.
  struct ClientHit {
    sim::NodeId client = sim::kNoNode;
    SubscriptionId sub = 0;
    double score = kConstantScore;
    bool scored = false;  // carries a non-neutral spec
  };
  /// Enqueues the event collected in broker_hits_/client_hits_: one
  /// forward per distinct neighbor in id order, then one delivery per
  /// client in id order with its matched subs sorted by id (and scores
  /// attached when any of them is scored).
  void enqueue_routed(const Event& event);

  /// Sends the refresh diff for `neighbor` computed by the routing table.
  void refresh_neighbor(sim::NodeId neighbor);
  /// Marks every neighbor but `except` dirty and arms the refresh pass.
  void mark_dirty(sim::NodeId except);
  void schedule_refresh();
  /// The coalesced pass: one refresh_neighbor per dirty neighbor.
  void refresh_dirty();

  // --- output coalescing ---
  /// Pending per-interface output plus the sum of its enqueue times
  /// (residence of n units flushed at time t is n*t - enqueue_sum). The
  /// queued Events and DeliverMsgs are handles sharing the publication's
  /// one attribute block, so pending output holds no private copy of any
  /// event.
  struct PendingPubs {
    std::vector<Event> events;
    sim::Time enqueue_time_sum = 0;
  };
  struct PendingDelivers {
    std::vector<DeliverMsg> items;
    sim::Time enqueue_time_sum = 0;
  };

  void enqueue_publish(sim::NodeId neighbor, const Event& event);
  /// `scores` is parallel to `subs` on scored deliveries and empty
  /// otherwise (see DeliverMsg::scores).
  void enqueue_delivery(sim::NodeId client, const Event& event,
                        std::vector<SubscriptionId> subs,
                        std::vector<double> scores = {});
  /// Accounts residence for one outgoing batch of `units` logical units
  /// whose enqueue times sum to `enqueue_time_sum`.
  void note_flush(std::size_t units, sim::Time enqueue_time_sum);
  void schedule_flush();
  void flush_pending();
  void send_publishes(sim::NodeId neighbor, std::vector<Event> events);
  void send_deliveries(sim::NodeId client, std::vector<DeliverMsg> items);

  sim::Simulator& sim_;
  sim::Network& net_;
  std::string name_;
  Config config_;
  sim::NodeId id_;

  std::vector<sim::NodeId> neighbors_;
  /// Parallel to neighbors_: whose forwarded set awaits the refresh pass.
  std::vector<bool> dirty_;
  bool refresh_scheduled_ = false;
  std::vector<sim::NodeId> clients_;
  RoutingTable table_;

  // --- fault tolerance ---
  bool alive_ = true;
  ReliableChannel channel_;
  /// Last time each neighbor was heard from (any message type).
  std::unordered_map<sim::NodeId, sim::Time> last_heard_;
  /// Suspected-dead neighbors: data-plane forwarding to them is paused
  /// (control traffic keeps retransmitting, so recovery is automatic).
  std::unordered_set<sim::NodeId> quarantined_;

  /// Events awaiting the timer-driven flush, per destination interface.
  /// Ordered maps so the flush emits wire messages in interface order —
  /// part of the engine- and scheduling-independent output contract (see
  /// route_event).
  std::map<sim::NodeId, PendingPubs> pending_pubs_;
  std::map<sim::NodeId, PendingDelivers> pending_delivers_;
  bool flush_scheduled_ = false;

  /// Per-event routing scratch, reused across events (routing never
  /// re-enters itself: sends deliver asynchronously).
  std::vector<sim::NodeId> broker_hits_;
  std::vector<ClientHit> client_hits_;
  /// The scored path's top-k cut and its scratch, reused across batches.
  DeliverySelector selector_;

  Stats stats_;
};

}  // namespace reef::pubsub
