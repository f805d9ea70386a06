// The control-plane sender and receiver shared by Broker and Client: every
// subscription-control op goes out through ReliableChannel::send. Disabled
// (the default), the channel sends each op once, best-effort, under its
// kind's type tag (ctrl_op_type). Enabled, it runs a reliable per-peer
// control stream (go-back-N over the lossy simulated network).
//
// Each (self, peer) direction is an independent stream: monotone sequence
// numbers starting at 1 within the sender's current epoch, cumulative acks
// on every receipt (duplicates included, so lost acks self-repair), and
// timeout/backoff retransmission driven by sim timers — fully
// deterministic. Receivers accept only the next expected sequence number;
// anything else is discarded and re-acked, and the sender's timeout
// retransmits the whole unacked window (go-back-N). Combined with FIFO
// links this yields exactly-once-effective delivery of control operations:
// partitions and lossy links can delay an operation but never lose or
// duplicate its effect.
//
// Epochs make restarts safe: reset_all() (called from Broker::restart)
// bumps the sender's epoch, and a receiver that observes a higher epoch
// resets its expected sequence to 1 and reports the restart via the
// on_peer_restart hook — the hook is where brokers quarantine-drop the
// restarted peer's stale routing state and arm the anti-entropy resync.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "pubsub/messages.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::pubsub {

class ReliableChannel {
 public:
  struct Config {
    /// Off by default: each op is sent once, unsequenced and unacked,
    /// under its kind's type tag.
    bool enabled = false;
    /// Initial retransmission timeout; doubles per retry (binary backoff)
    /// up to kMaxRetransmitTimeout.
    sim::Time retransmit_timeout = 50 * sim::kMillisecond;
  };

  /// Backoff cap of the retransmission timeout.
  static constexpr sim::Time kMaxRetransmitTimeout = sim::kSecond;

  struct Stats {
    std::uint64_t ctrl_sent = 0;        ///< first transmissions
    std::uint64_t retransmits = 0;      ///< timeout-driven resends
    std::uint64_t acks_sent = 0;        ///< cumulative acks emitted
    std::uint64_t acks_received = 0;    ///< acks consumed
    std::uint64_t duplicates_dropped = 0;  ///< seq below expected
    std::uint64_t gaps_dropped = 0;        ///< seq above expected
  };

  /// Called once per control operation: in send order per peer on the
  /// reliable stream, on arrival for best-effort ops.
  using DeliverFn = std::function<void(sim::NodeId from, const CtrlOp& op)>;
  /// Called when `peer` shows up with a higher epoch (it restarted),
  /// before the first op of the new epoch is delivered.
  using PeerRestartFn = std::function<void(sim::NodeId peer)>;

  ReliableChannel(sim::Simulator& sim, sim::Network& net, Config config)
      : sim_(sim), net_(net), config_(config) {}

  /// The channel sends from this node id; set once after Network::attach.
  void bind(sim::NodeId self) { self_ = self; }
  /// Swaps in a new config. Call before any traffic (Client constructs
  /// its channel disabled and enables it on demand).
  void configure(Config config) { config_ = config; }
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_on_peer_restart(PeerRestartFn fn) { on_restart_ = std::move(fn); }
  /// While false (crashed host) retransmit timers stand down.
  void set_alive(bool alive) { alive_ = alive; }

  bool enabled() const noexcept { return config_.enabled; }
  const Config& config() const noexcept { return config_; }
  const Stats& stats() const noexcept { return stats_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Messages awaiting ack toward `peer` (introspection for tests).
  std::size_t unacked(sim::NodeId peer) const;

  /// Sends `op` to `peer`: on the reliable stream when enabled(),
  /// otherwise once, best-effort. The anti-entropy ops always take the
  /// stream: a disabled channel still answers a reliable peer's resync.
  void send(sim::NodeId peer, CtrlOp op);

  /// Consumes kTypeCtrl / kTypeCtrlAck messages and best-effort ops (both
  /// kinds of op reach the deliver hook); returns false for any other type
  /// so the caller can fall through to its own dispatch.
  bool on_message(const sim::Message& msg);

  /// Crash/restart lifecycle: forgets every per-peer stream and bumps the
  /// epoch, so post-restart sends open fresh streams. Stats survive.
  void reset_all();

  /// Restarts the outgoing stream to one peer (the responder side of a
  /// resync: the peer lost our stream state, so start over at seq 1; any
  /// unacked backlog is superseded by the full-state replay).
  void reset_peer_send(sim::NodeId peer);

 private:
  struct SendState {
    std::uint64_t next_seq = 1;
    std::deque<CtrlMsg> unacked;
    sim::Time timeout = 0;       ///< current (backed-off) timeout
    std::uint64_t timer_gen = 0; ///< nonzero while a timer is armed
  };
  struct RecvState {
    std::optional<std::uint64_t> peer_epoch;
    std::uint64_t expected_seq = 1;
  };

  void transmit(sim::NodeId peer, const CtrlMsg& msg);
  void arm_timer(sim::NodeId peer, SendState& state);
  void on_timeout(sim::NodeId peer, std::uint64_t gen);
  void send_ack(sim::NodeId peer, std::uint64_t peer_epoch,
                std::uint64_t cum_seq);

  sim::Simulator& sim_;
  sim::Network& net_;
  Config config_;
  sim::NodeId self_ = sim::kNoNode;
  bool alive_ = true;
  std::uint64_t epoch_ = 1;
  std::uint64_t next_timer_gen_ = 1;
  std::unordered_map<sim::NodeId, SendState> send_;
  std::unordered_map<sim::NodeId, RecvState> recv_;
  DeliverFn deliver_;
  PeerRestartFn on_restart_;
  Stats stats_;
};

}  // namespace reef::pubsub
