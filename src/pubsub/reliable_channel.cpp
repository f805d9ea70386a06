#include "pubsub/reliable_channel.h"

#include <algorithm>
#include <any>
#include <cassert>
#include <string>
#include <utility>

namespace reef::pubsub {

std::size_t ReliableChannel::unacked(sim::NodeId peer) const {
  const auto it = send_.find(peer);
  return it == send_.end() ? 0 : it->second.unacked.size();
}

void ReliableChannel::transmit(sim::NodeId peer, const CtrlMsg& msg) {
  net_.send(self_, peer, std::string(kTypeCtrl), msg, ctrl_msg_wire_size(msg));
}

void ReliableChannel::send(sim::NodeId peer, CtrlOp op) {
  assert(self_ != sim::kNoNode && "ReliableChannel used before bind()");
  const std::string_view type = ctrl_op_type(op.kind);
  if (!config_.enabled && !type.empty()) {
    const std::size_t bytes = ctrl_op_wire_size(op);
    net_.send(self_, peer, std::string(type), std::move(op), bytes);
    return;
  }
  SendState& state = send_[peer];
  CtrlMsg msg{epoch_, state.next_seq++, std::move(op)};
  transmit(peer, msg);
  ++stats_.ctrl_sent;
  state.unacked.push_back(std::move(msg));
  if (state.timer_gen == 0) {
    state.timeout = config_.retransmit_timeout;
    arm_timer(peer, state);
  }
}

void ReliableChannel::arm_timer(sim::NodeId peer, SendState& state) {
  const std::uint64_t gen = next_timer_gen_++;
  state.timer_gen = gen;
  sim_.after(state.timeout, [this, peer, gen] { on_timeout(peer, gen); });
}

void ReliableChannel::on_timeout(sim::NodeId peer, std::uint64_t gen) {
  const auto it = send_.find(peer);
  // Stale generations cover every way the window closed since arming:
  // emptied by an ack, reset_all on crash, reset_peer_send on resync.
  if (it == send_.end() || it->second.timer_gen != gen) return;
  SendState& state = it->second;
  if (!alive_ || state.unacked.empty()) {
    state.timer_gen = 0;
    return;
  }
  // Go-back-N: resend the whole unacked window, then back off.
  for (const CtrlMsg& msg : state.unacked) {
    transmit(peer, msg);
    ++stats_.retransmits;
  }
  state.timeout = std::min(state.timeout * 2, kMaxRetransmitTimeout);
  arm_timer(peer, state);
}

void ReliableChannel::send_ack(sim::NodeId peer, std::uint64_t peer_epoch,
                               std::uint64_t cum_seq) {
  ++stats_.acks_sent;
  net_.send(self_, peer, std::string(kTypeCtrlAck),
            CtrlAckMsg{peer_epoch, cum_seq}, kCtrlAckWireBytes);
}

bool ReliableChannel::on_message(const sim::Message& msg) {
  if (msg.type == kTypeCtrlAck) {
    const auto& ack = std::any_cast<const CtrlAckMsg&>(msg.payload);
    ++stats_.acks_received;
    // Acks for a previous incarnation's stream are meaningless now.
    if (ack.epoch != epoch_) return true;
    const auto it = send_.find(msg.from);
    if (it == send_.end()) return true;
    SendState& state = it->second;
    while (!state.unacked.empty() && state.unacked.front().seq <= ack.cum_seq) {
      state.unacked.pop_front();
    }
    if (state.unacked.empty()) {
      // Window closed: disarm the timer and reset the backoff for the
      // next burst.
      state.timer_gen = 0;
      state.timeout = config_.retransmit_timeout;
    }
    return true;
  }
  if (const auto* op = std::any_cast<CtrlOp>(&msg.payload)) {
    // A bare op is a best-effort one (tagged by ctrl_op_type): no stream
    // state and no ack.
    if (deliver_) deliver_(msg.from, *op);
    return true;
  }
  if (msg.type != kTypeCtrl) return false;
  const auto& ctrl = std::any_cast<const CtrlMsg&>(msg.payload);
  RecvState& state = recv_[msg.from];
  if (state.peer_epoch.has_value() && ctrl.epoch < *state.peer_epoch) {
    // Late duplicate from before the peer's restart: drop without acking
    // (an ack tagged with the old epoch would be ignored anyway).
    return true;
  }
  if (!state.peer_epoch.has_value() || ctrl.epoch > *state.peer_epoch) {
    // A bump over a recorded epoch means the peer lost its state and is
    // starting over. First contact usually just records the epoch — but
    // first contact *above the initial epoch* is also proof of a restart
    // we never witnessed (e.g. the peer's first-ever ctrl message to us
    // is its post-restart resync request), and our outgoing stream state
    // predates its wiped receive state, so it must restart too or every
    // send would be gap-dropped forever.
    const bool restarted = state.peer_epoch.has_value() || ctrl.epoch > 1;
    state.peer_epoch = ctrl.epoch;
    state.expected_seq = 1;
    if (restarted && on_restart_) on_restart_(msg.from);
  }
  if (ctrl.seq < state.expected_seq) {
    ++stats_.duplicates_dropped;
    send_ack(msg.from, ctrl.epoch, state.expected_seq - 1);
    return true;
  }
  if (ctrl.seq > state.expected_seq) {
    // Go-back-N receiver: a gap means an earlier message is still in
    // flight or lost; re-ack what we have so the sender retransmits from
    // there.
    ++stats_.gaps_dropped;
    send_ack(msg.from, ctrl.epoch, state.expected_seq - 1);
    return true;
  }
  ++state.expected_seq;
  send_ack(msg.from, ctrl.epoch, state.expected_seq - 1);
  if (deliver_) deliver_(msg.from, ctrl.op);
  return true;
}

void ReliableChannel::reset_all() {
  ++epoch_;
  send_.clear();
  recv_.clear();
}

void ReliableChannel::reset_peer_send(sim::NodeId peer) {
  send_.erase(peer);
}

}  // namespace reef::pubsub
