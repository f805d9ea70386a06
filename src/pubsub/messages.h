// Wire protocol payloads exchanged between pub/sub clients and brokers.
// Payloads travel inside sim::Message::payload (std::any); the `type`
// strings below tag them for traffic accounting. Publications and
// deliveries have one payload type per direction (PublishBatchMsg,
// DeliverBatchMsg) whatever their entry count; only the tag and the
// framing bytes tell a one-entry message from a batch.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/event.h"
#include "pubsub/filter.h"
#include "pubsub/scoring.h"

namespace reef::pubsub {

/// One or more publications travelling client->broker or broker->broker
/// in one wire message. Brokers coalesce the events bound for the same
/// neighbor (see the flush policy in broker.h); publishers with bursty
/// output (the feed proxy) coalesce at the source. The framing follows the
/// entry count (publish_type, publish_batch_wire_size).
struct PublishBatchMsg {
  std::vector<Event> events;
};

/// One delivery entry: the event plus the client's subscription ids it
/// matched (the frontend uses these for its closed-loop bookkeeping).
/// `scores` is parallel to `matched` when any matched subscription carries
/// a non-neutral ScoringSpec (a neutral subscription in a mixed list reads
/// kConstantScore), and empty otherwise — so unscored traffic is byte-
/// identical to the pre-scoring wire format.
struct DeliverMsg {
  Event event;
  std::vector<SubscriptionId> matched;
  std::vector<double> scores;
};

/// One or more deliveries to one client in one wire message; framed like
/// PublishBatchMsg (deliver_type, deliver_batch_wire_size).
struct DeliverBatchMsg {
  std::vector<DeliverMsg> items;
};

// --- control plane -----------------------------------------------------------
//
// Every subscription-control operation is a CtrlOp, sent through
// ReliableChannel::send. With reliability off (the default) the op travels
// once, best-effort, as the payload of a message tagged by its kind
// (ctrl_op_type). With reliability on (Broker::Config::control.enabled) it
// rides a CtrlMsg over a per-peer go-back-N stream: monotone sequence
// numbers starting at 1, cumulative acks, and timeout/backoff
// retransmission driven by sim timers. The epoch is bumped when the sender
// restarts, so a receiver can tell a fresh stream from a late duplicate of
// the old one (FIFO links guarantee the old stream's tail is delivered
// before the new stream's head).

/// One control-plane operation, sent bare (best-effort) or in a CtrlMsg.
struct CtrlOp {
  enum class Kind {
    kSubscribe,          ///< broker->broker filter propagation
    kUnsubscribe,        ///< broker->broker filter retraction
    kClientSubscribe,    ///< client->broker (sub_id, filter)
    kClientUnsubscribe,  ///< client->broker retraction by id
    kResyncRequest,      ///< anti-entropy: "here is my digest of your state"
    kResyncState,        ///< broker->broker full want-set replay
    kClientResyncState,  ///< client->broker full subscription replay
  };
  Kind kind = Kind::kSubscribe;
  SubscriptionId sub_id = 0;  ///< kClientSubscribe / kClientUnsubscribe
  Filter filter;              ///< kSubscribe / kUnsubscribe / kClientSubscribe
  ScoringSpec scoring;        ///< kClientSubscribe (neutral = unscored)
  std::uint64_t digest = 0;   ///< kResyncRequest
  std::vector<Filter> filters;  ///< kResyncState
  std::vector<ClientSubscription> subs;  ///< kClientResyncState
};

/// A reliably-sequenced control message. `epoch` identifies the sender's
/// incarnation (bumped on restart); `seq` is monotone per (sender, peer)
/// within an epoch.
struct CtrlMsg {
  std::uint64_t epoch = 1;
  std::uint64_t seq = 0;
  CtrlOp op;
};

/// Cumulative ack: "I have received every seq <= cum_seq of your stream in
/// epoch `epoch`". Sent on every CtrlMsg receipt, duplicates included, so
/// a lost ack is repaired by the next (re)transmission.
struct CtrlAckMsg {
  std::uint64_t epoch = 1;
  std::uint64_t cum_seq = 0;
};

/// Periodic liveness probe between neighbor brokers (heartbeat_period).
struct HeartbeatMsg {};

/// Wire-size accounting, shared by every sender so all paths meter the
/// same encoding. A message of one entry carries an 8-byte message header;
/// a message of several carries an 8-byte batch header plus 2 bytes of
/// framing per entry.
inline constexpr std::size_t kBatchHeaderBytes = 8;

inline std::size_t publish_batch_wire_size(const std::vector<Event>& events) {
  const std::size_t framing = events.size() == 1 ? 0 : 2;
  std::size_t bytes = kBatchHeaderBytes;
  for (const Event& event : events) bytes += event.wire_size() + framing;
  return bytes;
}

/// The matched subscription ids ride along at 8 bytes each, scores —
/// present only on scored deliveries — at 8 bytes each too.
inline std::size_t deliver_batch_wire_size(
    const std::vector<DeliverMsg>& items) {
  const std::size_t framing = items.size() == 1 ? 0 : 2;
  std::size_t bytes = kBatchHeaderBytes;
  for (const DeliverMsg& item : items) {
    bytes += item.event.wire_size() + 8 * item.matched.size() +
             8 * item.scores.size() + framing;
  }
  return bytes;
}

/// Wire size of one CtrlOp: a best-effort message's whole size, or the
/// payload inside a CtrlMsg, so the reliable and best-effort control
/// planes meter the same encoding per operation.
inline std::size_t ctrl_op_wire_size(const CtrlOp& op) {
  switch (op.kind) {
    case CtrlOp::Kind::kSubscribe:
    case CtrlOp::Kind::kUnsubscribe:
      return op.filter.wire_size() + 8;
    case CtrlOp::Kind::kClientSubscribe:
      return op.filter.wire_size() + 16 + op.scoring.wire_size();
    case CtrlOp::Kind::kClientUnsubscribe:
      return 16;
    case CtrlOp::Kind::kResyncRequest:
      return 16;  // digest + op tag
    case CtrlOp::Kind::kResyncState: {
      std::size_t bytes = kBatchHeaderBytes;
      for (const Filter& f : op.filters) bytes += f.wire_size() + 2;
      return bytes;
    }
    case CtrlOp::Kind::kClientResyncState: {
      std::size_t bytes = kBatchHeaderBytes;
      for (const ClientSubscription& sub : op.subs) {
        bytes += sub.filter.wire_size() + 10 + sub.scoring.wire_size();
      }
      return bytes;
    }
  }
  return 0;
}

/// Wire size of a CtrlMsg: 16 bytes of (epoch, seq) framing plus the op.
inline std::size_t ctrl_msg_wire_size(const CtrlMsg& msg) {
  return 16 + ctrl_op_wire_size(msg.op);
}

inline constexpr std::size_t kCtrlAckWireBytes = 24;
inline constexpr std::size_t kHeartbeatWireBytes = 8;

inline constexpr std::string_view kTypeSubscribe = "pubsub.sub";
inline constexpr std::string_view kTypeUnsubscribe = "pubsub.unsub";
inline constexpr std::string_view kTypeClientSubscribe = "pubsub.csub";
inline constexpr std::string_view kTypeClientUnsubscribe = "pubsub.cunsub";
inline constexpr std::string_view kTypePublish = "pubsub.pub";
inline constexpr std::string_view kTypePublishBatch = "pubsub.pubbatch";
inline constexpr std::string_view kTypeDeliver = "pubsub.deliver";
inline constexpr std::string_view kTypeDeliverBatch = "pubsub.deliverbatch";
inline constexpr std::string_view kTypeCtrl = "pubsub.ctrl";
inline constexpr std::string_view kTypeCtrlAck = "pubsub.ctrlack";
inline constexpr std::string_view kTypeHeartbeat = "pubsub.hb";

/// Type tags of publication and delivery messages by entry count: a
/// one-entry message keeps the single-event tag.
inline std::string_view publish_type(std::size_t entries) {
  return entries == 1 ? kTypePublish : kTypePublishBatch;
}
inline std::string_view deliver_type(std::size_t entries) {
  return entries == 1 ? kTypeDeliver : kTypeDeliverBatch;
}

/// Type tag of a best-effort CtrlOp message. Only the four subscription
/// ops travel best-effort; the anti-entropy ops exist only on the reliable
/// stream, so they get an empty tag (ReliableChannel::send sequences them
/// whatever its mode).
inline std::string_view ctrl_op_type(CtrlOp::Kind kind) {
  switch (kind) {
    case CtrlOp::Kind::kSubscribe: return kTypeSubscribe;
    case CtrlOp::Kind::kUnsubscribe: return kTypeUnsubscribe;
    case CtrlOp::Kind::kClientSubscribe: return kTypeClientSubscribe;
    case CtrlOp::Kind::kClientUnsubscribe: return kTypeClientUnsubscribe;
    default: return {};
  }
}

}  // namespace reef::pubsub
