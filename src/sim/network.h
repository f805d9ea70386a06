// Simulated message-passing network.
//
// Nodes attach to a Network and exchange asynchronous messages; the network
// delays each message by a per-link latency plus deterministic jitter and
// meters every message for the traffic-accounting experiments (E4, E6).
// Failure injection (node crash, link partition) is built in because the
// paper's distributed design is motivated by eliminating the centralized
// single point of failure.
#pragma once

#include <any>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reef::sim {

/// Dense node identifier assigned by Network::attach.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffff;

/// A message in flight. `bytes` is the logical wire size used for traffic
/// accounting; `payload` carries an arbitrary value the receiver casts back
/// (each protocol in this repo documents its payload types).
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::string type;
  std::size_t bytes = 0;
  std::any payload;
};

/// Interface for anything that can receive messages from the network.
/// Implementations must outlive the Network they attach to.
class Node {
 public:
  virtual ~Node() = default;
  /// Called exactly once per delivered message, at delivery time.
  virtual void handle_message(const Message& msg) = 0;
};

/// Point-to-point message-passing substrate with latency, jitter, traffic
/// metering, and failure injection. Links are FIFO per directed pair:
/// jitter never reorders two messages from one node to another. All state
/// changes are deterministic given the seed.
class Network {
 public:
  struct Config {
    Time default_latency = 20 * kMillisecond;
    /// Jitter drawn uniformly from [0, jitter_fraction * latency].
    double jitter_fraction = 0.25;
    std::uint64_t seed = 42;
  };

  Network(Simulator& sim, Config config);

  /// Registers a node (non-owning) and returns its id. `name` labels the
  /// node in stats output.
  NodeId attach(Node& node, std::string name);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  const std::string& node_name(NodeId id) const { return names_.at(id); }

  /// Overrides the symmetric latency of the (a, b) link.
  void set_latency(NodeId a, NodeId b, Time latency);

  /// Blocks or unblocks the (a, b) link (messages in either direction are
  /// dropped while blocked).
  void set_partitioned(NodeId a, NodeId b, bool blocked);

  /// Marks a node down/up. Messages to a down node are dropped at delivery
  /// time (so a crash mid-flight loses in-flight traffic, as in life).
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return up_.at(id); }

  /// Sets the symmetric per-message loss probability of the (a, b) link
  /// (0 = lossless, the default). The drop decision is drawn at send time
  /// from the network's deterministic stream — but only for links with a
  /// nonzero probability, so runs that never set one see the exact jitter
  /// stream (and therefore traces) they always did.
  void set_loss_probability(NodeId a, NodeId b, double probability);

  /// Sends a message; it will be delivered via Node::handle_message after
  /// the link latency (+jitter). Self-sends are delivered asynchronously
  /// with zero latency. Returns the delivery time, or nullopt if the
  /// message was dropped at send time (unknown destination).
  ///
  /// Safe to call from inside handle_message, including for the instant
  /// currently executing (intra-tick emission — control-op sends from
  /// handle_message, such as a resync reply or an ack). Jitter is drawn per
  /// send from one deterministic stream, so two runs issuing the same
  /// sends in the same order see identical delivery times.
  ///
  /// `units` is the number of logical payloads the wire message carries
  /// (default 1); batched protocols (PublishBatchMsg, DeliverBatchMsg)
  /// pass the batch size so the accounting can separate wire messages
  /// from the events they amortize.
  std::optional<Time> send(NodeId from, NodeId to, std::string type,
                           std::any payload, std::size_t bytes,
                           std::size_t units = 1);

  // --- traffic accounting -------------------------------------------------
  std::uint64_t total_messages() const noexcept { return total_messages_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  /// Logical payloads carried (>= total_messages; the gap is what
  /// batching amortized away).
  std::uint64_t total_units() const noexcept { return total_units_; }
  /// Total drops across every cause (the sum of the per-cause counters).
  std::uint64_t dropped_messages() const noexcept {
    return dropped_by_down_ + dropped_by_partition_ + dropped_by_loss_ +
           dropped_unknown_dest_;
  }
  // Per-cause drop counters, split out so fault-injection failures are
  // diagnosable (one opaque total can't say whether a partition window or
  // a lossy link ate a control message).
  std::uint64_t dropped_by_down() const noexcept { return dropped_by_down_; }
  std::uint64_t dropped_by_partition() const noexcept {
    return dropped_by_partition_;
  }
  std::uint64_t dropped_by_loss() const noexcept { return dropped_by_loss_; }
  std::uint64_t dropped_unknown_dest() const noexcept {
    return dropped_unknown_dest_;
  }
  /// Message, byte, and logical-unit counts keyed by message type.
  const util::Counter& messages_by_type() const noexcept { return by_type_; }
  const util::Counter& bytes_by_type() const noexcept {
    return bytes_by_type_;
  }
  const util::Counter& units_by_type() const noexcept {
    return units_by_type_;
  }
  /// Bytes received per node (for the centralized-vs-distributed load
  /// comparison).
  std::uint64_t bytes_received(NodeId id) const;
  std::uint64_t messages_received(NodeId id) const;
  void reset_stats();

 private:
  static std::uint64_t link_key(NodeId a, NodeId b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  Time latency_between(NodeId a, NodeId b) noexcept;

  Simulator& sim_;
  Config config_;
  util::Rng rng_;
  std::vector<Node*> nodes_;
  std::vector<std::string> names_;
  std::vector<bool> up_;
  std::unordered_map<std::uint64_t, Time> link_latency_;
  std::unordered_map<std::uint64_t, bool> partitioned_;
  std::unordered_map<std::uint64_t, double> loss_probability_;
  /// Last scheduled delivery time per *directed* (from, to) pair, for FIFO.
  std::unordered_map<std::uint64_t, Time> last_delivery_;

  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_units_ = 0;
  std::uint64_t dropped_by_down_ = 0;
  std::uint64_t dropped_by_partition_ = 0;
  std::uint64_t dropped_by_loss_ = 0;
  std::uint64_t dropped_unknown_dest_ = 0;
  util::Counter by_type_;
  util::Counter bytes_by_type_;
  util::Counter units_by_type_;
  std::vector<std::uint64_t> bytes_received_;
  std::vector<std::uint64_t> messages_received_;
};

}  // namespace reef::sim
