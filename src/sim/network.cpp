#include "sim/network.h"

#include <cassert>
#include <utility>

namespace reef::sim {

Network::Network(Simulator& sim, Config config)
    : sim_(sim), config_(config), rng_(config.seed) {}

NodeId Network::attach(Node& node, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(&node);
  names_.push_back(std::move(name));
  up_.push_back(true);
  bytes_received_.push_back(0);
  messages_received_.push_back(0);
  return id;
}

void Network::set_latency(NodeId a, NodeId b, Time latency) {
  assert(a < nodes_.size() && b < nodes_.size() && latency >= 0);
  link_latency_[link_key(a, b)] = latency;
}

void Network::set_partitioned(NodeId a, NodeId b, bool blocked) {
  assert(a < nodes_.size() && b < nodes_.size());
  partitioned_[link_key(a, b)] = blocked;
}

void Network::set_node_up(NodeId id, bool up) {
  assert(id < nodes_.size());
  up_[id] = up;
}

void Network::set_loss_probability(NodeId a, NodeId b, double probability) {
  assert(a < nodes_.size() && b < nodes_.size());
  assert(probability >= 0.0 && probability <= 1.0);
  if (probability == 0.0) {
    loss_probability_.erase(link_key(a, b));
  } else {
    loss_probability_[link_key(a, b)] = probability;
  }
}

Time Network::latency_between(NodeId a, NodeId b) noexcept {
  if (a == b) return 0;
  Time base = config_.default_latency;
  if (const auto it = link_latency_.find(link_key(a, b));
      it != link_latency_.end()) {
    base = it->second;
  }
  if (config_.jitter_fraction <= 0.0 || base == 0) return base;
  const double jitter =
      rng_.uniform01() * config_.jitter_fraction * static_cast<double>(base);
  return base + static_cast<Time>(jitter);
}

std::optional<Time> Network::send(NodeId from, NodeId to, std::string type,
                                  std::any payload, std::size_t bytes,
                                  std::size_t units) {
  if (to >= nodes_.size() || from >= nodes_.size()) {
    ++dropped_unknown_dest_;
    return std::nullopt;
  }
  ++total_messages_;
  total_bytes_ += bytes;
  total_units_ += units;
  by_type_.add(type);
  bytes_by_type_.add(type, bytes);
  units_by_type_.add(type, units);

  // Lossy-link draw at send time, from the same deterministic stream as
  // jitter — but only when this link actually has a loss probability, so
  // lossless runs consume the stream exactly as before (golden traces).
  bool lost_to_link = false;
  if (!loss_probability_.empty()) {
    if (const auto it = loss_probability_.find(link_key(from, to));
        it != loss_probability_.end()) {
      lost_to_link = rng_.uniform01() < it->second;
    }
  }

  const Time latency = latency_between(from, to);
  Time deliver_at = sim_.now() + latency;
  // Links are FIFO: a message on a directed (from, to) pair is delivered
  // no earlier than one sent before it (TCP-like). The pubsub control
  // plane relies on this for subscription traffic.
  const std::uint64_t directed = (static_cast<std::uint64_t>(from) << 32) | to;
  Time& last = last_delivery_[directed];
  if (deliver_at < last) deliver_at = last;
  last = deliver_at;
  Message msg{from, to, std::move(type), bytes, std::move(payload)};
  sim_.at(deliver_at, [this, msg = std::move(msg), lost_to_link]() mutable {
    // Evaluate failures at delivery time: a crash or partition that happens
    // while the message is in flight loses it. Cause attribution is
    // ordered down > partition > loss, so a message that would have died
    // twice counts once, under the harder fault.
    if (!up_[msg.to] || !up_[msg.from]) {
      ++dropped_by_down_;
      return;
    }
    if (const auto it = partitioned_.find(link_key(msg.from, msg.to));
        it != partitioned_.end() && it->second) {
      ++dropped_by_partition_;
      return;
    }
    if (lost_to_link) {
      ++dropped_by_loss_;
      return;
    }
    bytes_received_[msg.to] += msg.bytes;
    ++messages_received_[msg.to];
    nodes_[msg.to]->handle_message(msg);
  });
  return deliver_at;
}

std::uint64_t Network::bytes_received(NodeId id) const {
  assert(id < bytes_received_.size());
  return bytes_received_[id];
}

std::uint64_t Network::messages_received(NodeId id) const {
  assert(id < messages_received_.size());
  return messages_received_[id];
}

void Network::reset_stats() {
  total_messages_ = 0;
  total_bytes_ = 0;
  total_units_ = 0;
  dropped_by_down_ = 0;
  dropped_by_partition_ = 0;
  dropped_by_loss_ = 0;
  dropped_unknown_dest_ = 0;
  by_type_ = util::Counter{};
  bytes_by_type_ = util::Counter{};
  units_by_type_ = util::Counter{};
  bytes_received_.assign(bytes_received_.size(), 0);
  messages_received_.assign(messages_received_.size(), 0);
}

}  // namespace reef::sim
