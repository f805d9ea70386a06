// Broker overlay construction. Owns a set of brokers, wires them into an
// acyclic topology over the simulated network, and aggregates stats.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pubsub/broker.h"
#include "util/rng.h"

namespace reef::pubsub {

class Overlay {
 public:
  Overlay(sim::Simulator& sim, sim::Network& net, Broker::Config config = {});

  /// Creates a new broker named "broker-<i>". Returns its index.
  std::size_t add_broker();

  /// Links brokers `a` and `b` (indices). Throws if the link would close a
  /// cycle — the routing protocol requires an acyclic overlay.
  void link(std::size_t a, std::size_t b,
            sim::Time latency = 10 * sim::kMillisecond);

  Broker& broker(std::size_t i) { return *brokers_.at(i); }
  const Broker& broker(std::size_t i) const { return *brokers_.at(i); }
  std::size_t size() const noexcept { return brokers_.size(); }

  // --- fault injection ------------------------------------------------------
  /// Crashes broker `i`: the node goes down (in-flight traffic to and
  /// from it is lost) and its in-memory routing state is dropped.
  void crash(std::size_t i);
  /// Brings broker `i` back up with an empty routing table; with
  /// Broker::Config::control.enabled, anti-entropy resync against its
  /// neighbors and clients rebuilds the state (see Broker::restart).
  void restart(std::size_t i);
  /// Blocks/unblocks the link between brokers `a` and `b` (indices).
  void set_link_partitioned(std::size_t a, std::size_t b, bool blocked);
  /// Sets the loss probability of the link between brokers `a` and `b`.
  void set_link_loss(std::size_t a, std::size_t b, double probability);

  // --- canned topologies ----------------------------------------------------
  /// brokers in a line: 0-1-2-...-(n-1)
  static Overlay chain(sim::Simulator& sim, sim::Network& net, std::size_t n,
                       Broker::Config config = {});
  /// broker 0 is the hub
  static Overlay star(sim::Simulator& sim, sim::Network& net, std::size_t n,
                      Broker::Config config = {});
  /// complete k-ary tree rooted at 0
  static Overlay tree(sim::Simulator& sim, sim::Network& net, std::size_t n,
                      std::size_t fanout, Broker::Config config = {});
  /// random spanning tree (node i attaches to a uniform node < i)
  static Overlay random_tree(sim::Simulator& sim, sim::Network& net,
                             std::size_t n, util::Rng& rng,
                             Broker::Config config = {});

  // --- aggregate stats --------------------------------------------------------
  std::size_t total_table_size() const;
  std::uint64_t total_subs_forwarded() const;
  std::uint64_t total_pubs_forwarded() const;
  std::uint64_t total_deliveries() const;

 private:
  std::size_t find_root(std::size_t v);  // union-find for cycle detection

  sim::Simulator& sim_;
  sim::Network& net_;
  Broker::Config config_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::size_t> uf_parent_;
};

}  // namespace reef::pubsub
