// The traced run's replays. Each layer is timed from outside, through its
// public functions, after the live run: see README.md for what a replay
// can and cannot reproduce (final-state tables, replayed batch
// composition, depth-first control propagation).
#include <any>
#include <functional>
#include <iterator>
#include <span>
#include <unordered_map>

#include "harness.h"
#include "pubsub/routing_table.h"

namespace e2e {

namespace {

/// Calls fn and records it as span `name` of `id`.
template <typename Fn>
void timed(Spans& spans, const char* name, std::uint64_t id, Fn&& fn) {
  const double t0 = wall_now();
  fn();
  spans.add(name, t0, wall_now(), id);
}

}  // namespace

std::uint64_t replay_matching(const Harness& h, std::uint64_t first,
                              std::uint64_t end, std::uint64_t stride,
                              Spans& spans, ReplayCounts& counts) {
  std::unordered_map<sim::NodeId, std::size_t> index_of;
  for (std::size_t i = 0; i < kBrokers; ++i) {
    index_of[h.overlay.broker(i).id()] = i;
  }
  std::vector<std::vector<pubsub::SubscriptionId>> ids;
  std::vector<std::vector<pubsub::RoutingTable::Destination>> dests;
  std::vector<std::vector<pubsub::RoutingTable::ScoredDestination>> scored;
  std::size_t hops = 0;

  // One hop: the batch a broker receives from `from`, then the sub-batch
  // each other neighbor is sent (the events with a destination there).
  std::function<void(std::size_t, sim::NodeId,
                     const std::vector<pubsub::Event>&, std::uint64_t)>
      hop = [&](std::size_t b, sim::NodeId from,
                const std::vector<pubsub::Event>& batch, std::uint64_t id) {
        const pubsub::RoutingTable& table = h.overlay.broker(b).routing_table();
        const std::span<const pubsub::Event> events(batch);
        // An untimed warm-up call, then the timed ones in an order that
        // rotates per hop, so no layer is always the first to run on warm
        // caches.
        table.matcher().match_batch(events, ids);
        const std::function<void()> calls[] = {
            [&] {
              timed(spans, "matcher.match_batch", id,
                    [&] { table.matcher().match_batch(events, ids); });
            },
            [&] {
              timed(spans, "routing_table.match_batch", id,
                    [&] { table.match_batch(events, dests); });
            },
            [&] {
              timed(spans, "routing_table.match_batch_scored", id,
                    [&] { table.match_batch_scored(events, scored); });
            }};
        for (std::size_t k = 0; k < std::size(calls); ++k) {
          calls[(hops + k) % std::size(calls)]();
        }
        ++hops;
        counts.event_hops += batch.size();
        for (const auto& hits : ids) counts.matcher_hits += hits.size();
        // Cut every sub-batch before recursing: the recursion reuses the
        // hit buffers.
        std::vector<std::pair<std::size_t, std::vector<pubsub::Event>>> out;
        for (const sim::NodeId next : h.overlay.broker(b).neighbors()) {
          if (next == from) continue;
          std::vector<pubsub::Event> forward;
          for (std::size_t e = 0; e < batch.size(); ++e) {
            for (const auto& dest : dests[e]) {
              if (dest.is_broker && dest.iface == next) {
                forward.push_back(batch[e]);
                break;
              }
            }
          }
          if (!forward.empty()) {
            out.emplace_back(index_of.at(next), std::move(forward));
          }
        }
        for (const auto& [next, forward] : out) {
          hop(next, h.overlay.broker(b).id(), forward, id);
        }
      };

  // Sampling by bundle number keeps the spans of every 100th tick's bundle
  // for the trace file: the id of a bundle's spans is its tick.
  const Workload w = h.in.workload;
  Schedule schedule(h.in, 0);
  Tick tick;
  std::uint64_t replayed = 0;
  for (std::uint64_t t = 0; t < end; ++t) {
    schedule.next(tick);
    if (t < first || tick.events.empty() ||
        (t / bundle_period(w)) % stride != 0) {
      continue;
    }
    hop(0, h.publisher.id(), tick.events, t);
    ++replayed;
  }
  return replayed;
}

void replay_control(const Inputs& inputs, std::uint64_t ticks, Spans& spans,
                    ReplayCounts& counts) {
  using pubsub::RoutingTable;
  constexpr RoutingTable::IfaceId kClientBase = 1000;
  std::vector<RoutingTable> tables(kBrokers);
  std::vector<std::vector<std::size_t>> neighbors(kBrokers);
  for (std::size_t i = 1; i < kBrokers; ++i) {
    neighbors[i].push_back(tree_parent(i));
    neighbors[tree_parent(i)].push_back(i);
  }
  for (std::size_t i = 0; i < kBrokers; ++i) {
    for (const std::size_t n : neighbors[i]) tables[i].add_broker_iface(n);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    tables[c % kBrokers].add_client_iface(kClientBase + c);
  }

  std::uint64_t op_id = 0;
  const auto note = [&](const char* name, double t0) {
    spans.add(name, t0, wall_now(), op_id);
  };
  // Broker::refresh_all_neighbors_except and the receiving
  // on_broker_{subscribe,unsubscribe}, depth first.
  std::function<void(std::size_t, std::size_t)> propagate =
      [&](std::size_t b, std::size_t except) {
        for (const std::size_t n : neighbors[b]) {
          if (n == except) continue;
          double t0 = wall_now();
          RoutingTable::Diff diff = tables[b].refresh(n);
          note("routing_table.refresh", t0);
          counts.ctrl_msgs += diff.subscribe.size() + diff.unsubscribe.size();
          for (pubsub::Filter& f : diff.subscribe) {
            t0 = wall_now();
            const bool changed = tables[n].broker_subscribe(b, std::move(f));
            note("routing_table.update", t0);
            if (changed) propagate(n, b);
          }
          for (const pubsub::Filter& f : diff.unsubscribe) {
            t0 = wall_now();
            const bool changed = tables[n].broker_unsubscribe(b, f);
            note("routing_table.update", t0);
            if (changed) propagate(n, b);
          }
        }
      };

  std::vector<std::size_t> client_of;  // by handle
  const auto subscribe = [&](std::uint64_t handle, const SubSpec& spec) {
    const std::size_t b = spec.client % kBrokers;
    client_of.resize(handle + 1);
    client_of[handle] = spec.client;
    const double t0 = wall_now();
    tables[b].client_subscribe(kClientBase + spec.client, handle + 1,
                               spec.filter, spec.scoring);
    note("routing_table.update", t0);
    propagate(b, kBrokers);
  };
  const auto unsubscribe = [&](std::uint64_t handle) {
    const std::size_t c = client_of.at(handle);
    const double t0 = wall_now();
    const bool changed =
        tables[c % kBrokers].client_unsubscribe(kClientBase + c, handle + 1);
    note("routing_table.update", t0);
    if (changed) propagate(c % kBrokers, kBrokers);
  };

  for (std::uint64_t h = 0; h < inputs.population.size(); ++h) {
    subscribe(h, inputs.population[h]);
    ++op_id;
  }
  Schedule schedule(inputs, 0);
  Tick tick;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    schedule.next(tick);
    for (const SubOp& op : tick.ops) {
      if (op.subscribe) {
        subscribe(op.handle, op.spec);
      } else {
        unsubscribe(op.handle);
      }
      ++op_id;
    }
  }
  counts.ctrl_ops = op_id;
  for (const RoutingTable& table : tables) {
    counts.entries += table.size();
    counts.maintain_runs += table.maintain_runs();
  }
}

double replay_network(const TrafficDelta& traffic) {
  struct Sink final : sim::Node {
    void handle_message(const sim::Message&) override {}
  };
  sim::Simulator sim;
  sim::Network::Config config;
  config.jitter_fraction = 0.0;
  sim::Network net(sim, config);
  Sink a;
  Sink b;
  const sim::NodeId from = net.attach(a, "a");
  const sim::NodeId to = net.attach(b, "b");
  // Repeat small mixes (sub_churn sends a few thousand messages) so fixed
  // costs do not dominate; drain often so the queue stays bounded.
  constexpr std::uint64_t kMinSends = 100000;
  constexpr std::uint64_t kChunk = 4096;
  std::uint64_t total = 0;
  for (const auto& [type, count] : traffic.messages) total += count;
  if (total == 0) return 0.0;
  const std::uint64_t reps = std::max<std::uint64_t>(1, kMinSends / total);
  double send_s = 0.0;
  for (std::uint64_t r = 0; r < reps; ++r) {
    for (const auto& [type, count] : traffic.messages) {
      if (count == 0) continue;
      const std::size_t bytes = traffic.bytes.at(type) / count;
      for (std::uint64_t sent = 0; sent < count;) {
        const std::uint64_t n = std::min(kChunk, count - sent);
        const double t0 = wall_now();
        for (std::uint64_t i = 0; i < n; ++i) {
          net.send(from, to, type, std::any{}, bytes);
        }
        send_s += wall_now() - t0;
        sent += n;
        sim.run();
      }
    }
  }
  return send_s * 1e9 / static_cast<double>(total * reps);
}

}  // namespace e2e
