#include "harness.h"

#include <stdexcept>

namespace e2e {

namespace {

sim::Network::Config network_config() {
  sim::Network::Config config;
  config.default_latency = kClientLink;  // broker links are set by link()
  config.jitter_fraction = 0.0;
  return config;
}

pubsub::Broker::Config broker_config(Workload w) {
  pubsub::Broker::Config config;
  config.worker_threads = 0;
  if (w == Workload::kPacedSingle) {
    config.flush_max_delay_ticks = 5 * sim::kMillisecond;
  }
  config.scoring_enabled = w == Workload::kScoredTopk;
  return config;
}

}  // namespace

bool is_checked(Workload w, std::uint64_t seq) {
  switch (w) {
    case Workload::kFeedFanout:
    case Workload::kPacedSingle:
      return seq % 64 == 0;
    case Workload::kSubChurn:
      return true;  // only 0.4 events per tick
    case Workload::kScoredTopk:
      return (seq / bundle_size(w)) % 50 == 0;  // whole top-k windows
  }
  return false;
}

Harness::Harness(const Inputs& inputs)
    : in(inputs),
      net(sim, network_config()),
      overlay(pubsub::Overlay::tree(sim, net, kBrokers, kFanout,
                                    broker_config(inputs.workload))),
      publisher(sim, net, "publisher"),
      seq_attr_(pubsub::AttrTable::instance().intern(kSeqAttr)),
      ts_attr_(pubsub::AttrTable::instance().intern(kTsAttr)) {
  publisher.connect(overlay.broker(0));
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<pubsub::Client>(
        sim, net, "client-" + std::to_string(c)));
    clients.back()->connect(overlay.broker(c % kBrokers));
  }
  subs.reserve(in.population.size());
  for (std::size_t h = 0; h < in.population.size(); ++h) {
    subscribe(h, in.population[h]);
  }
}

void Harness::subscribe(std::uint64_t handle, SubSpec spec) {
  SubRecord record;
  record.subscribed = sim.now();
  record.id = clients[spec.client]->subscribe_scored(
      spec.filter, spec.scoring,
      [this](const pubsub::Event& event, pubsub::SubscriptionId sub, double) {
        on_deliver(event, sub);
      });
  record.spec = std::move(spec);
  if (handle != subs.size()) throw std::logic_error("schedule handle gap");
  subs.push_back(std::move(record));
}

void Harness::apply(Tick& tick) {
  if (tick.events.size() == 1) {
    publisher.publish(std::move(tick.events.front()));
  } else if (!tick.events.empty()) {
    publisher.publish_batch(std::move(tick.events));
  }
  for (SubOp& op : tick.ops) {
    if (op.subscribe) {
      subscribe(op.handle, std::move(op.spec));
      continue;
    }
    SubRecord& record = subs.at(op.handle);
    clients[record.spec.client]->unsubscribe(record.id);
    record.unsubscribed = sim.now();
  }
}

void Harness::on_deliver(const pubsub::Event& event,
                         pubsub::SubscriptionId sub) {
  log.handler_ran = true;
  ++log.deliveries;
  const pubsub::Value* ts = event.find(ts_attr_);
  const pubsub::Value* seq = event.find(seq_attr_);
  if (log.latency_open) ++log.latency[sim.now() - ts->as_int()];
  const auto index = static_cast<std::uint64_t>(seq->as_int());
  if (is_checked(in.workload, index)) log.checked.emplace_back(index, sub);
}

std::uint64_t Harness::broker_messages_received() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBrokers; ++i) {
    total += net.messages_received(overlay.broker(i).id());
  }
  return total;
}

std::uint64_t Harness::broker_control_received() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBrokers; ++i) {
    total += overlay.broker(i).stats().subs_received;
  }
  return total;
}

TrafficDelta traffic_now(const sim::Network& net) {
  TrafficDelta now;
  now.messages = net.messages_by_type().items();
  now.bytes = net.bytes_by_type().items();
  now.units = net.units_by_type().items();
  return now;
}

TrafficDelta traffic_since(const sim::Network& net, const TrafficDelta& base) {
  TrafficDelta delta = traffic_now(net);
  const auto subtract = [](std::map<std::string, std::uint64_t>& to,
                           const std::map<std::string, std::uint64_t>& from) {
    for (auto& [type, n] : to) {
      if (const auto it = from.find(type); it != from.end()) n -= it->second;
    }
  };
  subtract(delta.messages, base.messages);
  subtract(delta.bytes, base.bytes);
  subtract(delta.units, base.units);
  return delta;
}

}  // namespace e2e
