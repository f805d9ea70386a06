// E7b — substrate viability: broker-overlay routing and the covering
// ablation (DESIGN.md decision #1).
//
// Reef's topic subscriptions are highly redundant: many users subscribe to
// the same popular feeds, and broad "stream" filters cover narrow per-feed
// ones. Siena-style covering-based pruning should therefore shrink both
// the subscription control traffic and the per-broker routing tables.
// This bench builds a broker chain, attaches Zipf-popular feed
// subscriptions (plus a fraction of broad covering filters), and prints
// the with/without-covering comparison.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "feeds/feed_events_proxy.h"
#include "pubsub/client.h"
#include "pubsub/engines.h"
#include "pubsub/overlay.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace reef;

pubsub::Filter feed_filter_for(std::size_t feed) {
  return feeds::feed_filter("http://feed" + std::to_string(feed) +
                            ".example/f.rss");
}

struct Result {
  std::uint64_t subs_forwarded = 0;
  std::uint64_t unsubs_forwarded = 0;
  std::size_t total_table = 0;
  std::size_t edge_broker_table = 0;
  std::uint64_t pubs_forwarded = 0;
  std::uint64_t deliveries = 0;
  /// Wire messages vs logical events carried on the publish path
  /// (pub + pubbatch + deliver + deliverbatch) — the batching win.
  std::uint64_t event_wire_msgs = 0;
  std::uint64_t event_units = 0;
  std::uint64_t event_bytes = 0;
};

struct RunConfig {
  bool covering = true;
  std::string engine = std::string(pubsub::kDefaultEngine);
  std::size_t worker_threads = 0;
};

Result run(const RunConfig& rc, std::size_t brokers, std::size_t subscribers,
           std::size_t feeds, double broad_fraction) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.0;
  sim::Network net(sim, net_config);

  pubsub::Broker::Config broker_config;
  broker_config.covering_enabled = rc.covering;
  broker_config.matcher_engine = rc.engine;
  broker_config.worker_threads = rc.worker_threads;
  pubsub::Overlay overlay(sim, net, broker_config);
  for (std::size_t i = 0; i < brokers; ++i) overlay.add_broker();
  for (std::size_t i = 1; i < brokers; ++i) overlay.link(i - 1, i);

  util::Rng rng(99);
  util::ZipfSampler popularity(feeds, 1.0);
  std::vector<std::unique_ptr<pubsub::Client>> clients;
  for (std::size_t s = 0; s < subscribers; ++s) {
    auto client = std::make_unique<pubsub::Client>(
        sim, net, "sub" + std::to_string(s));
    client->connect(overlay.broker(s % brokers));
    if (rng.chance(broad_fraction)) {
      // A few "give me everything" subscribers: their filter covers every
      // per-feed subscription.
      client->subscribe(pubsub::Filter().and_(pubsub::eq("stream", "feed")));
    }
    const std::size_t per_user = 3 + rng.index(5);
    for (std::size_t f = 0; f < per_user; ++f) {
      const std::size_t feed = popularity.sample(rng);
      client->subscribe(feed_filter_for(feed));
    }
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kMinute);

  // Publish a burst of events across the feed popularity distribution,
  // in per-tick bundles of 10 so broker-side coalescing has something to
  // merge (the feed proxy flushes whole poll cycles the same way).
  pubsub::Client publisher(sim, net, "pub");
  publisher.connect(overlay.broker(0));
  int seq = 0;
  for (int burst = 0; burst < 50; ++burst) {
    std::vector<pubsub::Event> bundle;
    for (int i = 0; i < 10; ++i) {
      const std::size_t feed = popularity.sample(rng);
      bundle.push_back(
          pubsub::Event()
              .with("stream", "feed")
              .with("feed", "http://feed" + std::to_string(feed) +
                                ".example/f.rss")
              .with("seq", seq++));
    }
    publisher.publish_batch(std::move(bundle));
    sim.run_until(sim.now() + sim::kSecond);
  }
  sim.run_until(sim.now() + sim::kMinute);

  Result result;
  result.subs_forwarded = overlay.total_subs_forwarded();
  result.total_table = overlay.total_table_size();
  result.edge_broker_table = overlay.broker(brokers - 1).table_size();
  result.pubs_forwarded = overlay.total_pubs_forwarded();
  result.deliveries = overlay.total_deliveries();
  for (std::size_t i = 0; i < brokers; ++i) {
    result.unsubs_forwarded += overlay.broker(i).stats().unsubs_forwarded;
  }
  for (const std::string_view type :
       {pubsub::kTypePublish, pubsub::kTypePublishBatch,
        pubsub::kTypeDeliver, pubsub::kTypeDeliverBatch}) {
    const std::string key(type);
    result.event_wire_msgs += net.messages_by_type().get(key);
    result.event_units += net.units_by_type().get(key);
    result.event_bytes += net.bytes_by_type().get(key);
  }
  return result;
}

// --- flush delay: latency vs throughput --------------------------------------

struct FlushResult {
  std::uint64_t event_wire_msgs = 0;
  std::uint64_t event_units = 0;
  std::uint64_t flushed_units = 0;
  sim::Time residence_total = 0;
  std::uint64_t deliveries = 0;

  double ev_per_msg() const {
    return event_wire_msgs == 0
               ? 0.0
               : static_cast<double>(event_units) /
                     static_cast<double>(event_wire_msgs);
  }
  double mean_residence() const {
    return flushed_units == 0
               ? 0.0
               : static_cast<double>(residence_total) /
                     static_cast<double>(flushed_units);
  }
};

/// Paced traffic (one event per ms), where strict per-tick flushing has
/// nothing to coalesce: every tick holds one event, so ev/msg pins at ~1
/// and only a delay budget can trade residence for batching.
FlushResult run_flush_sweep(sim::Time delay, std::size_t brokers,
                            std::size_t subscribers, std::size_t feeds,
                            int events) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.0;
  sim::Network net(sim, net_config);

  pubsub::Broker::Config broker_config;
  broker_config.flush_max_delay_ticks = delay;
  pubsub::Overlay overlay(sim, net, broker_config);
  for (std::size_t i = 0; i < brokers; ++i) overlay.add_broker();
  for (std::size_t i = 1; i < brokers; ++i) overlay.link(i - 1, i);

  util::Rng rng(99);
  util::ZipfSampler popularity(feeds, 1.0);
  std::vector<std::unique_ptr<pubsub::Client>> clients;
  for (std::size_t s = 0; s < subscribers; ++s) {
    auto client = std::make_unique<pubsub::Client>(
        sim, net, "sub" + std::to_string(s));
    client->connect(overlay.broker(s % brokers));
    const std::size_t per_user = 3 + rng.index(5);
    for (std::size_t f = 0; f < per_user; ++f) {
      client->subscribe(feed_filter_for(popularity.sample(rng)));
    }
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kMinute);

  pubsub::Client publisher(sim, net, "pub");
  publisher.connect(overlay.broker(0));
  for (int seq = 0; seq < events; ++seq) {
    const std::size_t feed = popularity.sample(rng);
    publisher.publish(pubsub::Event()
                          .with("stream", "feed")
                          .with("feed", "http://feed" + std::to_string(feed) +
                                            ".example/f.rss")
                          .with("seq", seq));
    sim.run_until(sim.now() + sim::kMillisecond);
  }
  sim.run_until(sim.now() + sim::kMinute);

  FlushResult result;
  for (const std::string_view type :
       {pubsub::kTypePublish, pubsub::kTypePublishBatch,
        pubsub::kTypeDeliver, pubsub::kTypeDeliverBatch}) {
    const std::string key(type);
    result.event_wire_msgs += net.messages_by_type().get(key);
    result.event_units += net.units_by_type().get(key);
  }
  for (std::size_t i = 0; i < brokers; ++i) {
    const pubsub::Broker::Stats& stats = overlay.broker(i).stats();
    result.flushed_units += stats.flushed_units;
    result.residence_total += stats.residence_ticks_total;
  }
  result.deliveries = overlay.total_deliveries();
  return result;
}

// --- bm_deliver_topk: scored top-k delivery ----------------------------------

struct TopKResult {
  std::uint64_t deliveries = 0;
  std::uint64_t scored_matches = 0;
  std::uint64_t suppressed_by_k = 0;
  std::uint64_t suppressed_by_threshold = 0;
  std::uint64_t event_bytes = 0;
};

/// Scored-delivery sweep workload: every subscriber holds one broad
/// BM25-scored subscription (stream = "feed", so its top-k window is the
/// whole publication bundle) plus a few neutral per-feed subscriptions.
/// `scoring` off runs the identical workload through the boolean path
/// (plain subscribes, scoring_enabled = false) — the overhead baseline.
/// `min_score` > 0 also runs the threshold cut before the top-k cut.
TopKResult run_topk(const std::string& engine, bool scoring,
                    std::uint32_t top_k, std::size_t brokers,
                    std::size_t subscribers, std::size_t feeds,
                    double min_score = 0.0) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.0;
  sim::Network net(sim, net_config);

  pubsub::Broker::Config broker_config;
  broker_config.matcher_engine = engine;
  broker_config.scoring_enabled = scoring;
  pubsub::Overlay overlay(sim, net, broker_config);
  for (std::size_t i = 0; i < brokers; ++i) overlay.add_broker();
  for (std::size_t i = 1; i < brokers; ++i) overlay.link(i - 1, i);

  pubsub::ScoringSpec spec;
  spec.policy = pubsub::ScoringPolicy::kBm25;
  spec.query = {{"news", 2.0}, {"update", 1.0}, {"alpha", 0.5}};
  spec.text_attrs = {"title"};
  spec.top_k = top_k;
  spec.min_score = min_score;

  util::Rng rng(99);
  util::ZipfSampler popularity(feeds, 1.0);
  std::vector<std::unique_ptr<pubsub::Client>> clients;
  for (std::size_t s = 0; s < subscribers; ++s) {
    auto client = std::make_unique<pubsub::Client>(
        sim, net, "sub" + std::to_string(s));
    client->connect(overlay.broker(s % brokers));
    const pubsub::Filter broad =
        pubsub::Filter().and_(pubsub::eq("stream", "feed"));
    if (scoring) {
      client->subscribe_scored(broad, spec);
    } else {
      client->subscribe(broad);
    }
    for (std::size_t f = 0; f < 2; ++f) {
      client->subscribe(feed_filter_for(popularity.sample(rng)));
    }
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kMinute);

  static constexpr const char* kWords[] = {"alpha", "beta",   "gamma",
                                           "delta", "news",   "feed",
                                           "update", "log"};
  pubsub::Client publisher(sim, net, "pub");
  publisher.connect(overlay.broker(0));
  int seq = 0;
  for (int burst = 0; burst < 25; ++burst) {
    std::vector<pubsub::Event> bundle;
    for (int i = 0; i < 20; ++i) {
      const std::size_t feed = popularity.sample(rng);
      std::string title;
      for (int w = 0; w < 3; ++w) {
        if (w != 0) title += ' ';
        title += kWords[rng.index(8)];
      }
      bundle.push_back(
          pubsub::Event()
              .with("stream", "feed")
              .with("feed", "http://feed" + std::to_string(feed) +
                                ".example/f.rss")
              .with("title", title)
              .with("seq", seq++));
    }
    publisher.publish_batch(std::move(bundle));
    sim.run_until(sim.now() + sim::kSecond);
  }
  sim.run_until(sim.now() + sim::kMinute);

  TopKResult result;
  result.deliveries = overlay.total_deliveries();
  for (std::size_t i = 0; i < brokers; ++i) {
    const pubsub::Broker::Stats& stats = overlay.broker(i).stats();
    result.scored_matches += stats.scored_matches;
    result.suppressed_by_k += stats.suppressed_by_k;
    result.suppressed_by_threshold += stats.suppressed_by_threshold;
  }
  for (const std::string_view type :
       {pubsub::kTypePublish, pubsub::kTypePublishBatch,
        pubsub::kTypeDeliver, pubsub::kTypeDeliverBatch}) {
    result.event_bytes += net.bytes_by_type().get(std::string(type));
  }
  return result;
}

// --- crash recovery: reconvergence sweep -------------------------------------

struct ConvergenceResult {
  bool converged = false;
  sim::Time reconverge_time = 0;   ///< restart -> all fingerprints restored
  std::uint64_t resync_msgs = 0;   ///< anti-entropy messages (req + state)
  std::uint64_t resync_bytes = 0;
  std::uint64_t retransmits = 0;   ///< control retransmits during recovery
};

enum class Topology { kChain, kStar, kTree };

/// Builds the topology, settles a subscription population, crashes one
/// broker, restarts it, and measures how long the anti-entropy resync
/// takes to restore every broker's routing fingerprint bit for bit.
ConvergenceResult run_convergence(Topology topology, std::size_t brokers,
                                  std::size_t target,
                                  std::size_t subscribers) {
  sim::Simulator sim;
  sim::Network::Config net_config;
  net_config.default_latency = sim::kMillisecond;
  net_config.jitter_fraction = 0.0;
  sim::Network net(sim, net_config);

  pubsub::Broker::Config broker_config;
  broker_config.control.enabled = true;
  // Broker links run at 10ms; keep the timeout clear of the acked RTT.
  broker_config.control.retransmit_timeout = 60 * sim::kMillisecond;
  pubsub::Overlay overlay =
      topology == Topology::kChain
          ? pubsub::Overlay::chain(sim, net, brokers, broker_config)
          : topology == Topology::kStar
                ? pubsub::Overlay::star(sim, net, brokers, broker_config)
                : pubsub::Overlay::tree(sim, net, brokers, 2, broker_config);

  util::Rng rng(99);
  util::ZipfSampler popularity(60, 1.0);
  std::vector<std::unique_ptr<pubsub::Client>> clients;
  for (std::size_t s = 0; s < subscribers; ++s) {
    auto client = std::make_unique<pubsub::Client>(
        sim, net, "sub" + std::to_string(s));
    client->connect(overlay.broker(s % brokers));
    client->enable_reliable_control(broker_config.control);
    const std::size_t per_user = 3 + rng.index(5);
    for (std::size_t f = 0; f < per_user; ++f) {
      client->subscribe(feed_filter_for(popularity.sample(rng)));
    }
    clients.push_back(std::move(client));
  }
  sim.run_until(sim.now() + sim::kMinute);

  std::vector<std::string> before;
  for (std::size_t i = 0; i < brokers; ++i) {
    before.push_back(overlay.broker(i).routing_table().state_fingerprint());
  }
  const auto counters = [&] {
    ConvergenceResult totals;
    for (std::size_t i = 0; i < brokers; ++i) {
      const pubsub::Broker::Stats stats = overlay.broker(i).stats();
      totals.resync_msgs += stats.resync_msgs;
      totals.resync_bytes += stats.resync_bytes;
      totals.retransmits += stats.retransmits;
    }
    for (const auto& client : clients) {
      totals.retransmits += client->control_channel().stats().retransmits;
    }
    return totals;
  };
  const ConvergenceResult base = counters();

  overlay.crash(target);
  sim.run_until(sim.now() + 200 * sim::kMillisecond);
  overlay.restart(target);
  const sim::Time restart_at = sim.now();

  ConvergenceResult result;
  const sim::Time cap = 30 * sim::kSecond;
  while (sim.now() - restart_at < cap) {
    sim.run_until(sim.now() + 5 * sim::kMillisecond);
    bool match = true;
    for (std::size_t i = 0; i < brokers && match; ++i) {
      match = overlay.broker(i).routing_table().state_fingerprint() ==
              before[i];
    }
    if (match) {
      result.converged = true;
      break;
    }
  }
  result.reconverge_time = sim.now() - restart_at;
  const ConvergenceResult after = counters();
  result.resync_msgs = after.resync_msgs - base.resync_msgs;
  result.resync_bytes = after.resync_bytes - base.resync_bytes;
  result.retransmits = after.retransmits - base.retransmits;
  return result;
}

}  // namespace

int main() {
  std::printf("=== E7b: Broker routing, covering ablation ===\n");
  std::printf("chain of 8 brokers, Zipf feed popularity, 500 publications\n\n");
  std::printf("  %11s %6s %14s %14s %14s %12s %12s %12s\n", "subscribers",
              "broad", "subs fwd'd", "unsubs fwd'd", "tables (sum)",
              "edge table", "pubs fwd'd", "deliveries");
  std::printf("  %s\n", std::string(103, '-').c_str());
  // Covering prunes control traffic and routing state, never a delivery:
  // a hard invariant, feeding the exit code.
  bool cover_deliveries_identical = true;
  for (const std::size_t subscribers : {20, 50, 100, 200}) {
    for (const double broad : {0.0, 0.1}) {
      const Result with_cover =
          run(RunConfig{.covering = true}, 8, subscribers, 60, broad);
      const Result without =
          run(RunConfig{.covering = false}, 8, subscribers, 60, broad);
      cover_deliveries_identical = cover_deliveries_identical &&
                                   with_cover.deliveries == without.deliveries;
      std::printf("  %11zu %5.0f%%   cover %7s %14s %14zu %12zu %12s %12s\n",
                  subscribers, broad * 100,
                  reef::util::with_commas(with_cover.subs_forwarded).c_str(),
                  reef::util::with_commas(with_cover.unsubs_forwarded).c_str(),
                  with_cover.total_table, with_cover.edge_broker_table,
                  reef::util::with_commas(with_cover.pubs_forwarded).c_str(),
                  reef::util::with_commas(with_cover.deliveries).c_str());
      std::printf("  %11s %6s no-cover %5s %14s %14zu %12zu %12s %12s\n", "",
                  "", reef::util::with_commas(without.subs_forwarded).c_str(),
                  reef::util::with_commas(without.unsubs_forwarded).c_str(),
                  without.total_table, without.edge_broker_table,
                  reef::util::with_commas(without.pubs_forwarded).c_str(),
                  reef::util::with_commas(without.deliveries).c_str());
    }
  }
  std::printf("\n  deliveries %s; covering cuts control traffic "
              "and routing state, most visibly with broad subscribers.\n",
              cover_deliveries_identical ? "are identical" : "DIFFER");

  // --- engine x batching: wire traffic on the event path -------------------
  std::printf("\n=== engine x batching: event-path wire traffic ===\n");
  std::printf("chain of 8 brokers, 100 subscribers, 500 events in bursts "
              "of 10; events = the logical events those wire messages "
              "carry, one message each if nothing were coalesced\n\n");
  std::printf("  %-12s %12s %12s %10s %12s %12s\n", "engine", "wire msgs",
              "events", "ev/msg", "bytes", "deliveries");
  std::printf("  %s\n", std::string(75, '-').c_str());
  for (const std::string_view name : pubsub::kBuiltinEngines) {
    const std::string engine(name);
    const Result r = run(RunConfig{.engine = engine}, 8, 100, 60, 0.0);
    std::printf("  %-12s %12s %12s %10.1f %12s %12s\n", engine.c_str(),
                reef::util::with_commas(r.event_wire_msgs).c_str(),
                reef::util::with_commas(r.event_units).c_str(),
                r.event_wire_msgs == 0
                    ? 0.0
                    : static_cast<double>(r.event_units) /
                          static_cast<double>(r.event_wire_msgs),
                reef::util::with_commas(r.event_bytes).c_str(),
                reef::util::with_commas(r.deliveries).c_str());
  }
  std::printf("\n  engines agree on deliveries; per-tick batching collapses "
              "the per-event wire messages (ev/msg > 1).\n");

  // --- worker split: worker sweep -----------------------------------------
  std::printf("\n=== worker split: worker sweep ===\n");
  const std::string default_engine(pubsub::kDefaultEngine);
  std::printf("chain of 8 brokers, 100 subscribers, %s engine; "
              "deliveries must be identical on every row\n\n",
              default_engine.c_str());
  std::printf("  %-14s %-8s %12s %12s\n", "engine", "workers", "wire msgs",
              "deliveries");
  std::printf("  %s\n", std::string(50, '-').c_str());
  bool workers_identical = true;
  Result first_workers_row;
  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    const Result r =
        run(RunConfig{.worker_threads = workers}, 8, 100, 60, 0.0);
    if (workers == 0) {
      first_workers_row = r;
    } else if (r.event_wire_msgs != first_workers_row.event_wire_msgs ||
               r.deliveries != first_workers_row.deliveries) {
      workers_identical = false;
    }
    std::printf("  %-14s %-8zu %12s %12s\n", default_engine.c_str(),
                workers, reef::util::with_commas(r.event_wire_msgs).c_str(),
                reef::util::with_commas(r.deliveries).c_str());
  }
  std::printf("\n  worker threads split each broker's batch match into "
              "contiguous event ranges over its one engine, each range "
              "writing its own slice of the output — without changing a "
              "single wire message or delivery (a difference is a hard "
              "failure).\n");

  // --- flush delay: latency vs throughput ---------------------------------
  std::printf("\n=== flush delay: latency vs throughput sweep ===\n");
  std::printf("chain of 4 brokers, 60 subscribers, 400 events paced 1/ms "
              "(per-tick flushing has nothing to coalesce here)\n\n");
  std::printf("  %-10s | %10s %7s %14s %11s\n", "delay", "wire msgs",
              "ev/msg", "res(ticks)", "deliveries");
  std::printf("  %s\n", std::string(60, '-').c_str());
  double prev_residence = -1.0;
  bool residence_monotone = true;
  std::uint64_t first_deliveries = 0;
  bool first_row_seen = false;
  bool deliveries_identical = true;
  for (const sim::Time delay :
       {sim::Time{0}, 1 * sim::kMillisecond, 5 * sim::kMillisecond,
        20 * sim::kMillisecond}) {
    const FlushResult r = run_flush_sweep(delay, 4, 60, 30, 400);
    char delay_label[24];
    std::snprintf(delay_label, sizeof(delay_label), "%lldms",
                  static_cast<long long>(delay / sim::kMillisecond));
    std::printf("  %-10s | %10s %7.1f %14.0f %11s\n", delay_label,
                reef::util::with_commas(r.event_wire_msgs).c_str(),
                r.ev_per_msg(), r.mean_residence(),
                reef::util::with_commas(r.deliveries).c_str());
    // Residence must grow monotonically with the delay, and the delay must
    // never change a delivery; both are hard failures (nonzero exit), so a
    // regression fails CI instead of hiding in the report artifact.
    if (prev_residence >= 0.0 && r.mean_residence() < prev_residence) {
      residence_monotone = false;
    }
    prev_residence = r.mean_residence();
    if (!first_row_seen) {
      first_deliveries = r.deliveries;
      first_row_seen = true;
    } else if (r.deliveries != first_deliveries) {
      deliveries_identical = false;
    }
  }
  std::printf("\n  residence (mean ticks an event waits in a broker before "
              "its batch is cut) %s monotonically as the delay budget "
              "loosens, buying ev/msg — deliveries are identical on every "
              "row.\n",
              residence_monotone ? "grows" : "DOES NOT GROW (REGRESSION!)");

  // --- bm_deliver_topk: scored top-k delivery sweep ------------------------
  std::printf("\n=== bm_deliver_topk: scored top-k delivery sweep ===\n");
  std::printf("chain of 4 brokers, 60 subscribers each holding one broad "
              "BM25-scored subscription (top-k window = the publication "
              "bundle of 20) plus 2 neutral feed subscriptions; 500 events. "
              "'bool' = scoring disabled baseline, k=unl = scored but "
              "unbounded.\n");
  std::printf("min=1 = k unbounded with min_score 1.0, so the threshold "
              "cut runs.\n\n");
  std::printf("  %-14s %-6s %12s %14s %10s %10s %14s\n", "engine", "k",
              "deliveries", "scored match", "supp(k)", "supp(min)",
              "event bytes");
  std::printf("  %s\n", std::string(88, '-').c_str());
  bool topk_ok = true;
  for (const std::string_view name : pubsub::kBuiltinEngines) {
    const std::string engine(name);
    const TopKResult boolean = run_topk(engine, false, 0, 4, 60, 30);
    std::printf("  %-14s %-6s %12s %14s %10s %10s %14s\n", engine.c_str(),
                "bool",
                reef::util::with_commas(boolean.deliveries).c_str(), "-",
                "-", "-",
                reef::util::with_commas(boolean.event_bytes).c_str());
    std::uint64_t prev_deliveries = 0;
    TopKResult unbounded;
    for (const std::uint32_t k : {1u, 4u, 16u, 0u}) {
      const TopKResult r = run_topk(engine, true, k, 4, 60, 30);
      char k_label[16];
      if (k == 0) {
        std::snprintf(k_label, sizeof(k_label), "unl");
      } else {
        std::snprintf(k_label, sizeof(k_label), "%u", k);
      }
      std::printf("  %-14s %-6s %12s %14s %10s %10s %14s\n", "", k_label,
                  reef::util::with_commas(r.deliveries).c_str(),
                  reef::util::with_commas(r.scored_matches).c_str(),
                  reef::util::with_commas(r.suppressed_by_k).c_str(),
                  reef::util::with_commas(r.suppressed_by_threshold).c_str(),
                  reef::util::with_commas(r.event_bytes).c_str());
      // Sweep invariants (hard failures, feeding the exit code):
      //   * the k cut suppresses something iff k is finite;
      //   * deliveries grow monotonically as k loosens;
      //   * unbounded scored delivery equals the boolean baseline;
      //   * no threshold suppression (min_score = 0 in this sweep).
      if ((r.suppressed_by_k > 0) != (k != 0)) topk_ok = false;
      if (r.deliveries < prev_deliveries) topk_ok = false;
      if (k == 0 && r.deliveries != boolean.deliveries) topk_ok = false;
      if (r.suppressed_by_threshold != 0) topk_ok = false;
      prev_deliveries = r.deliveries;
      if (k == 0) unbounded = r;
    }
    const TopKResult r = run_topk(engine, true, 0, 4, 60, 30, 1.0);
    std::printf("  %-14s %-6s %12s %14s %10s %10s %14s\n", "", "min=1",
                reef::util::with_commas(r.deliveries).c_str(),
                reef::util::with_commas(r.scored_matches).c_str(),
                reef::util::with_commas(r.suppressed_by_k).c_str(),
                reef::util::with_commas(r.suppressed_by_threshold).c_str(),
                reef::util::with_commas(r.event_bytes).c_str());
    // The threshold row: min_score cuts something, only deliveries the
    // unbounded row makes, and scores the same candidates it does.
    if (r.suppressed_by_threshold == 0) topk_ok = false;
    if (r.suppressed_by_k != 0) topk_ok = false;
    if (r.deliveries > unbounded.deliveries) topk_ok = false;
    if (r.scored_matches != unbounded.scored_matches) topk_ok = false;
  }
  std::printf("\n  the cut binds at the delivery edge only: bounded rows "
              "ship fewer deliver bytes, unbounded scoring reproduces the "
              "boolean delivery set exactly (plus 8 bytes/entry of score), "
              "and every engine agrees row for row.\n");

  // --- crash recovery: reconvergence sweep ---------------------------------
  std::printf("\n=== crash recovery: reconvergence sweep ===\n");
  std::printf("8 brokers, 96 subscribers, reliable control + anti-entropy "
              "resync; a broker crashes, restarts empty, and every routing "
              "fingerprint must return bit for bit\n\n");
  std::printf("  %-10s %-10s | %14s %12s %12s %12s\n", "topology",
              "crash at", "reconverge", "resync msgs", "resync KB",
              "retransmits");
  std::printf("  %s\n", std::string(80, '-').c_str());
  struct ConvergenceRow {
    const char* label;
    Topology topology;
    const char* pos;
    std::size_t target;
  };
  bool all_converged = true;
  for (const ConvergenceRow& row :
       {ConvergenceRow{"chain-8", Topology::kChain, "middle", 4},
        ConvergenceRow{"chain-8", Topology::kChain, "edge", 7},
        ConvergenceRow{"star-8", Topology::kStar, "hub", 0},
        ConvergenceRow{"star-8", Topology::kStar, "leaf", 3},
        ConvergenceRow{"tree-8/f2", Topology::kTree, "internal", 1},
        ConvergenceRow{"tree-8/f2", Topology::kTree, "leaf", 7}}) {
    const ConvergenceResult r =
        run_convergence(row.topology, 8, row.target, 96);
    all_converged = all_converged && r.converged;
    char time_label[32];
    if (r.converged) {
      std::snprintf(time_label, sizeof(time_label), "%.0f ms",
                    static_cast<double>(r.reconverge_time) /
                        static_cast<double>(sim::kMillisecond));
    } else {
      std::snprintf(time_label, sizeof(time_label), "DNF");
    }
    std::printf("  %-10s %-10s | %14s %12s %12.1f %12s\n", row.label,
                row.pos, time_label,
                reef::util::with_commas(r.resync_msgs).c_str(),
                static_cast<double>(r.resync_bytes) / 1024.0,
                reef::util::with_commas(r.retransmits).c_str());
  }
  std::printf("\n  reconvergence is dominated by hop depth (digest exchange "
              "+ one full-state replay per interface); the hub crash pays "
              "the widest resync, the leaf the cheapest. DNF on any row is "
              "a hard failure.\n");

  if (!cover_deliveries_identical || !workers_identical ||
      !residence_monotone || !deliveries_identical || !all_converged ||
      !topk_ok) {
    std::printf("\nFAIL: sweep invariants violated (cover_deliveries=%d, "
                "worker_sweep=%d, residence_monotone=%d, "
                "deliveries_identical=%d, crash_reconvergence=%d, "
                "topk_sweep=%d)\n",
                cover_deliveries_identical ? 1 : 0,
                workers_identical ? 1 : 0, residence_monotone ? 1 : 0,
                deliveries_identical ? 1 : 0, all_converged ? 1 : 0,
                topk_ok ? 1 : 0);
    return 1;
  }
  return 0;
}
