// Inputs of the end-to-end overlay benchmark: the four workloads, the
// subscription population, and the per-tick schedule.
//
// The subscriptions and events come from the repository's calibrated Reef
// workload rather than from distributions of the benchmark's own:
// BrowsingGenerator (src/workload) users browse the SyntheticWeb of the
// §6 recommendation-rate experiment, the topic and content recommenders
// (src/reef) turn that browsing into subscriptions, and FeedService
// (src/feeds) items, as the FeedEvents proxy publishes them, are the
// events. Everything here is a pure function of (workload, seed), so the
// live run, the correctness check and the traced replays see identical
// inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/event.h"
#include "pubsub/filter.h"
#include "pubsub/scoring.h"
#include "sim/time.h"
#include "util/rng.h"

namespace e2e {

using namespace reef;

enum class Workload { kFeedFanout, kPacedSingle, kSubChurn, kScoredTopk };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

// Shared topology (see README.md). One Reef user per subscriber client.
inline constexpr std::size_t kBrokers = 8;
inline constexpr std::size_t kFanout = 2;
inline constexpr std::size_t kClients = 240;
// Broker links keep Overlay::link's default latency of 10 ms.
inline constexpr sim::Time kClientLink = 1 * sim::kMillisecond;
inline constexpr sim::Time kTick = 1 * sim::kMillisecond;

/// Events per bundle and bundle period in ticks.
std::size_t bundle_size(Workload w);
std::size_t bundle_period(Workload w);
/// Parent of broker `i` in the shared tree (i > 0).
inline std::size_t tree_parent(std::size_t i) { return (i - 1) / kFanout; }

/// One subscription as the benchmark issues it.
struct SubSpec {
  std::size_t client = 0;
  pubsub::Filter filter;
  pubsub::ScoringSpec scoring;  // neutral unless scored_topk's broad sub
  std::string feed_url;         // set on feed subscriptions (feed_filter)
};

/// Everything a run feeds the system, generated once per process.
struct Inputs {
  Inputs(Workload w, std::uint64_t seed);

  Workload workload;
  std::uint64_t seed;
  /// The settled population, in issue order: schedule handle h, for h
  /// below its size, is element h.
  std::vector<SubSpec> population;
  /// sub_churn's subscribes: the feed recommendations after the
  /// population's, in the order the recommender made them (reused
  /// cyclically).
  std::vector<SubSpec> fresh;
  /// Feed items of the watched feeds in the order the proxy publishes
  /// them (reused cyclically; every publication gets its own pub_seq/ts).
  std::vector<pubsub::Event> items;
  std::size_t visits = 0;         // browsing requests the users made
  std::size_t watched_feeds = 0;  // feeds with a subscriber
};

/// One subscription operation. Handles number subscriptions densely in
/// the order they are created: population first, then churn subscribes.
struct SubOp {
  bool subscribe = true;
  std::uint64_t handle = 0;
  SubSpec spec;  // subscribe only
};

struct Tick {
  std::vector<pubsub::Event> events;  // published as one batch (or one event)
  std::vector<SubOp> ops;
};

/// The open-loop schedule: tick t happens at sim time start + t * kTick.
/// Two instances over the same inputs produce the same ticks.
class Schedule {
 public:
  Schedule(const Inputs& inputs, sim::Time start);

  /// Fills `out` with the next tick's actions.
  void next(Tick& out);

  std::uint64_t ticks() const noexcept { return tick_; }
  std::uint64_t events() const noexcept { return next_seq_; }

 private:
  const Inputs& in_;
  sim::Time start_;
  util::Rng victim_rng_;
  std::vector<std::uint64_t> live_;  // sub_churn: live feed subscriptions
  std::uint64_t tick_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_handle_ = 0;
};

/// Attributes the benchmark adds to each published item and reads back on
/// delivery: a publication number and the publish sim time.
inline constexpr std::string_view kSeqAttr = "pub_seq";
inline constexpr std::string_view kTsAttr = "ts";

}  // namespace e2e
