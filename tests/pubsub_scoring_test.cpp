// Unit tier for the scored-matching layer (pubsub/scoring.h): ScoringSpec
// neutrality/wire/hash semantics, score_event purity and the corpus-free
// BM25 formula, TopKSelector's deterministic tie-breaking, the scored
// decoration of every engine's match_batch, bare and sharded (including sub-batch
// view composition), and small end-to-end broker runs composing the
// min_score threshold with the top-k cut. The differential fuzz harness
// (tests/pubsub_differential_fuzz_test.cpp, level 5) covers the same
// contract at scale; this file pins the boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine_variants.h"
#include "pubsub/client.h"
#include "pubsub/matcher.h"
#include "pubsub/overlay.h"
#include "pubsub/scoring.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace reef::pubsub {
namespace {

ScoringSpec bm25_spec(std::vector<ir::ScoredTerm> query,
                      std::vector<std::string> attrs,
                      std::uint32_t top_k = 0, double min_score = 0.0) {
  ScoringSpec spec;
  spec.policy = ScoringPolicy::kBm25;
  spec.query = std::move(query);
  spec.text_attrs = std::move(attrs);
  spec.top_k = top_k;
  spec.min_score = min_score;
  return spec;
}

// --- ScoringSpec -------------------------------------------------------------

TEST(ScoringSpec, DefaultIsNeutralWithZeroWireAndHash) {
  const ScoringSpec spec;
  EXPECT_TRUE(spec.neutral());
  EXPECT_EQ(spec.wire_size(), 0u);
  EXPECT_EQ(spec.hash(), 0u);
}

TEST(ScoringSpec, AnySuppressionKnobBreaksNeutrality) {
  ScoringSpec k;
  k.top_k = 1;
  EXPECT_FALSE(k.neutral());
  ScoringSpec threshold;
  threshold.min_score = 0.5;
  EXPECT_FALSE(threshold.neutral());
  ScoringSpec bm25 = bm25_spec({{"a", 1.0}}, {"text"});
  EXPECT_FALSE(bm25.neutral());
  for (const ScoringSpec& spec : {k, threshold, bm25}) {
    EXPECT_GT(spec.wire_size(), 0u) << spec.summary();
    EXPECT_NE(spec.hash(), 0u) << spec.summary();
  }
}

TEST(ScoringSpec, HashDistinguishesContent) {
  const ScoringSpec a = bm25_spec({{"news", 1.5}}, {"title"}, 2, 0.5);
  ScoringSpec b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.top_k = 3;
  EXPECT_NE(a.hash(), b.hash());
  ScoringSpec c = a;
  c.query[0].score = 2.5;
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ScoringSpec, SummaryNamesPolicyAndKnobs) {
  const ScoringSpec spec = bm25_spec({{"news", 1.5}}, {"title"}, 2, 0.5);
  const std::string summary = spec.summary();
  EXPECT_NE(summary.find("bm25"), std::string::npos) << summary;
  EXPECT_NE(summary.find("k=2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("news"), std::string::npos) << summary;
}

// --- score_event -------------------------------------------------------------

TEST(ScoreEvent, ConstantPolicyScoresConstant) {
  ScoringSpec spec;  // constant, even with knobs set
  spec.top_k = 1;
  spec.min_score = 0.25;
  EXPECT_EQ(score_event(spec, Event()), kConstantScore);
  EXPECT_EQ(score_event(spec, Event().with("text", "log log log")),
            kConstantScore);
}

TEST(ScoreEvent, Bm25ZeroWithoutTokenizableText) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"});
  EXPECT_EQ(score_event(spec, Event()), 0.0);
  EXPECT_EQ(score_event(spec, Event().with("other", "log")), 0.0);
  // Non-string values under a designated attribute contribute nothing.
  EXPECT_EQ(score_event(spec, Event().with("text", std::int64_t{42})), 0.0);
  // Tokens below the tokenizer's minimum length vanish too.
  EXPECT_EQ(score_event(spec, Event().with("text", "a b c")), 0.0);
}

TEST(ScoreEvent, Bm25MonotoneInTermFrequency) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"});
  const double tf1 = score_event(spec, Event().with("text", "log"));
  const double tf3 = score_event(spec, Event().with("text", "log log log"));
  EXPECT_GT(tf1, 0.0);
  EXPECT_GT(tf3, tf1);
}

TEST(ScoreEvent, Bm25QueryWeightsScaleAndClamp) {
  const Event event = Event().with("text", "log");
  const double w1 = score_event(bm25_spec({{"log", 1.0}}, {"text"}), event);
  const double w2 = score_event(bm25_spec({{"log", 2.0}}, {"text"}), event);
  EXPECT_EQ(w2, 2.0 * w1);
  // Negative weights clamp to zero contribution (ir::Bm25 weighted rule).
  EXPECT_EQ(score_event(bm25_spec({{"log", -3.0}}, {"text"}), event), 0.0);
}

TEST(ScoreEvent, Bm25DesignatedAttributesFormOneBag) {
  // Two designated attributes concatenate into one bag of words: same
  // token multiset, same score as a single attribute holding both.
  const ScoringSpec split = bm25_spec({{"log", 1.0}}, {"body", "title"});
  const ScoringSpec joined = bm25_spec({{"log", 1.0}}, {"text"});
  const double split_score = score_event(
      split, Event().with("title", "log").with("body", "log feed"));
  const double joined_score =
      score_event(joined, Event().with("text", "log log feed"));
  EXPECT_EQ(split_score, joined_score);
}

TEST(ScoreEvent, DeterministicAcrossCalls) {
  const ScoringSpec spec =
      bm25_spec({{"log", 1.3}, {"feed", 0.7}}, {"text", "file"});
  const Event event =
      Event().with("text", "log feed log").with("file", "a.log");
  const double first = score_event(spec, event);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(score_event(spec, event), first);  // bitwise, not approx
  }
}

// --- TopKSelector ------------------------------------------------------------

std::vector<std::uint32_t> offer_all(
    std::uint32_t k, const std::vector<std::pair<double, std::uint32_t>>& c) {
  TopKSelector topk(k);
  for (const auto& [score, order] : c) topk.offer(score, order);
  return topk.take();
}

TEST(TopKSelector, ZeroMeansUnlimited) {
  EXPECT_EQ(offer_all(0, {{0.1, 3}, {0.9, 1}, {0.5, 2}, {0.7, 0}}),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(TopKSelector, KLargerThanCandidateCountKeepsAll) {
  EXPECT_EQ(offer_all(10, {{0.1, 2}, {0.9, 0}}),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(TopKSelector, KeepsHighestScoresInEventOrder) {
  // Winners are 1 (0.9) and 3 (0.8); output is event order, never score
  // order.
  EXPECT_EQ(offer_all(2, {{0.2, 0}, {0.9, 1}, {0.1, 2}, {0.8, 3}}),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST(TopKSelector, DuplicateScoresAtCutKeepEarliestOrders) {
  EXPECT_EQ(offer_all(2, {{0.5, 0}, {0.5, 1}, {0.5, 2}}),
            (std::vector<std::uint32_t>{0, 1}));
  // Offer order must not matter: same candidates, reversed arrival.
  EXPECT_EQ(offer_all(2, {{0.5, 2}, {0.5, 1}, {0.5, 0}}),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKSelector, TieAgainstHigherScoreResolvesByOrder) {
  // 1 wins outright (0.9); the 0-vs-2 tie at 0.5 resolves to 0.
  EXPECT_EQ(offer_all(2, {{0.5, 0}, {0.9, 1}, {0.5, 2}}),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKSelector, OfferOrderInsensitive) {
  std::vector<std::pair<double, std::uint32_t>> cands = {
      {0.5, 0}, {0.9, 1}, {0.5, 2}, {0.1, 3}};
  std::sort(cands.begin(), cands.end());
  const std::vector<std::uint32_t> expected = {0, 1};
  do {
    EXPECT_EQ(offer_all(2, cands), expected);
  } while (std::next_permutation(cands.begin(), cands.end()));
}

TEST(TopKSelector, TakeResetsTheSelector) {
  TopKSelector topk(1);
  topk.offer(0.9, 7);
  EXPECT_EQ(topk.take(), (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(topk.size(), 0u);
  topk.offer(0.1, 3);
  EXPECT_EQ(topk.take(), (std::vector<std::uint32_t>{3}));
}

// --- match_batch_scored across the engines ----------------------------------

std::vector<ScoredHit> sorted_hits(std::vector<ScoredHit> hits) {
  std::sort(hits.begin(), hits.end(),
            [](const ScoredHit& a, const ScoredHit& b) { return a.id < b.id; });
  return hits;
}

TEST(MatchBatchScored, DecoratesEveryEngine) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"}, 1, 0.0);
  const std::vector<Event> events = {
      Event().with("hot", std::int64_t{1}).with("text", "log"),
      Event().with("hot", std::int64_t{0}),
      Event().with("hot", std::int64_t{1}).with("text", "log log"),
  };
  for (const EngineVariant& variant : engine_variants()) {
    auto engine = variant.make();
    const std::string name = variant.label();
    engine->add(1, Filter().and_(eq("hot", std::int64_t{1})));
    engine->add(2, Filter());  // universal, no spec: scores constant
    ScoringIndex scoring;
    scoring.set(1, spec);

    std::vector<std::vector<ScoredHit>> scored;
    engine->match_batch_scored(events, scoring, scored);
    ASSERT_EQ(scored.size(), events.size()) << name;

    std::vector<std::vector<SubscriptionId>> boolean;
    engine->match_batch(events, boolean);
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Same hit set as the boolean batch...
      std::vector<ScoredHit> expected;
      for (const SubscriptionId id : boolean[i]) {
        expected.push_back(
            {id, id == 1 ? score_event(spec, events[i]) : kConstantScore});
      }
      // ...each hit carrying score_event of its spec.
      EXPECT_EQ(sorted_hits(scored[i]), sorted_hits(expected))
          << name << " event " << i;
    }
    EXPECT_EQ(sorted_hits(scored[1]),
              (std::vector<ScoredHit>{{2, kConstantScore}}))
        << name;
  }
}

TEST(MatchBatchScored, SubBatchViewScoresComposeWithFullBatch) {
  const ScoringSpec spec = bm25_spec({{"log", 2.0}, {"rss", 1.0}}, {"file"});
  std::vector<Event> events;
  for (int i = 0; i < 6; ++i) {
    events.push_back(Event()
                         .with("file", i % 2 ? "a.log" : "feed.rss")
                         .with("seq", static_cast<std::int64_t>(i)));
  }
  const std::vector<std::uint32_t> indices = {4, 1, 3};
  for (const EngineVariant& variant : engine_variants()) {
    auto engine = variant.make();
    const std::string name = variant.label();
    engine->add(1, Filter().and_(exists("file")));
    ScoringIndex scoring;
    scoring.set(1, spec);

    std::vector<std::vector<ScoredHit>> full;
    engine->match_batch_scored(std::span<const Event>(events), scoring, full);
    std::vector<std::vector<ScoredHit>> sub;
    engine->match_batch_scored(
        EventBatchView(std::span<const Event>(events),
                       std::span<const std::uint32_t>(indices)),
        scoring, sub);
    ASSERT_EQ(sub.size(), indices.size()) << name;
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
      // Batch-composition independence extends to scores: the sub-batch
      // view's (id, score) lists are the full batch's at those positions.
      EXPECT_EQ(sorted_hits(sub[pos]), sorted_hits(full[indices[pos]]))
          << name << " pos " << pos;
    }
  }
}

// --- end-to-end: threshold + top-k composition at a broker -------------------

struct Harness {
  sim::Simulator sim;
  sim::Network net;
  explicit Harness() : net(sim, fast()) {}
  static sim::Network::Config fast() {
    sim::Network::Config config;
    config.default_latency = sim::kMillisecond;
    config.jitter_fraction = 0.0;
    return config;
  }
  void settle() { sim.run_until(sim.now() + 10 * sim::kSecond); }
};

Broker::Config scored_config() {
  Broker::Config config;
  config.scoring_enabled = true;
  return config;
}

TEST(ScoredDelivery, ThresholdAppliesBeforeTopKCut) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"}, 1, 0.5);
  std::vector<std::pair<std::string, double>> got;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event& e, SubscriptionId, double score) {
                         got.emplace_back(e.to_string(), score);
                       });
  h.settle();

  const std::vector<Event> batch = {
      Event().with("name", "silent"),            // bm25 score 0: threshold
      Event().with("text", "log"),               // eligible
      Event().with("text", "log log log"),       // eligible, higher: wins k=1
  };
  pub.publish_batch(batch);
  h.settle();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, batch[2].to_string());
  EXPECT_EQ(got[0].second, score_event(spec, batch[2]));
  EXPECT_EQ(broker.stats().scored_matches, 3u);
  EXPECT_EQ(broker.stats().suppressed_by_threshold, 1u);
  EXPECT_EQ(broker.stats().suppressed_by_k, 1u);
}

TEST(ScoredDelivery, TopKZeroDeliversAllWithScoresAttached) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  // Non-neutral (min_score 0.5) but unable to suppress constant scores:
  // every match is delivered and the handler sees the real score.
  ScoringSpec spec;
  spec.min_score = 0.5;
  std::vector<double> scores;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event&, SubscriptionId, double score) {
                         scores.push_back(score);
                       });
  h.settle();
  pub.publish_batch({Event().with("seq", std::int64_t{0}),
                     Event().with("seq", std::int64_t{1})});
  h.settle();

  EXPECT_EQ(scores, (std::vector<double>{kConstantScore, kConstantScore}));
  EXPECT_EQ(broker.stats().scored_matches, 2u);
  EXPECT_EQ(broker.stats().suppressed_by_threshold, 0u);
  EXPECT_EQ(broker.stats().suppressed_by_k, 0u);
}

TEST(ScoredDelivery, NeutralSubscriberUnaffectedByScoredSibling) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  // Same interface, same filter: one neutral, one top-1. The scored
  // sibling's suppression must not leak into the neutral delivery, and
  // the neutral handler reads kConstantScore even on mixed DeliverMsgs.
  std::vector<double> neutral_scores;
  int neutral_got = 0;
  sub.subscribe(Filter(), [&](const Event&, SubscriptionId) { ++neutral_got; });
  ScoringSpec spec;
  spec.top_k = 1;
  int scored_got = 0;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event&, SubscriptionId, double score) {
                         ++scored_got;
                         neutral_scores.push_back(score);
                       });
  h.settle();
  pub.publish_batch({Event().with("seq", std::int64_t{0}),
                     Event().with("seq", std::int64_t{1}),
                     Event().with("seq", std::int64_t{2})});
  h.settle();

  EXPECT_EQ(neutral_got, 3);
  EXPECT_EQ(scored_got, 1);
  EXPECT_EQ(neutral_scores, (std::vector<double>{kConstantScore}));
  EXPECT_EQ(broker.stats().scored_matches, 3u);
  EXPECT_EQ(broker.stats().suppressed_by_k, 2u);
}

TEST(ScoredDelivery, WindowIsThePublicationBatch) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client pub(h.sim, h.net, "pub");
  Client sub(h.sim, h.net, "sub");
  pub.connect(broker);
  sub.connect(broker);

  ScoringSpec spec;
  spec.top_k = 1;
  int got = 0;
  sub.subscribe_scored(Filter(), spec,
                       [&](const Event&, SubscriptionId, double) { ++got; });
  h.settle();
  // Two separate publications: each is its own top-k window, so both
  // survive a k=1 cut (top-k is per batch, not per subscription lifetime).
  pub.publish(Event().with("seq", std::int64_t{0}));
  h.settle();
  pub.publish(Event().with("seq", std::int64_t{1}));
  h.settle();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(broker.stats().suppressed_by_k, 0u);
}

TEST(ScoredDelivery, ScoringPolicyNames) {
  EXPECT_STREQ(scoring_policy_name(ScoringPolicy::kConstant), "constant");
  EXPECT_STREQ(scoring_policy_name(ScoringPolicy::kBm25), "bm25");
}

}  // namespace
}  // namespace reef::pubsub
