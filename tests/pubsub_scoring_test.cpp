// Unit tier for the scored-matching layer (pubsub/scoring.h): ScoringSpec
// neutrality/wire/hash semantics, score_event purity and the corpus-free
// BM25 formula (the TermBag path held bitwise to a reference copy of the
// earlier per-hit formula), cut_top_k's deterministic tie-breaking and
// the broker's DeliverySelector held to a verbatim copy of the earlier
// sort-plus-heap selection, the routing table's top-k window slots,
// the routing table's scored decoration of every engine's match_batch
// (including contiguous sub-span composition), and small end-to-end
// broker runs composing the min_score threshold with the top-k cut. The
// differential fuzz harness (tests/pubsub_differential_fuzz_test.cpp,
// level 5) covers the same contract at scale; this file pins the
// boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ir/bm25.h"
#include "ir/tokenizer.h"
#include "pubsub/broker.h"
#include "pubsub/client.h"
#include "pubsub/engines.h"
#include "pubsub/overlay.h"
#include "pubsub/routing_table.h"
#include "pubsub/scoring.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

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

constexpr RoutingTable::IfaceId kClient = 7;

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

TEST(ScoreEvent, NanWeightContributesNothing) {
  const Event event = Event().with("text", "log feed log");
  const double nan = std::nan("");
  EXPECT_EQ(score_event(bm25_spec({{"log", nan}}, {"text"}), event), 0.0);
  const double without =
      score_event(bm25_spec({{"log", 1.0}, {"feed", 0.5}}, {"text"}), event);
  EXPECT_GT(without, 0.0);
  EXPECT_EQ(score_event(bm25_spec({{"log", 1.0}, {"feed", nan}, {"feed", 0.5}},
                                  {"text"}),
                        event),
            without);
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

/// The pre-TermBag score_event body, verbatim: a fresh unordered_map bag
/// per call. The bitwise-agreement test holds the production formula to
/// it.
double reference_score(const ScoringSpec& spec, const Event& event) {
  if (spec.policy == ScoringPolicy::kConstant) return kConstantScore;
  // One bag of words over the designated text attributes, in spec order.
  std::unordered_map<std::string, std::uint32_t> tf;
  std::size_t len = 0;
  for (const std::string& attr : spec.text_attrs) {
    const Value* value = event.find(attr);
    if (value == nullptr || !value->is_string()) continue;
    for (std::string& token : ir::tokenize(value->as_string())) {
      ++tf[std::move(token)];
      ++len;
    }
  }
  if (len == 0) return 0.0;
  const ir::Bm25Params params;
  const double norm =
      params.k1 *
      (1.0 - params.b +
       params.b * static_cast<double>(len) / kScoringAvgDocLen);
  double score = 0.0;
  // Summation order is the query order — fixed by the spec, so the
  // floating-point result is bit-identical everywhere.
  for (const ir::ScoredTerm& term : spec.query) {
    const auto it = tf.find(term.term);
    if (it == tf.end()) continue;
    const double weight = std::max(term.score, 0.0);
    const double freq = static_cast<double>(it->second);
    score += weight * freq * (params.k1 + 1.0) / (freq + norm);
  }
  return score;
}

// Vocabulary of the bitwise trials: mixed case, 1-, 40- and 41-byte
// tokens (the default tokenizer keeps 2..40), all-numeric runs and
// high-bit bytes (separators to the tokenizer).
const std::vector<std::string>& trial_words() {
  static const std::vector<std::string> kWords = {
      "log", "Log", "LOG", "rss", "feed", "News", "a", "x", "7",
      "12345", "caf\xe9", "\xc3\xa9t\xc3\xa9", std::string(40, 'q'),
      std::string(41, 'q'), "mIxEd", "mixed"};
  return kWords;
}

std::string trial_text(util::Rng& rng) {
  static constexpr const char* kSeparators[] = {" ", ", ", "-", "\xff", "/"};
  if (rng.chance(0.1)) return "";
  if (rng.chance(0.05)) return "2024 10 18";  // all numeric: no tokens
  std::string text;
  const std::size_t words = 1 + rng.index(10);
  for (std::size_t w = 0; w < words; ++w) {
    if (w != 0) text += kSeparators[rng.index(5)];
    text += trial_words()[rng.index(trial_words().size())];
  }
  return text;
}

Event trial_event(util::Rng& rng, std::int64_t seq) {
  Event event = Event().with("seq", seq);
  for (const char* attr : {"title", "text", "file"}) {
    if (rng.chance(0.25)) continue;  // absent
    if (rng.chance(0.1)) {
      event.with(attr, static_cast<std::int64_t>(rng.index(100)));
    } else {
      event.with(attr, trial_text(rng));
    }
  }
  return event;
}

ScoringSpec trial_spec(util::Rng& rng) {
  static const std::vector<std::vector<std::string>> kAttrLists = {
      {"title"},         {"text", "file"}, {"file", "text"},
      {"title", "title"}, {"text", "text", "file"}, {},
      {"nowhere_attr"},  {"title", "nowhere_attr"}};
  static constexpr const char* kTerms[] = {
      "log", "rss", "feed", "news", "a", "x", "12345", "caf", "mixed",
      "LOG", "t", "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq"};
  static constexpr double kWeights[] = {1.0, 2.5, 0.0, -1.0, -0.0, 0.3, 1e-3};
  ScoringSpec spec;
  spec.policy =
      rng.chance(0.9) ? ScoringPolicy::kBm25 : ScoringPolicy::kConstant;
  spec.top_k = static_cast<std::uint32_t>(1 + rng.index(4));
  spec.text_attrs = kAttrLists[rng.index(kAttrLists.size())];
  const std::size_t terms = rng.chance(0.1) ? 0 : 1 + rng.index(5);
  for (std::size_t t = 0; t < terms; ++t) {
    const double weight =
        rng.chance(0.5) ? kWeights[rng.index(7)] : rng.uniform(-1.0, 3.0);
    spec.query.push_back({kTerms[rng.index(12)], weight});
    if (rng.chance(0.2)) spec.query.push_back(spec.query.back());  // dup
  }
  return spec;
}

TEST(ScoreEvent, TermBagAgreesBitwiseWithReferenceFormula) {
  util::Rng rng(0x7e4b);
  std::size_t trials = 0;
  std::size_t nonzero = 0;
  for (int round = 0; round < 120; ++round) {
    // Eight specs on one table, several sharing an attribute list, so the
    // batch path both shares and separates bags within each event.
    RoutingTable table;
    std::vector<ScoringSpec> specs;
    for (SubscriptionId sub = 1; sub <= 8; ++sub) {
      specs.push_back(trial_spec(rng));
      table.client_subscribe(kClient, sub, Filter(), specs.back());
    }
    std::vector<Event> events;
    for (std::int64_t seq = 0; seq < 4; ++seq) {
      events.push_back(trial_event(rng, seq));
    }
    std::vector<std::vector<RoutingTable::Destination>> scored;
    table.match_batch_scored(events, scored);
    ASSERT_EQ(scored.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(scored[i].size(), specs.size());
      for (const RoutingTable::Destination& hit : scored[i]) {
        const ScoringSpec& spec = specs[hit.client_sub - 1];
        const double expected = reference_score(spec, events[i]);
        const auto bits = std::bit_cast<std::uint64_t>(expected);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(score_event(spec, events[i])),
                  bits)
            << spec.summary() << " " << events[i].to_string();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.score), bits)
            << spec.summary() << " " << events[i].to_string();
        ++trials;
        if (spec.policy == ScoringPolicy::kBm25 && expected > 0.0) ++nonzero;
      }
    }
  }
  EXPECT_GE(trials, 2000u);
  EXPECT_GT(nonzero, trials / 10) << "trials must exercise real scores";
}

// --- cut_top_k: one window's tie rule ----------------------------------------

/// Survivors' orders, sorted (the caller delivers in event order).
std::vector<std::uint32_t> cut_all(
    std::uint32_t k, const std::vector<std::pair<double, std::uint32_t>>& c) {
  std::vector<TopKCandidate> window;
  for (const auto& [score, order] : c) {
    window.push_back(TopKCandidate{score, order, order});
  }
  const TopKCut cut = cut_top_k(window, k, 0.0);
  std::vector<std::uint32_t> kept;
  for (std::size_t i = 0; i < cut.kept; ++i) kept.push_back(window[i].order);
  std::sort(kept.begin(), kept.end());
  return kept;
}

TEST(TopKCut, ZeroMeansUnlimited) {
  EXPECT_EQ(cut_all(0, {{0.1, 3}, {0.9, 1}, {0.5, 2}, {0.7, 0}}),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(TopKCut, KLargerThanCandidateCountKeepsAll) {
  EXPECT_EQ(cut_all(10, {{0.1, 2}, {0.9, 0}}),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(TopKCut, KeepsHighestScores) {
  // Winners are 1 (0.9) and 3 (0.8).
  EXPECT_EQ(cut_all(2, {{0.2, 0}, {0.9, 1}, {0.1, 2}, {0.8, 3}}),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST(TopKCut, DuplicateScoresAtCutKeepEarliestOrders) {
  EXPECT_EQ(cut_all(2, {{0.5, 0}, {0.5, 1}, {0.5, 2}}),
            (std::vector<std::uint32_t>{0, 1}));
  // Input order must not matter: same candidates, reversed.
  EXPECT_EQ(cut_all(2, {{0.5, 2}, {0.5, 1}, {0.5, 0}}),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKCut, TieAgainstHigherScoreResolvesByOrder) {
  // 1 wins outright (0.9); the 0-vs-2 tie at 0.5 resolves to 0.
  EXPECT_EQ(cut_all(2, {{0.5, 0}, {0.9, 1}, {0.5, 2}}),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopKCut, InputOrderInsensitive) {
  std::vector<std::pair<double, std::uint32_t>> cands = {
      {0.5, 0}, {0.9, 1}, {0.5, 2}, {0.1, 3}};
  std::sort(cands.begin(), cands.end());
  const std::vector<std::uint32_t> expected = {0, 1};
  do {
    EXPECT_EQ(cut_all(2, cands), expected);
  } while (std::next_permutation(cands.begin(), cands.end()));
}

TEST(TopKCut, PartitionsTheWindowByFate) {
  // [0, kept) survivors, [kept, eligible) cut by k, [eligible, size) below
  // min_score; every handle stays with its candidate.
  std::vector<TopKCandidate> window = {
      {0.2, 0, 10}, {0.9, 1, 11}, {0.6, 2, 12}, {0.1, 3, 13}, {0.7, 4, 14}};
  const TopKCut cut = cut_top_k(window, 2, 0.5);
  EXPECT_EQ(cut.kept, 2u);
  EXPECT_EQ(cut.eligible, 3u);
  const auto orders = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> out;
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_EQ(window[i].handle, window[i].order + 10);
      out.push_back(window[i].order);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(orders(0, 2), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(orders(2, 3), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(orders(3, 5), (std::vector<std::uint32_t>{0, 3}));
}

// --- RoutingTable window slots ----------------------------------------------

/// client sub -> window slot of every scored hit on an attribute-free
/// event (which every universal filter matches).
std::unordered_map<SubscriptionId, std::uint32_t> scored_slots(
    const RoutingTable& table) {
  const std::vector<Event> events = {Event()};
  std::vector<std::vector<RoutingTable::Destination>> hits;
  table.match_batch_scored(events, hits);
  std::unordered_map<SubscriptionId, std::uint32_t> slots;
  for (const RoutingTable::Destination& hit : hits[0]) {
    if (hit.scoring == nullptr) {
      EXPECT_EQ(hit.slot, kNoScoringSlot);
      continue;
    }
    EXPECT_NE(hit.slot, kNoScoringSlot);
    slots.emplace(hit.client_sub, hit.slot);
  }
  return slots;
}

TEST(RoutingTableSlots, DistinctKeptOnReplaceAndReusedAfterUnsubscribe) {
  const ScoringSpec k1 = bm25_spec({{"log", 1.0}}, {"text"}, 1);
  const ScoringSpec k2 = bm25_spec({{"log", 1.0}}, {"text"}, 2);
  RoutingTable table;
  table.add_broker_iface(99);
  table.broker_subscribe(99, Filter());  // an unscored neighbor entry
  table.client_subscribe(kClient, 10, Filter(), k1);
  table.client_subscribe(kClient, 20, Filter());  // unscored sibling
  table.client_subscribe(kClient, 11, Filter(), k1);
  table.client_subscribe(kClient + 1, 12, Filter(), k2);
  auto slots = scored_slots(table);
  ASSERT_EQ(slots.size(), 3u);
  // Distinct among the live scored subscriptions.
  EXPECT_NE(slots[10], slots[11]);
  EXPECT_NE(slots[10], slots[12]);
  EXPECT_NE(slots[11], slots[12]);
  const auto before = slots;
  // A same-sub_id replace keeps the slot, under the new spec.
  table.client_subscribe(kClient, 11, Filter(), k2);
  slots = scored_slots(table);
  EXPECT_EQ(slots, before);
  EXPECT_EQ(table.client_subscriptions(kClient)[1].scoring, k2);
  // An unsubscribed slot is reused by the next registration.
  ASSERT_TRUE(table.client_unsubscribe(kClient, 10));
  EXPECT_FALSE(scored_slots(table).contains(10));
  table.client_subscribe(kClient, 13, Filter(), k1);
  slots = scored_slots(table);
  EXPECT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[13], before.at(10));
  // An unknown unsubscribe frees nothing: the next registration takes a
  // slot no live subscription holds.
  EXPECT_FALSE(table.client_unsubscribe(kClient, 10));
  table.client_subscribe(kClient, 14, Filter(), k1);
  slots = scored_slots(table);
  ASSERT_EQ(slots.size(), 4u);
  for (const SubscriptionId other : {11, 12, 13}) {
    EXPECT_NE(slots[14], slots[other]) << other;
  }
}

// --- DeliverySelector vs the sort-plus-heap reference ------------------------

/// Reference: the bounded top-k heap the broker's selection used before
/// its flat windows, kept verbatim as the equivalence oracle.
class ReferenceTopKSelector {
 public:
  explicit ReferenceTopKSelector(std::uint32_t k) : k_(k) {}

  void offer(double score, std::uint32_t order) {
    const Entry entry{score, order};
    if (k_ == 0) {  // unlimited: everything survives, no heap discipline
      heap_.push_back(entry);
      return;
    }
    const auto better = [](const Entry& a, const Entry& b) {
      return worse(b, a);
    };
    if (heap_.size() < k_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), better);
      return;
    }
    if (worse(entry, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), better);
    heap_.back() = entry;
    std::push_heap(heap_.begin(), heap_.end(), better);
  }

  std::vector<std::uint32_t> take() {
    std::vector<std::uint32_t> orders;
    orders.reserve(heap_.size());
    for (const Entry& entry : heap_) orders.push_back(entry.order);
    heap_.clear();
    std::sort(orders.begin(), orders.end());
    return orders;
  }

 private:
  struct Entry {
    double score = 0.0;
    std::uint32_t order = 0;
  };
  static bool worse(const Entry& a, const Entry& b) noexcept {
    if (a.score != b.score) return a.score < b.score;
    return a.order > b.order;
  }

  std::vector<Entry> heap_;
  std::uint32_t k_ = 0;
};

/// (event index, client iface, client sub) of a suppressed hit.
using Suppressed =
    std::tuple<std::uint32_t, RoutingTable::IfaceId, SubscriptionId>;

/// Reference: the per-batch sort of every candidate by (client, sub,
/// event), then per run the min_score filter and the bounded heap, kept
/// verbatim from the broker's earlier selection. Returns the sorted
/// suppressions; `counts` receives the three counters.
std::vector<Suppressed> reference_select(
    RoutingTable::IfaceId from,
    const std::vector<std::vector<RoutingTable::Destination>>& hits,
    DeliverySelector::Counts& counts) {
  struct Candidate {
    RoutingTable::IfaceId client = RoutingTable::kNoIface;
    SubscriptionId sub = 0;
    std::uint32_t index = 0;
    double score = kConstantScore;
    const ScoringSpec* spec = nullptr;
  };
  std::vector<Candidate> cands;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    for (const RoutingTable::Destination& sd : hits[i]) {
      if (sd.is_broker || sd.scoring == nullptr) continue;
      if (sd.iface == from) continue;  // never echo back
      ++counts.scored_matches;
      cands.push_back(Candidate{sd.iface, sd.client_sub,
                                static_cast<std::uint32_t>(i), sd.score,
                                sd.scoring});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.client, a.sub, a.index) <
                     std::tie(b.client, b.sub, b.index);
            });
  std::vector<Suppressed> suppressed;
  for (auto run = cands.begin(); run != cands.end();) {
    const auto end = std::find_if(run, cands.end(), [&run](const Candidate& c) {
      return c.client != run->client || c.sub != run->sub;
    });
    const ScoringSpec& spec = *run->spec;
    ReferenceTopKSelector topk(spec.top_k);
    std::size_t eligible = 0;
    for (auto it = run; it != end; ++it) {
      if (it->score < spec.min_score) {
        ++counts.suppressed_by_threshold;
        suppressed.emplace_back(it->index, it->client, it->sub);
        continue;
      }
      ++eligible;
      topk.offer(it->score, it->index);
    }
    const std::vector<std::uint32_t> survivors = topk.take();
    if (survivors.size() != eligible) {
      counts.suppressed_by_k += eligible - survivors.size();
      std::size_t next = 0;
      for (auto it = run; it != end; ++it) {
        if (it->score < spec.min_score) continue;  // marked above
        if (next < survivors.size() && survivors[next] == it->index) {
          ++next;
          continue;
        }
        suppressed.emplace_back(it->index, it->client, it->sub);
      }
    }
    run = end;
  }
  std::sort(suppressed.begin(), suppressed.end());
  return suppressed;
}

TEST(DeliverySelector, AgreesWithSortPlusHeapReference) {
  // Quantized scores (many ties), min_score below / at / above every
  // score, top_k in {0, 1, 2, 4, larger than any window}, neutral client
  // hits, neighbor-broker hits and echoes back to the sender mixed in,
  // hit order shuffled per event. One selector serves every batch, so
  // reuse of its windows across batches (and of freed slots) is covered.
  constexpr RoutingTable::IfaceId kBroker = 100;
  util::Rng rng(23);
  const std::vector<double> levels = {0.0, 0.25, 0.5, 0.75, 1.0, 1.5};
  const std::vector<double> mins = {-1.0, 0.0, 0.5, 1.0, 1.5, 2.0};
  const std::vector<std::uint32_t> ks = {0, 1, 2, 4, 1000};

  // The scored subscriptions live in a routing table, so every hit's
  // spec pointer and window slot are the ones match_batch_scored hands
  // the broker; all filters are universal, so one attribute-free probe
  // event reads every live subscription's decorated hit.
  RoutingTable table;
  std::vector<RoutingTable::IfaceId> client_of;  // by id - 1
  SubscriptionId next_id = 1;
  std::vector<SubscriptionId> live_ids;
  std::unordered_map<SubscriptionId, RoutingTable::Destination>
      scored_hit;
  const auto read_hits = [&] {
    const std::vector<Event> probe = {Event()};
    std::vector<std::vector<RoutingTable::Destination>> hits;
    table.match_batch_scored(probe, hits);
    scored_hit.clear();
    for (const RoutingTable::Destination& hit : hits[0]) {
      ASSERT_NE(hit.scoring, nullptr);
      ASSERT_NE(hit.slot, kNoScoringSlot);
      scored_hit.emplace(hit.client_sub, hit);
    }
    ASSERT_EQ(scored_hit.size(), live_ids.size());
  };
  const auto add_sub = [&] {
    const SubscriptionId id = next_id++;
    ScoringSpec spec;
    spec.top_k = ks[rng.index(ks.size())];
    spec.min_score = mins[rng.index(mins.size())];
    if (spec.neutral()) spec.top_k = 1;
    client_of.push_back(
        static_cast<RoutingTable::IfaceId>(1 + rng.index(4)));
    table.client_subscribe(client_of.back(), id, Filter(), std::move(spec));
    live_ids.push_back(id);
  };
  for (int i = 0; i < 12; ++i) add_sub();
  read_hits();

  DeliverySelector selector;
  std::uint64_t total_k = 0;
  std::uint64_t total_min = 0;
  std::uint64_t total_kept = 0;
  for (int batch = 0; batch < 600; ++batch) {
    // Churn: retire one scored subscription, register a fresh one (which
    // takes the freed slot).
    if (batch % 50 == 49) {
      const std::size_t victim = rng.index(live_ids.size());
      const SubscriptionId id = live_ids[victim];
      ASSERT_TRUE(table.client_unsubscribe(client_of[id - 1], id));
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
      add_sub();
      read_hits();
    }
    const RoutingTable::IfaceId from =
        rng.chance(0.3) ? kBroker
                        : static_cast<RoutingTable::IfaceId>(1 + rng.index(4));
    const std::size_t events = 1 + rng.index(24);
    std::vector<std::vector<RoutingTable::Destination>> hits(events);
    for (auto& event_hits : hits) {
      for (const SubscriptionId id : live_ids) {
        if (!rng.chance(0.6)) continue;
        RoutingTable::Destination hit = scored_hit.at(id);
        hit.score = levels[rng.index(levels.size())];
        event_hits.push_back(hit);
      }
      if (rng.chance(0.5)) {  // a neutral sibling
        event_hits.push_back(RoutingTable::Destination{
            static_cast<RoutingTable::IfaceId>(1 + rng.index(4)), false,
            1000 + rng.index(8)});
      }
      if (rng.chance(0.5)) {  // a neighbor broker
        event_hits.push_back(RoutingTable::Destination{kBroker, true, 0});
      }
      std::shuffle(event_hits.begin(), event_hits.end(), rng);
    }

    DeliverySelector::Counts want;
    const std::vector<Suppressed> suppressed =
        reference_select(from, hits, want);
    const DeliverySelector::Counts got = selector.select(from, hits);
    ASSERT_EQ(got.scored_matches, want.scored_matches) << batch;
    ASSERT_EQ(got.suppressed_by_k, want.suppressed_by_k) << batch;
    ASSERT_EQ(got.suppressed_by_threshold, want.suppressed_by_threshold)
        << batch;
    for (std::uint32_t i = 0; i < hits.size(); ++i) {
      for (const RoutingTable::Destination& sd : hits[i]) {
        const bool expected =
            sd.scoring != nullptr && sd.iface != from &&
            std::binary_search(
                suppressed.begin(), suppressed.end(),
                Suppressed{i, sd.iface, sd.client_sub});
        ASSERT_EQ(sd.suppressed, expected)
            << "batch " << batch << " event " << i << " sub "
            << sd.client_sub;
        if (sd.scoring != nullptr && sd.iface != from && !expected) {
          ++total_kept;
        }
      }
    }
    total_k += got.suppressed_by_k;
    total_min += got.suppressed_by_threshold;
  }
  // The trials must exercise every fate.
  EXPECT_GT(total_k, 1000u);
  EXPECT_GT(total_min, 1000u);
  EXPECT_GT(total_kept, 1000u);
}

// --- RoutingTable::match_batch_scored across the engines ---------------------

/// (client sub, score, has spec) per scored destination, sorted by sub.
using ScoredKey = std::tuple<SubscriptionId, double, bool>;
std::vector<ScoredKey> scored_keys(
    const std::vector<RoutingTable::Destination>& hits) {
  std::vector<ScoredKey> keys;
  for (const RoutingTable::Destination& hit : hits) {
    keys.emplace_back(hit.client_sub, hit.score, hit.scoring != nullptr);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(MatchBatchScored, DecoratesEveryEngine) {
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"}, 1, 0.0);
  const std::vector<Event> events = {
      Event().with("hot", std::int64_t{1}).with("text", "log"),
      Event().with("hot", std::int64_t{0}),
      Event().with("hot", std::int64_t{1}).with("text", "log log"),
  };
  for (const std::string_view engine_name : kBuiltinEngines) {
    const std::string name(engine_name);
    RoutingTable table(RoutingTable::Config{.engine = name});
    table.client_subscribe(kClient, 1,
                           Filter().and_(eq("hot", std::int64_t{1})), spec);
    // Universal, no spec: scores constant.
    table.client_subscribe(kClient, 2, Filter());

    std::vector<std::vector<RoutingTable::Destination>> scored;
    table.match_batch_scored(events, scored);
    ASSERT_EQ(scored.size(), events.size()) << name;

    std::vector<std::vector<RoutingTable::Destination>> boolean;
    table.match_batch(events, boolean);
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Same hit set as the boolean batch...
      std::vector<ScoredKey> expected;
      for (const RoutingTable::Destination& dest : boolean[i]) {
        const bool has_spec = dest.client_sub == 1;
        expected.emplace_back(
            dest.client_sub,
            has_spec ? score_event(spec, events[i]) : kConstantScore,
            has_spec);
      }
      std::sort(expected.begin(), expected.end());
      // ...each hit carrying score_event of its spec.
      EXPECT_EQ(scored_keys(scored[i]), expected) << name << " event " << i;
    }
    EXPECT_EQ(scored_keys(scored[1]),
              (std::vector<ScoredKey>{{2, kConstantScore, false}}))
        << name;
  }
}

TEST(MatchBatchScored, SubSpanScoresComposeWithFullBatch) {
  const ScoringSpec spec = bm25_spec({{"log", 2.0}, {"rss", 1.0}}, {"file"});
  std::vector<Event> events;
  for (int i = 0; i < 6; ++i) {
    events.push_back(Event()
                         .with("file", i % 2 ? "a.log" : "feed.rss")
                         .with("seq", static_cast<std::int64_t>(i)));
  }
  for (const std::string_view engine_name : kBuiltinEngines) {
    const std::string name(engine_name);
    RoutingTable table(RoutingTable::Config{.engine = name});
    table.client_subscribe(kClient, 1, Filter().and_(exists("file")), spec);

    std::vector<std::vector<RoutingTable::Destination>> full;
    table.match_batch_scored(events, full);
    // Batch-composition independence extends to scores: every contiguous
    // sub-span's (sub, score) lists are the full batch's at those
    // positions.
    for (std::size_t begin = 0; begin < events.size(); ++begin) {
      for (std::size_t end = begin + 1; end <= events.size(); ++end) {
        std::vector<std::vector<RoutingTable::Destination>> sub;
        table.match_batch_scored(
            std::span<const Event>(events).subspan(begin, end - begin), sub);
        ASSERT_EQ(sub.size(), end - begin) << name;
        for (std::size_t pos = 0; pos < sub.size(); ++pos) {
          EXPECT_EQ(scored_keys(sub[pos]), scored_keys(full[begin + pos]))
              << name << " span [" << begin << ", " << end << ") pos "
              << pos;
        }
      }
    }
  }
}

TEST(MatchBatchScored, SpecRegisteredBeforeItsAttributeIsInterned) {
  // A name no event or filter in this binary uses: the spec interns it,
  // and the events published afterwards must resolve to the same id.
  const std::string attr = "headline_first_named_by_a_spec";
  ASSERT_EQ(AttrTable::instance().lookup(attr), kNoAttrId);
  const ScoringSpec spec = bm25_spec({{"storm", 1.0}, {"coast", 0.5}}, {attr});
  RoutingTable table;
  table.client_subscribe(kClient, 1, Filter(), spec);
  const std::vector<Event> events = {
      Event().with(attr, "Storm on the coast"),
      Event().with(attr, "storm storm").with("text", "coast"),
  };
  std::vector<std::vector<RoutingTable::Destination>> scored;
  table.match_batch_scored(events, scored);
  ASSERT_EQ(scored.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(scored[i].size(), 1u);
    EXPECT_GT(scored[i][0].score, 0.0) << i;
    EXPECT_EQ(scored[i][0].score, score_event(spec, events[i])) << i;
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

TEST(ScoredDelivery, NanWeightTermDeliversAsIfAbsent) {
  // A NaN weight must neither slip past min_score nor disturb the top-k
  // order: the window delivers exactly what the spec without that term
  // delivers, with the same scores.
  const auto deliveries = [](const ScoringSpec& spec) {
    Harness h;
    Broker broker(h.sim, h.net, "b0", scored_config());
    Client pub(h.sim, h.net, "pub");
    Client sub(h.sim, h.net, "sub");
    pub.connect(broker);
    sub.connect(broker);
    std::vector<std::pair<std::string, double>> got;
    sub.subscribe_scored(Filter(), spec,
                         [&](const Event& e, SubscriptionId, double score) {
                           got.emplace_back(e.to_string(), score);
                         });
    h.settle();
    pub.publish_batch({Event().with("text", "feed"),
                       Event().with("text", "log log log"),
                       Event().with("text", "log feed"),
                       Event().with("text", "log"),
                       Event().with("text", "rss")});
    h.settle();
    return got;
  };
  const ScoringSpec plain =
      bm25_spec({{"log", 1.0}, {"rss", 0.4}}, {"text"}, 2, 0.5);
  const ScoringSpec with_nan = bm25_spec(
      {{"log", 1.0}, {"feed", std::nan("")}, {"rss", 0.4}}, {"text"}, 2, 0.5);
  const auto expected = deliveries(plain);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(deliveries(with_nan), expected);
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

TEST(RoutingTableSlots, CrashedBrokerFreshTableStartsAtSlotZero) {
  Harness h;
  Broker broker(h.sim, h.net, "b0", scored_config());
  Client sub(h.sim, h.net, "sub");
  sub.connect(broker);
  const ScoringSpec spec = bm25_spec({{"log", 1.0}}, {"text"}, 1);
  const std::vector<Event> events = {Event().with("text", "log")};
  const auto slots = [&] {
    std::vector<std::vector<RoutingTable::Destination>> hits;
    broker.routing_table().match_batch_scored(events, hits);
    std::vector<std::uint32_t> out;
    for (const RoutingTable::Destination& hit : hits[0]) {
      out.push_back(hit.slot);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  sub.subscribe_scored(Filter(), spec);
  sub.subscribe_scored(Filter(), spec);
  h.settle();
  EXPECT_EQ(slots(), (std::vector<std::uint32_t>{0, 1}));
  // The restarted incarnation (no anti-entropy here) has an empty table;
  // its first scored subscription takes slot 0 again.
  broker.crash();
  broker.restart();
  EXPECT_TRUE(slots().empty());
  sub.subscribe_scored(Filter(), spec);
  h.settle();
  EXPECT_EQ(slots(), (std::vector<std::uint32_t>{0}));
}

TEST(ScoredDelivery, UpstreamFlushDelayMergesWindows) {
  // The documented window rule: a top-k window is one inbound wire
  // message, so an upstream flush delay that frames two publications
  // together merges their windows two hops downstream.
  const auto deliveries = [](sim::Time flush_delay) {
    Harness h;
    Broker::Config config = scored_config();
    config.flush_max_delay_ticks = flush_delay;
    Overlay overlay(h.sim, h.net, config);
    for (int i = 0; i < 3; ++i) overlay.add_broker();
    overlay.link(0, 1);
    overlay.link(1, 2);
    Client pub(h.sim, h.net, "pub");
    Client sub(h.sim, h.net, "sub");
    pub.connect(overlay.broker(0));
    sub.connect(overlay.broker(2));
    int got = 0;
    sub.subscribe_scored(Filter(), bm25_spec({{"log", 1.0}}, {"text"}, 1),
                         [&](const Event&, SubscriptionId, double) { ++got; });
    h.settle();
    pub.publish(Event().with("text", "log"));
    h.sim.run_until(h.sim.now() + 2 * sim::kMillisecond);
    pub.publish(Event().with("text", "log log"));
    h.settle();
    return got;
  };
  EXPECT_EQ(deliveries(0), 2);
  EXPECT_EQ(deliveries(10 * sim::kMillisecond), 1);
}

TEST(ScoredDelivery, ScoringPolicyNames) {
  EXPECT_STREQ(scoring_policy_name(ScoringPolicy::kConstant), "constant");
  EXPECT_STREQ(scoring_policy_name(ScoringPolicy::kBm25), "bm25");
}

}  // namespace
}  // namespace reef::pubsub
