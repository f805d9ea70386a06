// Relevance scoring and bounded (top-k / min-score) delivery policies for
// the pub/sub substrate.
//
// Boolean matching decides *whether* a subscription matches an event;
// scoring decorates that decision with a per-(filter, event) relevance
// score so over-fanout from auto-generated subscriptions can be bounded at
// the delivery edge (paper §4 / ROADMAP open item 1: at millions of users
// every boolean match is a delivery, so a subscriber needs "the k most
// relevant of this batch", not "everything").
//
// Two policies:
//   * kConstant — every matching event scores kConstantScore (1.0). With
//     top_k = 0 and min_score <= 0 this is the *neutral* spec: provably
//     unable to suppress anything, byte-identical wire output to a run
//     with scoring disabled (the property the neutral fuzz tier pins).
//   * kBm25 — two steps. First the event's designated text attributes
//     are tokenized (ir::tokenize rules) into one TermBag; then a
//     weighted term query is scored against the bag with the BM25
//     term-frequency saturation formula (ir::Bm25Params k1/b; see
//     bm25.h). The bag depends on the event and the attribute list only,
//     so the routing table builds it once per event per attribute list
//     and scores every BM25 hit of that event against it. There is no
//     corpus at a broker, so document-frequency evidence rides in as the
//     per-term query weights (e.g. Offer Weight scores from
//     ir::select_terms) and length normalization uses the fixed
//     kScoringAvgDocLen pivot — the score is a pure function of (spec,
//     event), which is what makes scored delivery reproducible across
//     engines and worker counts.
//
// Determinism rule (the contract the scored differential fuzz tier
// enforces): scores are computed *after* boolean matching, from (spec,
// event) alone, and the top-k cut breaks ties by ascending event order
// within the publication batch — never by hit order or thread schedule.
// Identical match sets therefore imply identical scored delivery, byte for
// byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ir/term_weighting.h"
#include "pubsub/event.h"
#include "pubsub/filter.h"

namespace reef::pubsub {

/// Identifier a matcher client associates with a registered filter
/// (redeclared from matcher.h; both aliases name the same type).
using SubscriptionId = std::uint64_t;

/// Score every constant-policy (and spec-less) match reports.
inline constexpr double kConstantScore = 1.0;

/// Fixed length-normalization pivot for the corpus-free BM25 policy: the
/// designated text attributes are short (titles, snippets, file names), so
/// the pivot is a constant rather than a corpus average — any fixed value
/// keeps the score a pure function of (spec, event).
inline constexpr double kScoringAvgDocLen = 16.0;

enum class ScoringPolicy : std::uint8_t {
  kConstant,  ///< every match scores kConstantScore
  kBm25,      ///< BM25 TF saturation of a weighted term query
};

const char* scoring_policy_name(ScoringPolicy policy) noexcept;

/// Per-subscription scoring + delivery policy. Travels with the client's
/// subscription (the kClientSubscribe CtrlOp), lives in the routing
/// table's entry for it, and is applied by the delivering broker; neighbor
/// brokers forward on boolean covering only — suppression is strictly an
/// edge-delivery policy, so the overlay's subscription forwarding is
/// untouched.
struct ScoringSpec {
  ScoringPolicy policy = ScoringPolicy::kConstant;
  /// Weighted query terms (kBm25); a weight that is not > 0 (negative,
  /// zero or NaN) contributes nothing, like ir::Bm25::score's weighted
  /// overload.
  std::vector<ir::ScoredTerm> query;
  /// Attribute names whose string values form the scored document, in
  /// spec order (kBm25). Non-string or absent attributes contribute
  /// nothing.
  std::vector<std::string> text_attrs;
  /// Deliver at most this many events per publication batch, keeping the
  /// highest-scoring (ties: earliest event order). 0 = unlimited.
  std::uint32_t top_k = 0;
  /// Deliver only events scoring >= this (applied before the top-k cut).
  double min_score = 0.0;

  /// True when the spec provably cannot suppress a delivery and carries
  /// no score information beyond the constant: the default-constructed
  /// spec every unscored subscriber has. Neutral specs are not stored,
  /// not metered on the wire, and not folded into resync digests — a
  /// scoring-enabled broker serving only neutral subscribers produces
  /// byte-identical wire traffic to a scoring-disabled one.
  bool neutral() const noexcept {
    return policy == ScoringPolicy::kConstant && top_k == 0 &&
           min_score <= 0.0;
  }

  /// Wire-size contribution when riding a subscribe/resync message.
  /// Exactly 0 for neutral specs so the disabled/neutral paths meter the
  /// bytes they always did.
  std::size_t wire_size() const noexcept;

  /// Order-independent content hash, folded into the client resync
  /// digests so a spec change (same filter) is not mistaken for matching
  /// state. 0 for neutral specs.
  std::uint64_t hash() const noexcept;

  /// Canonical one-line rendering for fingerprints and traces, e.g.
  /// score(bm25 k=2 min=0.5 q=[news:1.5,feed:1] attrs=[title,text]).
  std::string summary() const;

  friend bool operator==(const ScoringSpec&, const ScoringSpec&) = default;
};

/// One client subscription as carried by resync replays: the (sub_id,
/// filter) pair of PR 9 plus its scoring spec.
struct ClientSubscription {
  SubscriptionId sub_id = 0;
  Filter filter;
  ScoringSpec scoring;
};

/// Top-k window slot of a hit without a non-neutral spec (see
/// RoutingTable::Destination::slot).
inline constexpr std::uint32_t kNoScoringSlot = 0xffffffff;

/// One subscription's share of a client resync digest: XOR-folded over a
/// client's live subscriptions by both RoutingTable::client_iface_digest
/// (the broker's view) and the Client (its own view), so the two sides
/// agree exactly when they hold the same subscriptions. A neutral spec
/// folds nothing, so unscored state digests as if scoring did not exist.
std::uint64_t client_subscription_digest(SubscriptionId sub_id,
                                         const Filter& filter,
                                         const ScoringSpec& spec);

/// The bag of words of one scored document: the tokens of an event's
/// designated text attributes (ir::tokenize rules), lower-cased into one
/// reused byte buffer, sorted into (token, tf) entries, plus the token
/// count that BM25 normalizes length by. assign() keeps every buffer, so
/// one bag rebuilt per event allocates nothing once it has grown.
class TermBag {
 public:
  /// Rebuilds the bag from the string values of `event`'s attributes
  /// `attrs`, in order; absent and non-string attributes add nothing, and
  /// a repeated id adds its text again.
  void assign(const Event& event, std::span<const AttrId> attrs);

  /// Number of tokens (with repeats) — the BM25 document length.
  std::size_t length() const noexcept { return ends_.size(); }

  /// BM25 relevance of `query` against the bag: in query order, each
  /// term present sums
  ///   w * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avg))
  /// with w = weight > 0 ? weight : 0 (so a NaN weight counts 0), the
  /// default ir::Bm25Params and the kScoringAvgDocLen pivot. An empty bag
  /// scores 0.
  double score(const std::vector<ir::ScoredTerm>& query) const noexcept;

 private:
  struct Entry {
    std::size_t begin = 0;  // offset of the token in bytes_
    std::size_t size = 0;
    std::uint32_t tf = 0;
  };
  std::string_view token(const Entry& entry) const noexcept {
    return std::string_view(bytes_).substr(entry.begin, entry.size);
  }
  /// Occurrences of `term` (exact bytes), 0 when absent.
  std::uint32_t frequency(std::string_view term) const noexcept;

  std::string bytes_;              // token bytes, back to back
  std::vector<std::size_t> ends_;  // each token's end offset in bytes_
  std::vector<Entry> entries_;     // distinct tokens, sorted by bytes
};

/// Relevance of `event` under `spec`. Pure and deterministic: no corpus,
/// no clock, no randomness — equal (spec, event) pairs score equal on
/// every broker and worker. kConstant returns kConstantScore; kBm25
/// builds the TermBag of spec.text_attrs and returns its score of
/// spec.query — the formula the routing table's shared bags apply, so
/// both give bitwise-equal scores. An event with no tokenizable text
/// scores 0 under kBm25.
double score_event(const ScoringSpec& spec, const Event& event);

/// One candidate delivery in a top-k window (one scored subscription's
/// hits within one publication batch): its score, its event's position in
/// the batch, and an opaque handle the caller maps back to the hit.
struct TopKCandidate {
  double score = 0.0;
  std::uint32_t order = 0;   ///< event position: the tie-break
  std::uint32_t handle = 0;  ///< caller's reference to the hit
};

/// Where cut_top_k left a window's candidates.
struct TopKCut {
  std::size_t kept = 0;      ///< survivors: window[0, kept)
  std::size_t eligible = 0;  ///< scored >= min_score: window[0, eligible)
};

/// Applies one window's delivery policy in place: drops candidates scoring
/// below `min_score`, then keeps the `top_k` best of the rest (0 =
/// unlimited) by descending score, ties broken by ascending order — the
/// deterministic tie rule the scored delivery contract requires. The
/// window is permuted so that [0, kept) holds the survivors, [kept,
/// eligible) the candidates cut by top_k and [eligible, size) those cut by
/// min_score; the order within each range is unspecified (survivors are
/// delivered in event order by the caller, never score order). Linear on
/// average (one partition plus one std::nth_element), no allocation. The
/// survivor set is a pure function of the window's (score, order) pairs
/// as long as orders are distinct and no score is NaN — BM25 and constant
/// scores never are.
TopKCut cut_top_k(std::span<TopKCandidate> window, std::uint32_t top_k,
                  double min_score);

}  // namespace reef::pubsub
