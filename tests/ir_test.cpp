#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/bm25.h"
#include "ir/corpus.h"
#include "ir/metrics.h"
#include "ir/term_weighting.h"
#include "ir/tokenizer.h"
#include "util/rng.h"

namespace reef::ir {
namespace {

// --- tokenizer -----------------------------------------------------------------

TEST(Tokenizer, SplitsLowersAndFilters) {
  // Short tokens ("C", "x") and pure numbers ("20", "1234") are dropped.
  const auto tokens = tokenize("Hello, World! C++20 x 1234 ab");
  EXPECT_EQ(tokens, (std::vector<std::string>{"hello", "world", "ab"}));
}

TEST(Tokenizer, DropsPureNumbersAndShortTokens) {
  TokenizerOptions opts;
  const auto tokens = tokenize("a 42 4a ab 123456", opts);
  EXPECT_EQ(tokens, (std::vector<std::string>{"4a", "ab"}));
}

TEST(Tokenizer, RespectsOptions) {
  TokenizerOptions opts;
  opts.min_length = 1;
  opts.drop_numeric = false;
  const auto tokens = tokenize("a 42", opts);
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "42"}));
}

TEST(Tokenizer, MaxLengthDropsMonsterTokens) {
  TokenizerOptions opts;
  opts.max_length = 5;
  const auto tokens = tokenize("short toolongtoken ok", opts);
  EXPECT_EQ(tokens, (std::vector<std::string>{"short", "ok"}));
}

/// The token rules as one self-contained loop (split on non-alphanumeric
/// bytes, lower-case, drop short/long/numeric runs), kept independent of
/// the library so both of its forms are checked against it.
std::vector<std::string> reference_tokenize(std::string_view text,
                                            const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string current;
  bool all_digits = true;
  const auto flush = [&] {
    if (current.size() >= options.min_length &&
        current.size() <= options.max_length &&
        !(options.drop_numeric && all_digits)) {
      tokens.push_back(current);
    }
    current.clear();
    all_digits = true;
  };
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
      if (!std::isdigit(c)) all_digits = false;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

/// Seeded byte string: letters of both cases, digits, punctuation,
/// high-bit bytes, and now and then a run longer than 40 bytes.
std::string random_text(util::Rng& rng) {
  static constexpr std::string_view kPunct = " ,.-_/:;'\"!?+\t\n";
  std::string text;
  const std::size_t pieces = rng.index(12);
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t run = rng.chance(0.1) ? 38 + rng.index(8) : rng.index(7);
    const std::size_t kind = rng.index(5);
    for (std::size_t i = 0; i < run; ++i) {
      switch (kind) {
        case 0: text += static_cast<char>('a' + rng.index(26)); break;
        case 1: text += static_cast<char>('A' + rng.index(26)); break;
        case 2: text += static_cast<char>('0' + rng.index(10)); break;
        case 3: text += static_cast<char>(0x80 + rng.index(128)); break;
        default: {
          const char letters[] = {'q', 'Z', '7', 'e'};
          text += letters[rng.index(4)];
        }
      }
    }
    text += kPunct[rng.index(kPunct.size())];
  }
  return text;
}

TEST(Tokenizer, StreamingFormAgreesWithVectorForm) {
  TokenizerOptions defaults;
  TokenizerOptions loose;
  loose.min_length = 1;
  loose.max_length = 5;
  loose.drop_numeric = false;
  TokenizerOptions empty_tokens;  // separators themselves yield ""
  empty_tokens.min_length = 0;
  empty_tokens.drop_numeric = false;
  util::Rng rng(20);
  for (const TokenizerOptions& options : {defaults, loose, empty_tokens}) {
    // One pair of buffers reused across every document, as a caller
    // tokenizing a stream of events does.
    std::string bytes;
    std::vector<std::size_t> ends;
    for (int trial = 0; trial < 500; ++trial) {
      const std::string text = random_text(rng);
      const std::vector<std::string> expected =
          reference_tokenize(text, options);
      EXPECT_EQ(tokenize(text, options), expected) << text;

      const std::size_t first = ends.size();
      std::size_t begin = ends.empty() ? 0 : ends.back();
      ASSERT_EQ(bytes.size(), begin);
      tokenize_append(text, options, bytes, ends);
      std::vector<std::string> streamed;
      for (std::size_t t = first; t < ends.size(); ++t) {
        streamed.emplace_back(bytes, begin, ends[t] - begin);
        begin = ends[t];
      }
      EXPECT_EQ(streamed, expected) << text;
      EXPECT_EQ(bytes.size(), begin) << "rejected bytes left behind";
      if (trial % 50 == 49) {
        bytes.clear();
        ends.clear();
      }
    }
  }
}

TEST(Stopwords, CommonWordsAreStopwords) {
  for (const char* w : {"the", "and", "of", "is", "www", "http"}) {
    EXPECT_TRUE(is_stopword(w)) << w;
  }
  EXPECT_FALSE(is_stopword("copper"));
  EXPECT_FALSE(is_stopword("reef"));
  EXPECT_GT(stopword_count(), 100u);
}

// --- Porter stemmer -------------------------------------------------------------

struct StemCase {
  const char* word;
  const char* stem;
};

class PorterVectors : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterVectors, MatchesReference) {
  EXPECT_EQ(porter_stem(GetParam().word), GetParam().stem);
}

INSTANTIATE_TEST_SUITE_P(
    Reference, PorterVectors,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"digitizer", "digit"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"}, StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"}, StemCase{"formaliti", "formal"},
        StemCase{"formative", "form"}, StemCase{"formalize", "formal"},
        StemCase{"electriciti", "electr"}, StemCase{"electrical", "electr"},
        StemCase{"hopeful", "hope"}, StemCase{"goodness", "good"},
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adoption", "adopt"}, StemCase{"communism", "commun"},
        StemCase{"activate", "activ"}, StemCase{"effective", "effect"},
        StemCase{"rate", "rate"}, StemCase{"cease", "ceas"},
        StemCase{"controll", "control"}, StemCase{"roll", "roll"}));

TEST(Porter, ShortWordsUnchanged) {
  EXPECT_EQ(porter_stem("at"), "at");
  EXPECT_EQ(porter_stem("by"), "by");
  EXPECT_EQ(porter_stem("a"), "a");
}

TEST(Porter, Idempotent) {
  for (const char* w : {"relational", "hopping", "happy", "formalize"}) {
    const std::string once = porter_stem(w);
    EXPECT_EQ(porter_stem(once), once) << w;
  }
}

TEST(Analyze, FullPipeline) {
  const auto terms = analyze("The cats were running and the dogs ran");
  EXPECT_EQ(terms,
            (std::vector<std::string>{"cat", "run", "dog", "ran"}));
}

// --- corpus ----------------------------------------------------------------------

TEST(Corpus, DocumentStatistics) {
  Corpus corpus;
  corpus.add(Document::from_terms(0, {"apple", "banana", "apple"}));
  corpus.add(Document::from_terms(1, {"banana", "cherry"}));
  corpus.add(Document::from_terms(2, {"cherry", "cherry", "cherry"}));

  EXPECT_EQ(corpus.size(), 3u);
  EXPECT_EQ(corpus.df("apple"), 1u);
  EXPECT_EQ(corpus.df("banana"), 2u);
  EXPECT_EQ(corpus.df("cherry"), 2u);
  EXPECT_EQ(corpus.df("missing"), 0u);
  EXPECT_NEAR(corpus.avg_doc_length(), (3.0 + 2.0 + 3.0) / 3.0, 1e-12);
  EXPECT_EQ(corpus.doc(0).tf("apple"), 2u);
  EXPECT_EQ(corpus.doc(0).length(), 3u);
  EXPECT_EQ(corpus.vocabulary_size(), 3u);
  // Rarer terms get higher idf.
  EXPECT_GT(corpus.idf("apple"), corpus.idf("banana"));
  EXPECT_GT(corpus.idf("missing"), corpus.idf("apple"));
}

TEST(Corpus, EmptyCorpusIsSafe) {
  Corpus corpus;
  EXPECT_EQ(corpus.avg_doc_length(), 0.0);
  EXPECT_EQ(corpus.df("x"), 0u);
}

// --- term weighting ---------------------------------------------------------------

TEST(RsjWeight, RelevantRareTermsScoreHigh) {
  // term A: in all 5 relevant docs, rare overall (df=5 of 1000)
  const double a = rsj_weight(5, 1000, 5, 5);
  // term B: in all 5 relevant docs but ubiquitous (df=900 of 1000)
  const double b = rsj_weight(900, 1000, 5, 5);
  EXPECT_GT(a, b);
  EXPECT_GT(a, 0.0);
  // term C: ubiquitous and absent from the relevant set -> negative weight
  const double c = rsj_weight(900, 1000, 0, 5);
  EXPECT_LT(c, 0.0);
}

Corpus make_background() {
  Corpus corpus;
  // 20 docs about "noise"; "signal" appears in only 2.
  for (int i = 0; i < 18; ++i) {
    corpus.add(Document::from_terms(i, {"noise", "common", "word"}));
  }
  corpus.add(Document::from_terms(18, {"signal", "noise"}));
  corpus.add(Document::from_terms(19, {"signal", "common"}));
  return corpus;
}

TEST(SelectTerms, OfferWeightPrefersDiscriminativeTerms) {
  const Corpus background = make_background();
  // User read both "signal" docs plus one noise doc.
  std::vector<const Document*> relevant{&background.doc(18),
                                        &background.doc(19),
                                        &background.doc(0)};
  const auto terms =
      select_terms(background, relevant, TermSelector::kOfferWeight, 2);
  ASSERT_FALSE(terms.empty());
  EXPECT_EQ(terms[0].term, "signal");
}

TEST(SelectTerms, RawTfPrefersFrequentTerms) {
  Corpus background;
  background.add(Document::from_terms(
      0, {"common", "common", "common", "rare"}));
  std::vector<const Document*> relevant{&background.doc(0)};
  const auto terms =
      select_terms(background, relevant, TermSelector::kRawTf, 1);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0].term, "common");
}

TEST(SelectTerms, TfIntegrationBreaksDocCountTies) {
  Corpus background;
  // Both terms appear in 1 relevant doc and 1 background doc, but "deep"
  // is repeated within the relevant doc.
  background.add(Document::from_terms(
      0, {"deep", "deep", "deep", "shallow"}));
  std::vector<const Document*> relevant{&background.doc(0)};
  const auto ow =
      select_terms(background, relevant, TermSelector::kOfferWeight, 2);
  const auto tfow =
      select_terms(background, relevant, TermSelector::kTfOfferWeight, 2);
  ASSERT_EQ(tfow.size(), 2u);
  EXPECT_EQ(tfow[0].term, "deep");
  // Classic OW cannot distinguish them (same r, same n): alphabetical tie.
  ASSERT_EQ(ow.size(), 2u);
  EXPECT_DOUBLE_EQ(ow[0].score, ow[1].score);
}

TEST(SelectTerms, TopNTruncates) {
  const Corpus background = make_background();
  std::vector<const Document*> relevant{&background.doc(0)};
  EXPECT_EQ(
      select_terms(background, relevant, TermSelector::kRawTf, 2).size(), 2u);
}

TEST(TermStatsAccumulator, MatchesCorpusBasedSelection) {
  const Corpus background = make_background();
  TermStatsAccumulator bg_acc;
  TermStatsAccumulator rel_acc;
  for (const auto& doc : background.docs()) bg_acc.add_document(doc.terms());
  rel_acc.add_document(background.doc(18).terms());
  rel_acc.add_document(background.doc(19).terms());
  rel_acc.add_document(background.doc(0).terms());
  std::vector<const Document*> relevant{&background.doc(18),
                                        &background.doc(19),
                                        &background.doc(0)};

  for (const auto selector :
       {TermSelector::kRawTf, TermSelector::kOfferWeight,
        TermSelector::kTfOfferWeight}) {
    const auto from_corpus = select_terms(background, relevant, selector, 5);
    const auto from_acc = select_terms(bg_acc, rel_acc, selector, 5);
    ASSERT_EQ(from_corpus.size(), from_acc.size());
    for (std::size_t i = 0; i < from_corpus.size(); ++i) {
      EXPECT_EQ(from_corpus[i].term, from_acc[i].term);
      EXPECT_NEAR(from_corpus[i].score, from_acc[i].score, 1e-9);
    }
  }
}

// --- BM25 -----------------------------------------------------------------------

Corpus make_archive() {
  Corpus corpus;
  corpus.add(Document::from_terms(0, {"storm", "coast", "wind", "rain"}));
  corpus.add(Document::from_terms(1, {"election", "vote", "poll"}));
  corpus.add(Document::from_terms(
      2, {"storm", "storm", "storm", "damage", "coast"}));
  corpus.add(Document::from_terms(3, {"cook", "recipe", "dinner"}));
  return corpus;
}

TEST(Bm25, RanksMatchingDocsFirst) {
  const Corpus archive = make_archive();
  const Bm25 bm25(archive);
  const auto ranked = bm25.rank(std::vector<std::string>{"storm", "coast"});
  ASSERT_EQ(ranked.size(), 4u);
  // Docs 0 and 2 must outrank 1 and 3.
  EXPECT_TRUE(ranked[0].index == 0 || ranked[0].index == 2);
  EXPECT_TRUE(ranked[1].index == 0 || ranked[1].index == 2);
  EXPECT_GT(ranked[1].score, ranked[2].score);
  EXPECT_EQ(ranked[2].score, 0.0);
}

TEST(Bm25, TfSaturationMonotone) {
  const Corpus archive = make_archive();
  const Bm25 bm25(archive);
  // doc 2 has tf(storm)=3, doc 0 has tf=1; same-ish length => 2 wins on tf.
  EXPECT_GT(bm25.score(std::vector<std::string>{"storm"}, 2),
            bm25.score(std::vector<std::string>{"storm"}, 0));
}

TEST(Bm25, UnknownTermsScoreZero) {
  const Corpus archive = make_archive();
  const Bm25 bm25(archive);
  EXPECT_EQ(bm25.score(std::vector<std::string>{"unseen"}, 0), 0.0);
}

TEST(Bm25, WeightedQueryScalesContribution) {
  const Corpus archive = make_archive();
  const Bm25 bm25(archive);
  const std::vector<ScoredTerm> singly{{"storm", 1.0}};
  const std::vector<ScoredTerm> doubly{{"storm", 2.0}};
  EXPECT_NEAR(bm25.score(doubly, 0), 2.0 * bm25.score(singly, 0), 1e-12);
  const std::vector<ScoredTerm> negative{{"storm", -5.0}};
  EXPECT_EQ(bm25.score(negative, 0), 0.0);  // negative weights ignored
}

TEST(Bm25, NanWeightContributesNothing) {
  const Corpus archive = make_archive();
  const Bm25 bm25(archive);
  const std::vector<ScoredTerm> nan_only{{"storm", std::nan("")}};
  EXPECT_EQ(bm25.score(nan_only, 0), 0.0);
  const std::vector<ScoredTerm> singly{{"storm", 1.0}};
  const std::vector<ScoredTerm> with_nan{{"storm", 1.0},
                                         {"storm", std::nan("")}};
  EXPECT_GT(bm25.score(singly, 0), 0.0);
  EXPECT_EQ(bm25.score(with_nan, 0), bm25.score(singly, 0));
}

TEST(Bm25, LengthNormalizationPenalizesLongDocs) {
  Corpus corpus;
  corpus.add(Document::from_terms(0, {"x", "y"}));
  std::vector<std::string> long_doc(50, "pad");
  long_doc.push_back("x");
  corpus.add(Document::from_terms(1, long_doc));
  const Bm25 bm25(corpus);
  EXPECT_GT(bm25.score(std::vector<std::string>{"x"}, 0),
            bm25.score(std::vector<std::string>{"x"}, 1));
}

TEST(Bm25, RankingIsDeterministicOnTies) {
  const Corpus archive = make_archive();
  const Bm25 bm25(archive);
  const auto r1 = bm25.rank(std::vector<std::string>{"storm"});
  const auto r2 = bm25.rank(std::vector<std::string>{"storm"});
  EXPECT_EQ(r1, r2);
}

// --- metrics --------------------------------------------------------------------

TEST(Metrics, PrecisionAtK) {
  const std::vector<std::size_t> ranking{0, 1, 2, 3};
  const std::vector<bool> relevant{true, false, true, false};
  EXPECT_DOUBLE_EQ(precision_at_k(ranking, relevant, 1), 1.0);
  EXPECT_DOUBLE_EQ(precision_at_k(ranking, relevant, 2), 0.5);
  EXPECT_DOUBLE_EQ(precision_at_k(ranking, relevant, 4), 0.5);
  EXPECT_DOUBLE_EQ(precision_at_k(ranking, relevant, 100), 0.5);  // clamped
  EXPECT_DOUBLE_EQ(precision_at_k(ranking, relevant, 0), 0.0);
}

TEST(Metrics, AveragePrecision) {
  // relevant docs at ranks 1 and 3 -> AP = (1/1 + 2/3)/2
  const std::vector<std::size_t> ranking{5, 9, 7};
  const std::vector<bool> relevant = [] {
    std::vector<bool> r(10, false);
    r[5] = true;
    r[7] = true;
    return r;
  }();
  EXPECT_NEAR(average_precision(ranking, relevant), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
  EXPECT_EQ(average_precision(ranking, std::vector<bool>(10, false)), 0.0);
}

TEST(Metrics, FrontImprovement) {
  const std::vector<std::size_t> good{0, 1, 2, 3};
  const std::vector<std::size_t> bad{3, 2, 1, 0};
  const std::vector<bool> relevant{true, true, false, false};
  // Degenerate baseline (P@2 = 0) returns 0 by contract.
  EXPECT_DOUBLE_EQ(front_improvement(good, bad, relevant, 2), 0.0);
  // Non-degenerate baseline: P@2(base) = 0.5, P@2(good) = 1.0 -> +100%.
  const std::vector<std::size_t> base{2, 0, 3, 1};
  EXPECT_DOUBLE_EQ(front_improvement(good, base, relevant, 2), 1.0);
}

TEST(Metrics, KendallTau) {
  const std::vector<std::size_t> a{0, 1, 2, 3};
  const std::vector<std::size_t> same{0, 1, 2, 3};
  const std::vector<std::size_t> reversed{3, 2, 1, 0};
  EXPECT_DOUBLE_EQ(kendall_tau(a, same), 1.0);
  EXPECT_DOUBLE_EQ(kendall_tau(a, reversed), -1.0);
  const std::vector<std::size_t> one_swap{1, 0, 2, 3};
  EXPECT_NEAR(kendall_tau(a, one_swap), 1.0 - 2.0 / 6.0, 1e-12);
  EXPECT_THROW(kendall_tau(a, {0, 1}), std::invalid_argument);
}

TEST(Metrics, Mrr) {
  const std::vector<bool> relevant{false, false, true};
  EXPECT_DOUBLE_EQ(mrr({0, 1, 2}, relevant), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(mrr({2, 0, 1}, relevant), 1.0);
  EXPECT_DOUBLE_EQ(mrr({0, 1}, {false, false}), 0.0);
}

}  // namespace
}  // namespace reef::ir
