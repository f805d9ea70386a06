// E7a — substrate viability: event-matching throughput.
//
// google-benchmark microbenchmarks of the matching engines under a
// Reef-like filter population (feed-equality subscriptions plus
// content/range filters), sweeping the subscription-table size. Engines
// are selected by name (make_matcher); the smoke's correctness pass
// iterates every built-in engine, bare and sharded, so a new engine is
// checked there without code changes. The batch benchmarks compare the amortized
// Matcher::match_batch path against a per-event match loop over the same
// events — the win is the broker's per-tick coalescing made visible.
//
// `--smoke` (used by CI) skips google-benchmark and instead runs a quick
// cross-engine correctness pass, a batch-vs-loop timing, fixed-ratio
// floors of the bitset engine over brute force on the dense/high-overlap
// workload, the eq-free range/prefix workload, the suffix/contains/in-set
// workload and the Reef content workload, and a zero-copy check on the
// pre-filtered sub-batch path, so the bench binary can't bit-rot — and
// the interned hot path can't silently regress — without failing the
// workflow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "../tests/engine_variants.h"
#include "pubsub/engines.h"
#include "pubsub/matcher.h"
#include "pubsub/range_index.h"
#include "pubsub/sharded_matcher.h"
#include "util/rng.h"

namespace {

using namespace reef::pubsub;

/// Builds a filter population. `content_share` is the fraction of
/// substring/range filters; the rest are feed-equality subscriptions
/// [stream=feed && feed=<url_i>]. Reef's live population is ~30% content
/// filters; 0% models a pure topic-subscription deployment.
std::vector<Filter> make_filters(std::size_t n, double content_share,
                                 reef::util::Rng& rng) {
  std::vector<Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double kind = rng.uniform01();
    if (kind >= content_share) {
      filters.push_back(
          Filter()
              .and_(eq("stream", "feed"))
              .and_(eq("feed", "http://site" +
                                   std::to_string(rng.index(n / 2 + 1)) +
                                   ".example/f.rss")));
    } else if (kind >= content_share / 3.0) {
      filters.push_back(
          Filter()
              .and_(eq("stream", "video"))
              .and_(contains("text", "term" +
                                         std::to_string(rng.index(200)))));
    } else {
      const double lo = rng.uniform(0, 50);
      filters.push_back(Filter()
                            .and_(eq("stream", "quotes"))
                            .and_(ge("price", lo))
                            .and_(lt("price", lo + 10.0)));
    }
  }
  return filters;
}

/// Dense/high-overlap population: every filter is 2-3 equality
/// constraints drawn from a tiny vocabulary (hot x cat x tier is 48
/// combinations), so any event satisfies a large fraction of the table.
/// Brute force pays a full Filter::matches per filter and event, while the
/// bitset engine resolves ~3 index entries once and sweeps words. The
/// smoke's dense floor pins this workload.
std::vector<Filter> make_dense_filters(std::size_t n, reef::util::Rng& rng) {
  std::vector<Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Filter f = Filter()
                   .and_(eq("hot", static_cast<std::int64_t>(rng.index(2))))
                   .and_(eq("cat", static_cast<std::int64_t>(rng.index(8))));
    if (rng.chance(0.5)) {
      f.and_(eq("tier", static_cast<std::int64_t>(rng.index(3))));
    }
    filters.push_back(std::move(f));
  }
  return filters;
}

Event make_dense_event(reef::util::Rng& rng) {
  return Event()
      .with("hot", static_cast<std::int64_t>(rng.index(2)))
      .with("cat", static_cast<std::int64_t>(rng.index(8)))
      .with("tier", static_cast<std::int64_t>(rng.index(3)))
      .with("seq", static_cast<std::int64_t>(rng.index(1000)));
}

/// Range/prefix-heavy population: no equality constraint anywhere, so
/// every filter must be resolved through the sorted-bounds or
/// prefix-pattern structures. Bounds come from a coarse grid so the bitset
/// engine's entry-level dedup is visible, and make_range_event draws
/// prices from the top decile of the grid, so a sorted probe touches a
/// thin slice of the bound arrays while brute force pays all n
/// Filter::matches per event.
std::vector<Filter> make_range_filters(std::size_t n, reef::util::Rng& rng) {
  std::vector<Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.index(5)) {
      case 0:
      case 1: {  // 40%: price band [lo, lo + 80)
        const double lo = 10.0 * static_cast<double>(rng.index(100));
        filters.push_back(
            Filter().and_(ge("price", lo)).and_(lt("price", lo + 80.0)));
        break;
      }
      case 2:  // 20%: one-sided "price below threshold", double bound
        filters.push_back(Filter().and_(
            lt("price", 10.0 * static_cast<double>(rng.index(100)))));
        break;
      case 3:  // 20%: same shape with an int bound (cross-type vs the
               // double-valued events; distinct bitset entry identity)
        filters.push_back(Filter().and_(
            le("price", static_cast<std::int64_t>(10 * rng.index(100)))));
        break;
      default:  // 20%: prefix over a 400-pattern path vocabulary
        filters.push_back(Filter().and_(prefix(
            "path", "/feeds/" + std::to_string(rng.index(400)) + "/")));
        break;
    }
  }
  return filters;
}

Event make_range_event(reef::util::Rng& rng) {
  return Event()
      .with("price", 900.0 + rng.uniform(0.0, 100.0))
      .with("path", "/feeds/" + std::to_string(rng.index(400)) + "/item/" +
                        std::to_string(rng.index(50)));
}

/// Suffix/contains-heavy population: tail subscriptions (file extensions
/// and deep item tails sharing reversed-prefix structure), substring
/// subscriptions over a segment vocabulary, and a set-membership slice
/// over a small symbol universe. Suffixes resolve via one binary search
/// per live length over reversed patterns, contains via the one-pass
/// contains probe, and in-set via shared residual postings evaluated once
/// per distinct constraint.
std::vector<Filter> make_suffix_filters(std::size_t n, reef::util::Rng& rng) {
  std::vector<Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.index(10)) {
      case 0:
      case 1:
      case 2:
      case 3:  // 40%: extension subscriptions, ~60 distinct short tails
        filters.push_back(Filter().and_(
            suffix("file", "." + std::to_string(rng.index(60)) + "rss")));
        break;
      case 4:
      case 5:  // 20%: deep tails — long patterns ending in the same
               // extensions, so the reversed table nests them under the
               // short patterns' structure
        filters.push_back(Filter().and_(suffix(
            "file", "/item" + std::to_string(rng.index(300)) + "." +
                        std::to_string(rng.index(60)) + "rss")));
        break;
      case 6:
      case 7:
      case 8:  // 30%: substring subscriptions over a segment vocabulary
        filters.push_back(Filter().and_(contains(
            "file", "/seg" + std::to_string(rng.index(300)) + "/")));
        break;
      default: {  // 10%: set membership over 40 symbols, 2-4 members
        std::vector<Value> members;
        const std::size_t count = 2 + rng.index(3);
        for (std::size_t j = 0; j < count; ++j) {
          members.emplace_back("S" + std::to_string(rng.index(40)));
        }
        filters.push_back(Filter().and_(in_("sym", std::move(members))));
        break;
      }
    }
  }
  return filters;
}

Event make_suffix_event(reef::util::Rng& rng) {
  return Event()
      .with("file", "/srv/seg" + std::to_string(rng.index(300)) + "/item" +
                        std::to_string(rng.index(300)) + "." +
                        std::to_string(rng.index(60)) + "rss")
      .with("sym", "S" + std::to_string(rng.index(40)));
}

/// Reef content vocabulary: pseudo-words of three syllables from a small
/// syllable set, so terms share leading bigrams and occur inside one
/// another the way natural-language terms do.
std::vector<std::string> make_content_terms(std::size_t count,
                                            reef::util::Rng& rng) {
  static constexpr const char* kSyllables[] = {
      "ka", "re", "to",  "mi", "sun", "lo", "ve", "ter", "an", "pri",
      "co", "da", "ne", "sta", "ri",  "mo", "bel", "ga", "ti", "por"};
  std::vector<std::string> terms;
  terms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string term;
    for (int s = 0; s < 3; ++s) term += kSyllables[rng.index(20)];
    terms.push_back(std::move(term));
  }
  return terms;
}

/// Reef content population (ContentRecommender + TopicRecommender): two
/// thirds feed subscriptions [stream=feed && feed=<url>], one third content
/// subscriptions [stream=feed && contains(text, <term>)]. The only eq
/// constraint a content subscription has is the one every filter shares,
/// so the contains probe over the long item text does the selecting.
std::vector<Filter> make_content_filters(std::size_t n,
                                         const std::vector<std::string>& terms,
                                         reef::util::Rng& rng) {
  std::vector<Filter> filters;
  filters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Filter f = Filter().and_(eq("stream", "feed"));
    if (rng.index(3) != 0) {
      f.and_(eq("feed", "http://site" + std::to_string(rng.index(n / 2 + 1)) +
                            ".example/f.rss"));
    } else {
      f.and_(contains("text", terms[rng.index(terms.size())]));
    }
    filters.push_back(std::move(f));
  }
  return filters;
}

/// A feed item: its feed url and a ~500-character text of 64 terms.
Event make_content_event(std::size_t universe,
                         const std::vector<std::string>& terms,
                         reef::util::Rng& rng) {
  std::string text;
  for (int t = 0; t < 64; ++t) {
    if (t != 0) text += ' ';
    text += terms[rng.index(terms.size())];
  }
  return Event()
      .with("stream", "feed")
      .with("feed", "http://site" +
                        std::to_string(rng.index(universe / 2 + 1)) +
                        ".example/f.rss")
      .with("text", std::move(text));
}

Event make_event(std::size_t universe, reef::util::Rng& rng) {
  const double kind = rng.uniform01();
  if (kind < 0.7) {
    return Event()
        .with("stream", "feed")
        .with("feed", "http://site" +
                          std::to_string(rng.index(universe / 2 + 1)) +
                          ".example/f.rss")
        .with("seq", static_cast<std::int64_t>(rng.index(1000)))
        .with("text", "term" + std::to_string(rng.index(200)) + " filler");
  }
  if (kind < 0.9) {
    return Event()
        .with("stream", "video")
        .with("text", "term" + std::to_string(rng.index(200)) +
                          " term" + std::to_string(rng.index(200)));
  }
  return Event()
      .with("stream", "quotes")
      .with("price", rng.uniform(0, 60));
}

std::unique_ptr<Matcher> populated_matcher(const std::string& engine,
                                           std::size_t table_size,
                                           double content_share,
                                           reef::util::Rng& rng) {
  auto matcher = make_matcher(engine);
  const auto filters = make_filters(table_size, content_share, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  return matcher;
}

// --- per-event matching, engine x table size --------------------------------

void bm_match(benchmark::State& state, const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const double content_share = static_cast<double>(state.range(1)) / 100.0;
  reef::util::Rng rng(42);
  const auto matcher =
      populated_matcher(engine, table_size, content_share, rng);
  std::vector<Event> events;
  for (int i = 0; i < 256; ++i) events.push_back(make_event(table_size, rng));

  std::size_t cursor = 0;
  std::vector<SubscriptionId> hits;
  for (auto _ : state) {
    hits.clear();
    matcher->match(events[cursor], hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + 1) % events.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["table"] = static_cast<double>(table_size);
}

// {table size, % content (substring/range) filters}
BENCHMARK_CAPTURE(bm_match, bitset, "bitset")
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({1000, 30})
    ->Args({10000, 30});
BENCHMARK_CAPTURE(bm_match, brute_force, "brute-force")
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({1000, 30})
    ->Args({10000, 30});

// --- batch matching: match_batch vs a per-event loop, engine x batch size ---

void bm_match_loop(benchmark::State& state, const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  reef::util::Rng rng(42);
  const auto matcher = populated_matcher(engine, table_size, 0.3, rng);
  std::vector<Event> events;
  for (int i = 0; i < 256; ++i) events.push_back(make_event(table_size, rng));

  std::size_t cursor = 0;
  std::vector<SubscriptionId> hits;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch_size; ++i) {
      hits.clear();
      matcher->match(events[(cursor + i) % events.size()], hits);
      benchmark::DoNotOptimize(hits.data());
    }
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
}

void bm_match_batch(benchmark::State& state, const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  reef::util::Rng rng(42);
  const auto matcher = populated_matcher(engine, table_size, 0.3, rng);
  std::vector<Event> events;
  for (int i = 0; i < 256; ++i) events.push_back(make_event(table_size, rng));

  std::size_t cursor = 0;
  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    matcher->match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
}

// {table size, batch size}
#define BATCH_ARGS \
  ->Args({10000, 8})->Args({10000, 32})->Args({10000, 128})
BENCHMARK_CAPTURE(bm_match_loop, bitset, "bitset") BATCH_ARGS;
BENCHMARK_CAPTURE(bm_match_batch, bitset, "bitset") BATCH_ARGS;
BENCHMARK_CAPTURE(bm_match_loop, brute_force, "brute-force")
    ->Args({2000, 32});
BENCHMARK_CAPTURE(bm_match_batch, brute_force, "brute-force")
    ->Args({2000, 32});
#undef BATCH_ARGS

// --- dense/high-overlap workload ---------------------------------------------
//
// make_dense_filters above: tiny eq vocabulary, huge entry overlap — the
// Reef-like sweep above has selective feed entries; this one has none, so
// every event satisfies a large share of the table. CI's bench sweep
// picks these rows up via --benchmark_filter='sharded|dense|range', and
// run_smoke() enforces the bitset-over-brute-force floor on this same
// shape.

void bm_match_batch_dense(benchmark::State& state, const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  reef::util::Rng rng(42);
  auto matcher = make_matcher(engine);
  const auto filters = make_dense_filters(table_size, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  std::vector<Event> events;
  const std::size_t universe = std::max(batch_size, std::size_t{256});
  for (std::size_t i = 0; i < universe; ++i) {
    events.push_back(make_dense_event(rng));
  }

  std::size_t cursor = 0;
  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    matcher->match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["table"] = static_cast<double>(table_size);
}

// {table size, batch size}
#define DENSE_ARGS \
  ->Args({1000, 128})->Args({10000, 128})->Args({10000, 1024})
BENCHMARK_CAPTURE(bm_match_batch_dense, bitset, "bitset") DENSE_ARGS;
#undef DENSE_ARGS
BENCHMARK_CAPTURE(bm_match_batch_dense, brute_force, "brute-force")
    ->Args({1000, 128});

// --- range/prefix workload: the sorted indexes ------------------------------
//
// make_range_filters above: eq-free bands, thresholds, and prefixes.
// Without the sorted indexes every one of these would be a per-event
// predicate evaluation, brute force by another name. CI's bench sweep
// picks these rows up via --benchmark_filter='sharded|dense|range', and
// run_smoke() enforces the bitset-over-brute-force floor on this same
// shape.

void bm_match_batch_range(benchmark::State& state, const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  reef::util::Rng rng(42);
  auto matcher = make_matcher(engine);
  const auto filters = make_range_filters(table_size, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  std::vector<Event> events;
  const std::size_t universe = std::max(batch_size, std::size_t{256});
  for (std::size_t i = 0; i < universe; ++i) {
    events.push_back(make_range_event(rng));
  }

  std::size_t cursor = 0;
  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    matcher->match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["table"] = static_cast<double>(table_size);
}

// {table size, batch size}
#define RANGE_ARGS \
  ->Args({1000, 128})->Args({10000, 128})->Args({10000, 1024})
BENCHMARK_CAPTURE(bm_match_batch_range, bitset, "bitset") RANGE_ARGS;
#undef RANGE_ARGS
BENCHMARK_CAPTURE(bm_match_batch_range, brute_force, "brute-force")
    ->Args({1000, 128})
    ->Args({10000, 128});

// --- suffix/contains workload: the pattern tables ---------------------------
//
// make_suffix_filters above: tail, substring, and set-membership
// subscriptions — zero eq/range/prefix constraints, so only the pattern
// tables keep them from a linear scan. CI's bench sweep picks these rows
// up via --benchmark_filter='sharded|dense|range|suffix', and run_smoke()
// enforces the bitset-over-brute-force floor on this same shape.

void bm_match_batch_suffix(benchmark::State& state,
                           const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  reef::util::Rng rng(42);
  auto matcher = make_matcher(engine);
  const auto filters = make_suffix_filters(table_size, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  std::vector<Event> events;
  const std::size_t universe = std::max(batch_size, std::size_t{256});
  for (std::size_t i = 0; i < universe; ++i) {
    events.push_back(make_suffix_event(rng));
  }

  std::size_t cursor = 0;
  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    matcher->match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["table"] = static_cast<double>(table_size);
}

// {table size, batch size}
#define SUFFIX_ARGS \
  ->Args({1000, 128})->Args({10000, 128})->Args({10000, 1024})
BENCHMARK_CAPTURE(bm_match_batch_suffix, bitset, "bitset") SUFFIX_ARGS;
#undef SUFFIX_ARGS
BENCHMARK_CAPTURE(bm_match_batch_suffix, brute_force, "brute-force")
    ->Args({1000, 128})
    ->Args({10000, 128});

// --- Reef content workload: the one-pass contains probe ---------------------
//
// make_content_filters above: feed and content subscriptions that all
// share stream=feed, matched against ~500-character feed item texts. CI's
// bench sweep picks these rows up via
// --benchmark_filter='sharded|dense|range|suffix|content', and run_smoke()
// enforces the bitset-over-brute-force floor on this same shape.

void bm_match_batch_content(benchmark::State& state,
                            const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  reef::util::Rng rng(42);
  const auto terms = make_content_terms(4000, rng);
  auto matcher = make_matcher(engine);
  const auto filters = make_content_filters(table_size, terms, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  std::vector<Event> events;
  const std::size_t universe = std::max(batch_size, std::size_t{256});
  for (std::size_t i = 0; i < universe; ++i) {
    events.push_back(make_content_event(table_size, terms, rng));
  }

  std::size_t cursor = 0;
  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    matcher->match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["table"] = static_cast<double>(table_size);
}

// {table size, batch size}
#define CONTENT_ARGS \
  ->Args({1000, 128})->Args({10000, 128})->Args({10000, 1024})
BENCHMARK_CAPTURE(bm_match_batch_content, bitset, "bitset") CONTENT_ARGS;
#undef CONTENT_ARGS
BENCHMARK_CAPTURE(bm_match_batch_content, brute_force, "brute-force")
    ->Args({1000, 128})
    ->Args({10000, 128});

// The contains probe alone: a bare ContainsTable over {150, 240} distinct
// content terms (Reef's live population holds ~240, one per user), probed
// with the content workload's ~500-character texts. ns_per_byte is the
// kernel's cost per text byte, independent of either engine around it.
void bm_contains_probe_content(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  reef::util::Rng rng(42);
  const auto terms = make_content_terms(4000, rng);
  ContainsTable<int> table;
  for (std::size_t i = 0, filed = 0; filed < distinct && i < terms.size();
       ++i) {
    if (table.find(terms[i]) != nullptr) continue;
    table.insert(terms[i]);
    ++filed;
  }
  std::vector<std::string> texts;
  for (int i = 0; i < 256; ++i) {
    texts.push_back(
        make_content_event(1000, terms, rng).find("text")->as_string());
  }

  std::size_t cursor = 0;
  std::size_t bytes = 0;
  std::size_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const std::string& text = texts[cursor];
    table.probe(text, [&](const ContainsTable<int>::Posting&) { ++fired; });
    bytes += text.size();
    cursor = (cursor + 1) % texts.size();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(fired);
  state.counters["ns_per_byte"] =
      elapsed.count() / static_cast<double>(std::max<std::size_t>(bytes, 1));
  state.counters["hits_per_text"] =
      static_cast<double>(fired) / static_cast<double>(state.iterations());
}
BENCHMARK(bm_contains_probe_content)->Arg(150)->Arg(240);

// --- zero-copy sub-batches: index-span view vs gather-by-copy ---------------
//
// The sharded pre-filter hands every shard an EventBatchView — an index
// span over the original event storage — instead of gathering a copied
// sub-batch (the PR 3 path this PR deleted). This pair quantifies the
// difference on a sparse slice (every 8th event of a 1024-event batch):
// same matching work, with and without the per-event copies.

void bm_match_batch_subview(benchmark::State& state, bool zero_copy) {
  const std::size_t table_size = 10000;
  const std::size_t batch_size = 1024;
  reef::util::Rng rng(42);
  const auto matcher = populated_matcher("bitset", table_size, 0.3, rng);
  std::vector<Event> events;
  for (std::size_t i = 0; i < batch_size; ++i) {
    events.push_back(make_event(table_size, rng));
  }
  std::vector<std::uint32_t> indices;
  for (std::uint32_t i = 0; i < batch_size; i += 8) indices.push_back(i);

  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    if (zero_copy) {
      matcher->match_batch(EventBatchView(events, indices), hits);
    } else {
      std::vector<Event> gathered;  // what the deleted gather path paid
      gathered.reserve(indices.size());
      for (const std::uint32_t i : indices) gathered.push_back(events[i]);
      matcher->match_batch(gathered, hits);
    }
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * indices.size()));
  state.counters["subbatch"] = static_cast<double>(indices.size());
}

BENCHMARK_CAPTURE(bm_match_batch_subview, index_span, true);
BENCHMARK_CAPTURE(bm_match_batch_subview, gather_copy, false);

// --- sharded matching: shard count x engine x batch --------------------------
//
// The intra-broker parallelism sweep. Events are drawn once and the same
// table population is sharded by placement-attribute hash; {1 shard, 0
// workers} through the ShardedMatcher wrapper measures pure sharding
// overhead against the bm_match_batch numbers above, and the multi-worker
// rows measure the pool win (only visible on multi-core hosts). The
// skip_ratio counter (events_skipped / routed+skipped) reports the
// per-shard work the shard pre-filter removed — counter-based, so it shows
// even where wall clock can't.

void bm_match_batch_sharded(benchmark::State& state,
                            const std::string& inner) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  const auto shard_count = static_cast<std::size_t>(state.range(2));
  const auto workers = static_cast<std::size_t>(state.range(3));
  reef::util::Rng rng(42);
  ShardedMatcher matcher(
      ShardedMatcher::Config{.shard_count = shard_count,
                             .worker_threads = workers,
                             .inner_engine = inner});
  const auto filters = make_filters(table_size, 0.3, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher.add(i + 1, filters[i]);
  }
  std::vector<Event> events;
  const std::size_t universe = std::max(batch_size, std::size_t{256});
  for (std::size_t i = 0; i < universe; ++i) {
    events.push_back(make_event(table_size, rng));
  }

  std::size_t cursor = 0;
  std::vector<std::vector<SubscriptionId>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    matcher.match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["shards"] = static_cast<double>(shard_count);
  state.counters["workers"] = static_cast<double>(workers);
  const double pairs = static_cast<double>(matcher.events_routed() +
                                           matcher.events_skipped());
  state.counters["skip_ratio"] =
      pairs == 0.0 ? 0.0
                   : static_cast<double>(matcher.events_skipped()) / pairs;
}

// {table size, batch size, shard count, worker threads}. The large-batch
// rows (1024) are the acceptance sweep: sharded 4/4 vs the 1/0 baseline.
#define SHARD_SWEEP(table)                                      \
      ->Args({table, 128, 1, 0})                                \
      ->Args({table, 128, 4, 0})                                \
      ->Args({table, 128, 4, 4})                                \
      ->Args({table, 1024, 1, 0})                               \
      ->Args({table, 1024, 2, 2})                               \
      ->Args({table, 1024, 4, 0})                               \
      ->Args({table, 1024, 4, 4})                               \
      ->Args({table, 1024, 8, 4})
BENCHMARK_CAPTURE(bm_match_batch_sharded, bitset, "bitset")
    SHARD_SWEEP(10000)->UseRealTime();
BENCHMARK_CAPTURE(bm_match_batch_sharded, brute_force, "brute-force")
    ->Args({2000, 1024, 1, 0})
    ->Args({2000, 1024, 4, 4})
    ->UseRealTime();
#undef SHARD_SWEEP

// --- subscription churn ------------------------------------------------------

void bm_subscription_churn(benchmark::State& state) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  reef::util::Rng rng(7);
  const auto matcher = make_matcher(kDefaultEngine);
  const auto filters = make_filters(table_size, 0.3, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  std::size_t next = filters.size() + 1;
  std::size_t victim = 1;
  for (auto _ : state) {
    matcher->remove(victim++);
    matcher->add(next++, filters[rng.index(filters.size())]);
    if (victim > filters.size()) {
      state.SkipWithError("table drained");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(bm_subscription_churn)->Arg(10000)->Iterations(5000);

void bm_covering_check(benchmark::State& state) {
  reef::util::Rng rng(11);
  const auto filters = make_filters(256, 0.3, rng);
  std::size_t a = 0;
  std::size_t b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filters[a].covers(filters[b]));
    a = (a + 1) % filters.size();
    b = (b + 3) % filters.size();
  }
}

BENCHMARK(bm_covering_check);

// --- --smoke mode (CI) -------------------------------------------------------

/// Best of three timed runs of `rounds` match_batch calls, in
/// microseconds. Scheduler steal and noisy neighbors only ever *add* time,
/// so the minimum is the clean estimate — without it the floor checks
/// false-fail on loaded CI runners.
long best_of_three_us(const Matcher& m, const std::vector<Event>& events,
                      int rounds) {
  std::vector<std::vector<SubscriptionId>> out;
  long best = std::numeric_limits<long>::max();
  for (int trial = 0; trial < 3; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      m.match_batch(events, out);
      benchmark::DoNotOptimize(out.data());
    }
    const auto trial_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    best = std::min(best, static_cast<long>(trial_us));
  }
  return best;
}

/// One smoke floor row: the bitset engine must agree with the brute-force
/// oracle on `filters` x `events` and beat brute force's match_batch by at
/// least `floor` (best of three, 20 rounds). Prints the row; false (after
/// printing why) on failure.
bool floor_over_brute(const char* workload, const std::vector<Filter>& filters,
                      const std::vector<Event>& events, double floor) {
  constexpr int ratio_rounds = 20;
  const auto brute = make_matcher("brute-force");
  const auto bitset = make_matcher("bitset");
  for (std::size_t i = 0; i < filters.size(); ++i) {
    brute->add(i + 1, filters[i]);
    bitset->add(i + 1, filters[i]);
  }
  std::vector<std::vector<SubscriptionId>> oracle_hits;
  std::vector<std::vector<SubscriptionId>> bitset_hits;
  brute->match_batch(events, oracle_hits);
  bitset->match_batch(events, bitset_hits);
  for (auto& row : oracle_hits) std::sort(row.begin(), row.end());
  for (auto& row : bitset_hits) std::sort(row.begin(), row.end());
  if (bitset_hits != oracle_hits) {
    std::printf("FAIL: bitset diverges from oracle on the %s workload\n",
                workload);
    return false;
  }
  const auto brute_us = best_of_three_us(*brute, events, ratio_rounds);
  const auto bitset_us = best_of_three_us(*bitset, events, ratio_rounds);
  const double speedup = bitset_us == 0 ? floor
                                        : static_cast<double>(brute_us) /
                                              static_cast<double>(bitset_us);
  std::printf("  %s workload (%zu filters): brute %ldus, bitset %ldus "
              "(%.1fx, floor %.2fx)\n",
              workload, filters.size(), brute_us, bitset_us, speedup, floor);
  if (speedup < floor) {
    std::printf("FAIL: bitset fell below the %.2fx floor over brute force on "
                "the %s workload\n",
                floor, workload);
    return false;
  }
  return true;
}

int run_smoke() {
  std::printf("bench_pubsub_matching --smoke\n");
  reef::util::Rng rng(42);
  const std::size_t table_size = 5000;
  const auto filters = make_filters(table_size, 0.3, rng);
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) events.push_back(make_event(table_size, rng));

  // 1. Every engine, bare and sharded, agrees with brute force, per-event
  // and batch.
  BruteForceMatcher oracle;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    oracle.add(i + 1, filters[i]);
  }
  for (const EngineVariant& variant : engine_variants()) {
    const auto engine = variant.make();
    const std::string engine_name = variant.label();
    for (std::size_t i = 0; i < filters.size(); ++i) {
      engine->add(i + 1, filters[i]);
    }
    std::vector<std::vector<SubscriptionId>> batched;
    engine->match_batch(events, batched);
    for (std::size_t i = 0; i < events.size(); ++i) {
      auto expected = oracle.match(events[i]);
      auto single = engine->match(events[i]);
      auto from_batch = batched[i];
      std::sort(expected.begin(), expected.end());
      std::sort(single.begin(), single.end());
      std::sort(from_batch.begin(), from_batch.end());
      if (single != expected || from_batch != expected) {
        std::printf("FAIL: %s diverges from oracle on event %zu\n",
                    engine_name.c_str(), i);
        return 1;
      }
    }
    std::printf("  %-12s agrees with oracle (%zu filters, %zu events)\n",
                engine_name.c_str(), table_size, events.size());
  }

  // 2. One quick batch-vs-loop timing on the bitset engine.
  const auto matcher = make_matcher("bitset");
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  const int rounds = 2000;
  std::vector<SubscriptionId> hits;
  const auto loop_start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (const Event& event : events) {
      hits.clear();
      matcher->match(event, hits);
      benchmark::DoNotOptimize(hits.data());
    }
  }
  const auto loop_end = std::chrono::steady_clock::now();
  std::vector<std::vector<SubscriptionId>> batch_hits;
  for (int r = 0; r < rounds; ++r) {
    matcher->match_batch(events, batch_hits);
    benchmark::DoNotOptimize(batch_hits.data());
  }
  const auto batch_end = std::chrono::steady_clock::now();
  const auto us = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
        .count();
  };
  std::printf("  bitset: per-event loop %ldus, match_batch %ldus "
              "(batch=%zu, %d rounds)\n",
              static_cast<long>(us(loop_start, loop_end)),
              static_cast<long>(us(loop_end, batch_end)), events.size(),
              rounds);

  // 2b-2e. Fixed floors of the bitset engine over brute force, one per
  // workload shape (floor_over_brute: oracle agreement, then the min of
  // three timed trials). A floor is not a target: each sits well below
  // the ratio measured, so only a regression that erases the engine's
  // advantage fails CI here.
  //
  // 2b. Dense/high-overlap population: every event satisfies a large
  // share of the table, the shape the word streams and the counting
  // threshold pass are built for. Measured 43-52x on a 4-vCPU dev host
  // (2.1 GHz); the 10x floor is under a quarter of that, so only a
  // regressed kernel (e.g. a per-filter evaluation creeping back in)
  // fails it.
  {
    reef::util::Rng dense_rng(42);
    const auto dense_filters = make_dense_filters(8000, dense_rng);
    std::vector<Event> dense_events;
    for (int i = 0; i < 64; ++i) {
      dense_events.push_back(make_dense_event(dense_rng));
    }
    if (!floor_over_brute("dense", dense_filters, dense_events,
                          /*floor=*/10.0)) {
      return 1;
    }
  }

  // 2c. Range/prefix workload: on the eq-free population every filter
  // resolves through the sorted-bounds / prefix-pattern structures. The
  // floor is low (~2.3x measured on a single-core dev host) because the
  // engine pays an entry-bitmap sweep for every satisfied lower bound.
  {
    reef::util::Rng range_rng(42);
    const auto range_filters = make_range_filters(10000, range_rng);
    std::vector<Event> range_events;
    for (int i = 0; i < 64; ++i) {
      range_events.push_back(make_range_event(range_rng));
    }
    if (!floor_over_brute("range/prefix", range_filters, range_events,
                          /*floor=*/1.5)) {
      return 1;
    }
  }

  // 2d. Suffix/contains workload: tail, substring, and set-membership
  // subscriptions. The floor is lower still (1.25x) because the in-set
  // slice stays a residual posting evaluated once per distinct symbol.
  {
    reef::util::Rng suffix_rng(42);
    const auto suffix_filters = make_suffix_filters(10000, suffix_rng);
    std::vector<Event> suffix_events;
    for (int i = 0; i < 64; ++i) {
      suffix_events.push_back(make_suffix_event(suffix_rng));
    }
    if (!floor_over_brute("suffix/contains", suffix_filters, suffix_events,
                          /*floor=*/1.25)) {
      return 1;
    }
  }

  // 2e. Reef content workload: feed and content subscriptions that all
  // share stream=feed, over ~500-character item texts. The engine holds
  // its floor only while the contains probe is one pass over the text
  // rather than one search per distinct pattern: measured ~25-35x on a
  // 4-vCPU dev host, against 3.3x with one find() per pattern.
  {
    constexpr std::size_t content_table = 10000;
    reef::util::Rng content_rng(42);
    const auto terms = make_content_terms(4000, content_rng);
    const auto content_filters =
        make_content_filters(content_table, terms, content_rng);
    std::vector<Event> content_events;
    for (int i = 0; i < 64; ++i) {
      content_events.push_back(
          make_content_event(content_table, terms, content_rng));
    }
    if (!floor_over_brute("content", content_filters, content_events,
                          /*floor=*/6.0)) {
      return 1;
    }
  }

  // 3. Sharded baseline vs worker pool on the same table (keeps the
  // sharded fan-out exercised in CI even though the speedup itself only
  // shows on multi-core hosts).
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    ShardedMatcher sharded(
        ShardedMatcher::Config{.shard_count = 4,
                               .worker_threads = workers,
                               .inner_engine = "bitset"});
    for (std::size_t i = 0; i < filters.size(); ++i) {
      sharded.add(i + 1, filters[i]);
    }
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      sharded.match_batch(events, batch_hits);
      benchmark::DoNotOptimize(batch_hits.data());
    }
    const auto end = std::chrono::steady_clock::now();
    std::printf("  bitset/4 (%zu workers): "
                "match_batch %ldus\n",
                workers, static_cast<long>(us(start, end)));
  }

  // 4. Shard-aware event pre-filtering: on the Reef-like workload the
  // pre-filter must skip (event, shard) pairs — the counter-based win that
  // shows even where wall clock can't — through zero-copy index-span
  // sub-batches, while producing the plain inner engine's match sets. A
  // zero skip ratio, an event copy, or any output difference fails the
  // smoke.
  {
    ShardedMatcher sharded(ShardedMatcher::Config{
        .shard_count = 4, .inner_engine = "bitset"});
    const auto plain = make_matcher("bitset");
    for (std::size_t i = 0; i < filters.size(); ++i) {
      sharded.add(i + 1, filters[i]);
      plain->add(i + 1, filters[i]);
    }
    const auto timed = [&](const Matcher& m) {
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) {
        m.match_batch(events, batch_hits);
        benchmark::DoNotOptimize(batch_hits.data());
      }
      return std::chrono::steady_clock::now() - start;
    };
    const std::uint64_t copies_before = Event::copy_count();
    const auto sharded_time = timed(sharded);
    if (Event::copy_count() != copies_before) {
      std::printf("FAIL: pre-filtered sub-batches copied events (%llu "
                  "copies; index-span views must be zero-copy)\n",
                  static_cast<unsigned long long>(Event::copy_count() -
                                                  copies_before));
      return 1;
    }
    const auto plain_time = timed(*plain);
    std::vector<std::vector<SubscriptionId>> hits_sharded;
    std::vector<std::vector<SubscriptionId>> hits_plain;
    sharded.match_batch(events, hits_sharded);
    plain->match_batch(events, hits_plain);
    for (std::size_t i = 0; i < events.size(); ++i) {
      std::sort(hits_sharded[i].begin(), hits_sharded[i].end());
      std::sort(hits_plain[i].begin(), hits_plain[i].end());
    }
    if (hits_sharded != hits_plain) {
      std::printf("FAIL: sharded match sets differ from the plain engine's\n");
      return 1;
    }
    if (sharded.events_skipped() == 0) {
      std::printf("FAIL: pre-filter skipped no (event, shard) pairs on the "
                  "Reef-like workload\n");
      return 1;
    }
    const double pairs = static_cast<double>(sharded.events_routed() +
                                             sharded.events_skipped());
    std::printf("  pre-filter (4 shards, 0 workers): sharded %ldus, plain "
                "%ldus, skip_ratio %.2f (%llu of %.0f event-shard pairs "
                "skipped)\n",
                static_cast<long>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        sharded_time)
                        .count()),
                static_cast<long>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        plain_time)
                        .count()),
                static_cast<double>(sharded.events_skipped()) / pairs,
                static_cast<unsigned long long>(sharded.events_skipped()),
                pairs);
  }
  std::printf("smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) return run_smoke();
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
