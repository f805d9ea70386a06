// E7a — substrate viability: event-matching throughput.
//
// google-benchmark microbenchmarks of the matching engines under a
// Reef-like filter population (feed-equality subscriptions plus
// content/range filters), sweeping the subscription-table size. Engines
// are selected by name (make_matcher); the smoke's correctness pass
// iterates every built-in engine, so a new engine is checked there without
// code changes. The batch benchmarks time Matcher::match_batch, which runs
// each engine's one per-event path over a span with its scratch reused,
// against a per-event match loop over the same events, the workers sweep
// times the routing table's split of one batch over worker threads, and
// bm_match_batch_scored_content times the routing table's BM25-scored
// match. bm_refresh_churn times the routing table's covering refresh per
// call under subscription churn.
//
// `--smoke` (used by CI) skips google-benchmark and instead runs a quick
// cross-engine correctness pass, a batch-vs-loop timing that also fails
// when the two give different hit lists, fixed-ratio
// floors of the bitset engine over brute force on the dense/high-overlap
// workload, the eq-free range/prefix workload, the suffix/contains/in-set
// workload and the Reef content workload, and a check that the worker
// split gives the unsplit hit lists, so the bench binary can't bit-rot —
// and the interned hot path can't silently regress — without failing the
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

#include "pubsub/engines.h"
#include "pubsub/matcher.h"
#include "pubsub/range_index.h"
#include "pubsub/routing_table.h"
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
// picks these rows up via
// --benchmark_filter='dense|range|suffix|content|workers|refresh', and
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
// picks these rows up via
// --benchmark_filter='dense|range|suffix|content|workers|refresh', and
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
// up via --benchmark_filter='dense|range|suffix|content|workers|refresh',
// and run_smoke() enforces the bitset-over-brute-force floor on this same
// shape.

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
// --benchmark_filter='dense|range|suffix|content|workers|refresh', and
// run_smoke() enforces the bitset-over-brute-force floor on this same
// shape.

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

// The delivering broker's scored match (RoutingTable::match_batch_scored)
// over the content population plus 240 BM25 top-4 subscriptions, one per
// user, each scoring three terms against the item title, fed 32-event
// batches of titled content events (the end-to-end scored_topk shape).
// ns_per_scored_hit is the wall time of the whole call per BM25 hit, the
// boolean match included; scored_hits_per_event counts those hits. CI's
// bench sweep picks the row up through its `content` filter; it has no
// smoke floor.
void bm_match_batch_scored_content(benchmark::State& state) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kScoredSubs = 240;
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kTitleTerms = 8;
  constexpr std::size_t kTitleVocabulary = 200;  // so query terms recur
  reef::util::Rng rng(42);
  const auto terms = make_content_terms(4000, rng);
  RoutingTable table;
  const auto filters = make_content_filters(table_size, terms, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    table.client_subscribe(1, i + 1, filters[i]);
  }
  for (std::size_t user = 0; user < kScoredSubs; ++user) {
    ScoringSpec spec;
    spec.policy = ScoringPolicy::kBm25;
    spec.top_k = 4;
    spec.text_attrs = {"title"};
    for (int t = 0; t < 3; ++t) {
      spec.query.push_back(
          {terms[rng.index(kTitleVocabulary)], 1.0 + rng.uniform01()});
    }
    table.client_subscribe(2, table_size + user + 1,
                           Filter().and_(eq("stream", "feed")),
                           std::move(spec));
  }
  std::vector<Event> events;
  for (int i = 0; i < 256; ++i) {
    Event event = make_content_event(table_size, terms, rng);
    std::string title;
    for (std::size_t t = 0; t < kTitleTerms; ++t) {
      if (t != 0) title += ' ';
      title += terms[rng.index(kTitleVocabulary)];
    }
    events.push_back(std::move(event).with("title", std::move(title)));
  }

  std::size_t cursor = 0;
  std::size_t scored_hits = 0;
  std::vector<std::vector<RoutingTable::Destination>> hits;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    table.match_batch_scored(
        std::span<const Event>(events.data() + cursor, kBatch), hits);
    benchmark::DoNotOptimize(hits.data());
    for (const auto& event_hits : hits) {
      for (const RoutingTable::Destination& hit : event_hits) {
        if (hit.scoring != nullptr &&
            hit.scoring->policy == ScoringPolicy::kBm25) {
          ++scored_hits;
        }
      }
    }
    cursor = (cursor + kBatch) % events.size();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto processed = static_cast<std::size_t>(state.iterations()) * kBatch;
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["ns_per_scored_hit"] =
      elapsed.count() /
      static_cast<double>(std::max<std::size_t>(scored_hits, 1));
  state.counters["scored_hits_per_event"] =
      static_cast<double>(scored_hits) /
      static_cast<double>(std::max<std::size_t>(processed, 1));
}
BENCHMARK(bm_match_batch_scored_content)->Arg(1000);

// --- worker split: one engine, contiguous event ranges ---------------------
//
// The intra-broker parallelism sweep. The routing table cuts each batch
// into min(worker_threads + 1, batch size) contiguous ranges and matches
// them through its one engine on the pool plus the calling thread
// (RoutingTable::Config::worker_threads). The table holds the Reef-like
// population as client subscriptions, so every row includes the
// engine-id-to-destination translation the broker pays; the 0-worker row
// is the unsplit baseline, and the multi-worker rows show the pool win
// (only on multi-core hosts).

void bm_match_batch_workers(benchmark::State& state,
                            const std::string& engine) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  const auto workers = static_cast<std::size_t>(state.range(2));
  reef::util::Rng rng(42);
  RoutingTable table(
      RoutingTable::Config{.engine = engine, .worker_threads = workers});
  const auto filters = make_filters(table_size, 0.3, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    table.client_subscribe(1, i + 1, filters[i]);
  }
  std::vector<Event> events;
  const std::size_t universe = std::max(batch_size, std::size_t{256});
  for (std::size_t i = 0; i < universe; ++i) {
    events.push_back(make_event(table_size, rng));
  }

  std::size_t cursor = 0;
  std::vector<std::vector<RoutingTable::Destination>> hits;
  for (auto _ : state) {
    const std::size_t start = cursor % (events.size() - batch_size + 1);
    table.match_batch(
        std::span<const Event>(events.data() + start, batch_size), hits);
    benchmark::DoNotOptimize(hits.data());
    cursor = (cursor + batch_size) % events.size();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch_size));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["workers"] = static_cast<double>(workers);
}

// {table size, batch size, worker threads}. The 1024-event rows are the
// acceptance sweep: 4 workers against the 0-worker baseline.
#define WORKER_SWEEP(table, batch)                               \
      ->Args({table, batch, 0})                                  \
      ->Args({table, batch, 1})                                  \
      ->Args({table, batch, 3})                                  \
      ->Args({table, batch, 4})
BENCHMARK_CAPTURE(bm_match_batch_workers, bitset, "bitset")
    ->Args({10000, 128, 0})
    ->Args({10000, 128, 4})
    WORKER_SWEEP(10000, 1024)->UseRealTime();
BENCHMARK_CAPTURE(bm_match_batch_workers, brute_force, "brute-force")
    WORKER_SWEEP(2000, 1024)->UseRealTime();
#undef WORKER_SWEEP

// --- subscription churn ------------------------------------------------------

void bm_subscription_churn(benchmark::State& state) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  reef::util::Rng rng(7);
  const auto matcher = make_matcher(kDefaultEngine);
  const auto filters = make_filters(table_size, 0.3, rng);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i, filters[i]);
  }
  // Ids stay dense (the Matcher contract): each iteration retracts the
  // oldest registration and registers a new filter under the id it just
  // freed, as the routing table reuses its freed engine ids LIFO, so the
  // bit space stays at table_size however many iterations run.
  std::size_t victim = 0;
  for (auto _ : state) {
    matcher->remove(victim);
    matcher->add(victim, filters[rng.index(filters.size())]);
    victim = (victim + 1) % filters.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(bm_subscription_churn)->Arg(10000)->Iterations(5000);

// --- covering refresh under subscription churn -----------------------------
//
// RoutingTable::refresh per call on Reef-shaped churn: the content
// population (per-feed eq filters plus contains filters, all sharing
// stream == "feed"), a quarter of it received from a second neighbor so
// that visibility differs per neighbor. Each iteration retracts one random
// client subscription and subscribes a filter drawn from the same mix
// (untimed), then times the refresh of the first neighbor that every
// subscription op ends in. diff_per_refresh is the mean number of
// subscribe plus unsubscribe entries a refresh returned.

void bm_refresh_churn(benchmark::State& state) {
  const auto table_size = static_cast<std::size_t>(state.range(0));
  constexpr RoutingTable::IfaceId kNeighbor = 1;
  constexpr RoutingTable::IfaceId kOtherNeighbor = 2;
  constexpr RoutingTable::IfaceId kFirstClient = 100;
  constexpr std::size_t kClients = 16;
  reef::util::Rng rng(13);
  const auto terms = make_content_terms(4000, rng);
  const auto population = make_content_filters(table_size, terms, rng);
  const auto churn_pool = make_content_filters(table_size * 4, terms, rng);
  const auto client_of = [](SubscriptionId sub) {
    return static_cast<RoutingTable::IfaceId>(kFirstClient + sub % kClients);
  };

  RoutingTable table;
  table.add_broker_iface(kNeighbor);
  table.add_broker_iface(kOtherNeighbor);
  std::vector<SubscriptionId> live;
  SubscriptionId next_sub = 0;
  for (const Filter& filter : population) {
    if (rng.index(4) == 0) {
      table.broker_subscribe(kOtherNeighbor, filter);
      continue;
    }
    table.client_subscribe(client_of(next_sub), next_sub, filter);
    live.push_back(next_sub++);
  }
  table.refresh(kNeighbor);

  std::size_t diff_entries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::size_t victim = rng.index(live.size());
    table.client_unsubscribe(client_of(live[victim]), live[victim]);
    table.client_subscribe(client_of(next_sub), next_sub,
                           churn_pool[rng.index(churn_pool.size())]);
    live[victim] = next_sub++;
    state.ResumeTiming();
    const RoutingTable::Diff diff = table.refresh(kNeighbor);
    diff_entries += diff.subscribe.size() + diff.unsubscribe.size();
    benchmark::DoNotOptimize(diff_entries);
  }
  state.counters["diff_per_refresh"] =
      static_cast<double>(diff_entries) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["forwarded"] =
      static_cast<double>(table.forwarded_size(kNeighbor));
}

BENCHMARK(bm_refresh_churn)->Arg(320)->Arg(2000)->Unit(benchmark::kMicrosecond);

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

  // 1. Every engine agrees with brute force, per-event and batch.
  BruteForceMatcher oracle;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    oracle.add(i + 1, filters[i]);
  }
  for (const std::string_view name : kBuiltinEngines) {
    const auto engine = make_matcher(name);
    const std::string engine_name(name);
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

  // 2. One quick batch-vs-loop timing on the bitset engine; the two must
  // give the same hit lists, in the same order.
  const auto matcher = make_matcher("bitset");
  for (std::size_t i = 0; i < filters.size(); ++i) {
    matcher->add(i + 1, filters[i]);
  }
  const int rounds = 2000;
  std::vector<std::vector<SubscriptionId>> loop_hits(events.size());
  const auto loop_start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      loop_hits[i].clear();
      matcher->match(events[i], loop_hits[i]);
      benchmark::DoNotOptimize(loop_hits[i].data());
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
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (batch_hits[i] != loop_hits[i]) {
      std::printf("FAIL: bitset match_batch differs from match on event %zu\n",
                  i);
      return 1;
    }
  }

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
  // resolves through the sorted-bounds / prefix-pattern structures, and
  // each satisfied bound costs only its entry's non-zero words. Measured
  // 5.1-11.2x (median 9.6x, six runs) on a 4-vCPU dev host; the 3x floor
  // is under a third of the median, and dense entry bitmaps (2-3x) fail
  // it.
  {
    reef::util::Rng range_rng(42);
    const auto range_filters = make_range_filters(10000, range_rng);
    std::vector<Event> range_events;
    for (int i = 0; i < 64; ++i) {
      range_events.push_back(make_range_event(range_rng));
    }
    if (!floor_over_brute("range/prefix", range_filters, range_events,
                          /*floor=*/3.0)) {
      return 1;
    }
  }

  // 2d. Suffix/contains workload: tail, substring, and set-membership
  // subscriptions; the in-set slice stays a residual posting evaluated
  // once per distinct symbol. Measured 7.0-8.1x (median 8.0x, six runs)
  // on a 4-vCPU dev host; the floor is 3.5x.
  {
    reef::util::Rng suffix_rng(42);
    const auto suffix_filters = make_suffix_filters(10000, suffix_rng);
    std::vector<Event> suffix_events;
    for (int i = 0; i < 64; ++i) {
      suffix_events.push_back(make_suffix_event(suffix_rng));
    }
    if (!floor_over_brute("suffix/contains", suffix_filters, suffix_events,
                          /*floor=*/3.5)) {
      return 1;
    }
  }

  // 2e. Reef content workload: feed and content subscriptions that all
  // share stream=feed, over ~500-character item texts. The engine holds
  // its floor only while the contains probe is one pass over the text
  // rather than one search per distinct pattern: measured 33-45x (median
  // 39x, six runs) on a 4-vCPU dev host, against 3.3x with one find() per
  // pattern; the floor is 12x.
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
                          /*floor=*/12.0)) {
      return 1;
    }
  }

  // 3. The worker split: a routing table with 3 workers cuts the batch
  // into 4 contiguous ranges over its one engine; its hit lists must be
  // the unsplit table's, byte for byte, hit order included.
  {
    std::vector<std::vector<std::vector<RoutingTable::Destination>>> rows;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      RoutingTable table(
          RoutingTable::Config{.engine = "bitset", .worker_threads = workers});
      for (std::size_t i = 0; i < filters.size(); ++i) {
        table.client_subscribe(1, i + 1, filters[i]);
      }
      table.match_batch(events, rows.emplace_back());
    }
    const auto same = [](const RoutingTable::Destination& a,
                         const RoutingTable::Destination& b) {
      return a.iface == b.iface && a.is_broker == b.is_broker &&
             a.client_sub == b.client_sub;
    };
    bool identical = rows[0].size() == rows[1].size();
    std::size_t total = 0;
    for (std::size_t i = 0; identical && i < rows[0].size(); ++i) {
      identical = std::equal(rows[0][i].begin(), rows[0][i].end(),
                             rows[1][i].begin(), rows[1][i].end(), same);
      total += rows[0][i].size();
    }
    if (!identical) {
      std::printf("FAIL: 3 workers change the routing table's hit lists\n");
      return 1;
    }
    std::printf("  worker split: 0 and 3 workers give identical hit lists "
                "(%zu events, %zu hits)\n",
                events.size(), total);
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
