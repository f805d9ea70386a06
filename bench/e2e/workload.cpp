#include "workload.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "feeds/feed_events_proxy.h"
#include "feeds/feed_service.h"
#include "pubsub/constraint.h"
#include "reef/content_recommender.h"
#include "reef/topic_recommender.h"
#include "web/topic_model.h"
#include "web/web.h"
#include "workload/browsing.h"

namespace e2e {

namespace {

// The Web and its feeds are those of bench_recommendation_rate, the §6
// experiment that reproduces "one new feed recommendation per user per
// day": ReefExperiment's component seeds under its master seed 2006. The
// world is fixed; --seed draws the users, their browsing, and so their
// subscriptions and the items of the feeds they watch.
constexpr std::uint64_t kWorldSeed = 2006;
// The population is the first kPopulationFeeds feed recommendations the
// users receive plus kContentTerms content subscriptions per user: 720
// subscriptions and ~4,400 routing-table entries. Set-up cost grows with
// the square of the table and a subscription operation with its size;
// this size keeps a set-up near 1.5 s and lets sub_churn perform ~150
// operations per second on the development host, so that a run has set-up
// repetitions and enough ticks for a 99th percentile. A fixed count,
// rather than a cut-off time, keeps the input size the same for every
// seed. The recommendations after those are sub_churn's fresh
// subscriptions; kBrowsingDays of browsing yield about two thousand.
constexpr std::size_t kPopulationFeeds = 480;
constexpr double kBrowsingDays = 2.0;
// Content subscriptions per user: the top term of the content query built
// from the first kContentPages pages the user visits.
constexpr std::size_t kContentTerms = 1;
constexpr std::size_t kContentPages = 20;
// scored_topk: BM25 query terms of the broad subscription, its k, and the
// plain feed subscriptions each user keeps beside it (its first ones).
// The broad subscription scores the item title: FeedItem::terms is title
// plus summary, and the first kTitleTerms terms stand for the title.
// (Scoring the whole 30-90 term text makes tokenizing it per subscription
// and event all of the run.)
constexpr std::size_t kScoredQueryTerms = 3;
constexpr std::size_t kTitleTerms = 8;
constexpr std::uint32_t kTopK = 4;
constexpr std::size_t kScoredFeedSubs = 2;
// Feed items harvested from the proxy's polls; published cyclically.
constexpr std::size_t kItems = 4096;

constexpr const char* kStream = "feed";

/// The users' browsing turned into subscriptions by the recommenders.
struct Recommended {
  std::vector<SubSpec> feeds;    // feed_filter()s, in recommendation order
  std::vector<SubSpec> content;  // contains(text, term), one per user
  std::vector<SubSpec> scored;   // scored_topk's broad BM25 subs
  std::size_t visits = 0;
};

Recommended recommend(const web::SyntheticWeb& web, std::uint64_t seed) {
  workload::BrowsingGenerator::Config config;
  config.users = kClients;
  config.days = kBrowsingDays;
  // Ad requests carry no feeds and no content; the recommenders skip them.
  config.ads_per_content_click = 0.0;
  config.seed = util::Rng(seed).fork(1)();
  workload::BrowsingGenerator browsing(web, config);
  const std::vector<workload::Visit> trace = browsing.generate_trace();

  core::TopicRecommender topic;
  core::ContentRecommender::Config content_config;
  content_config.diversity_sample = 0;  // no build_query_diverse here
  core::ContentRecommender content(content_config);
  Recommended out;
  out.visits = trace.size();
  for (const workload::Visit& visit : trace) {
    const web::Site* site = web.find_site(visit.uri.host());
    if (site == nullptr) continue;
    topic.on_click(visit.user, visit.uri);
    if (!site->feed_urls.empty()) {
      topic.on_feeds_found(visit.user, site->host, site->feed_urls);
    }
    for (core::Recommendation& rec : topic.take(visit.user)) {
      out.feeds.push_back(
          {visit.user, std::move(rec.filter), {}, std::move(rec.feed_url)});
    }
    if (content.pages_seen(visit.user) < kContentPages) {
      if (const auto page = web.fetch(visit.uri)) {
        content.add_page(visit.user, page->terms);
      }
    }
  }
  for (std::size_t u = 0; u < kClients; ++u) {
    const auto user = static_cast<attention::UserId>(u);
    for (core::Recommendation& rec :
         content.content_subscriptions(user, kStream, kContentTerms)) {
      out.content.push_back({u, std::move(rec.filter), {}, {}});
    }
    SubSpec scored;
    scored.client = u;
    scored.filter = pubsub::Filter().and_(pubsub::eq("stream", kStream));
    scored.scoring.policy = pubsub::ScoringPolicy::kBm25;
    scored.scoring.query = content.build_query(user, kScoredQueryTerms);
    scored.scoring.text_attrs = {"title"};
    scored.scoring.top_k = kTopK;
    out.scored.push_back(std::move(scored));
  }
  return out;
}

/// What the FeedEvents proxy publishes for the watched feeds: every poll
/// cycle's new items, cycle after cycle, until there are kItems.
std::vector<pubsub::Event> harvest(feeds::FeedService& service,
                                   const std::vector<std::string>& watched,
                                   bool with_title) {
  std::map<std::string, std::uint64_t> last_seq;
  for (const std::string& url : watched) {
    last_seq[url] = service.poll(url, ~0ULL, 0).latest_seq;
  }
  const sim::Time interval = feeds::FeedEventsProxy::Config{}.poll_interval;
  std::vector<pubsub::Event> items;
  for (sim::Time now = interval; items.size() < kItems; now += interval) {
    for (auto& [url, last] : last_seq) {
      const feeds::PollResult result = service.poll(url, last, now);
      last = result.latest_seq;
      const std::string host = util::Uri::parse(url)->host();
      for (const feeds::FeedItem& item : result.items) {
        pubsub::Event event = feeds::make_feed_event(item, host);
        if (with_title) {
          std::string title;
          for (std::size_t i = 0; i < std::min(kTitleTerms, item.terms.size());
               ++i) {
            if (i != 0) title += ' ';
            title += item.terms[i];
          }
          event.with("title", std::move(title));
        }
        items.push_back(std::move(event));
      }
    }
  }
  return items;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kFeedFanout, Workload::kPacedSingle,
                           Workload::kSubChurn, Workload::kScoredTopk}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFeedFanout: return "feed_fanout";
    case Workload::kPacedSingle: return "paced_single";
    case Workload::kSubChurn: return "sub_churn";
    case Workload::kScoredTopk: return "scored_topk";
  }
  return "?";
}

std::size_t bundle_size(Workload w) {
  switch (w) {
    case Workload::kFeedFanout: return 32;
    case Workload::kPacedSingle: return 1;
    case Workload::kSubChurn: return 4;
    case Workload::kScoredTopk: return 32;
  }
  return 0;
}

std::size_t bundle_period(Workload w) {
  return w == Workload::kSubChurn ? 10 : 1;
}

Inputs::Inputs(Workload w, std::uint64_t seed_) : workload(w), seed(seed_) {
  web::TopicModel::Config topic_config;
  topic_config.seed = kWorldSeed ^ 0x7091c;
  web::SyntheticWeb::Config web_config;
  web_config.seed = kWorldSeed ^ 0x3eb;
  feeds::FeedService::Config feed_config;
  feed_config.seed = kWorldSeed ^ 0xfeed;
  const web::TopicModel topics(topic_config);
  const web::SyntheticWeb web(topics, web_config);
  feeds::FeedService service(web, feed_config);

  Recommended rec = recommend(web, seed);
  visits = rec.visits;
  if (w == Workload::kScoredTopk) {
    std::vector<std::size_t> kept(kClients, 0);
    for (std::size_t u = 0; u < kClients; ++u) {
      population.push_back(std::move(rec.scored[u]));
    }
    for (SubSpec& spec : rec.feeds) {
      if (kept[spec.client]++ < kScoredFeedSubs) {
        population.push_back(std::move(spec));
      }
    }
  } else {
    const std::size_t n = std::min(kPopulationFeeds, rec.feeds.size());
    for (std::size_t i = 0; i < n; ++i) {
      population.push_back(std::move(rec.feeds[i]));
    }
    for (SubSpec& spec : rec.content) population.push_back(std::move(spec));
    if (w == Workload::kSubChurn) {
      fresh.assign(std::make_move_iterator(rec.feeds.begin() + n),
                   std::make_move_iterator(rec.feeds.end()));
    }
  }

  std::vector<std::string> watched;
  for (const auto* subs : {&population, &fresh}) {
    for (const SubSpec& spec : *subs) {
      if (!spec.feed_url.empty()) watched.push_back(spec.feed_url);
    }
  }
  std::sort(watched.begin(), watched.end());
  watched.erase(std::unique(watched.begin(), watched.end()), watched.end());
  watched_feeds = watched.size();
  items = harvest(service, watched, w == Workload::kScoredTopk);
}

Schedule::Schedule(const Inputs& inputs, sim::Time start)
    : in_(inputs),
      start_(start),
      victim_rng_(util::Rng(inputs.seed).fork(2)),
      next_handle_(inputs.population.size()) {
  if (in_.workload == Workload::kSubChurn) {
    for (std::uint64_t h = 0; h < in_.population.size(); ++h) {
      if (!in_.population[h].feed_url.empty()) live_.push_back(h);
    }
  }
}

void Schedule::next(Tick& out) {
  out.events.clear();
  out.ops.clear();
  const sim::Time now = start_ + static_cast<sim::Time>(tick_) * kTick;
  if (tick_ % bundle_period(in_.workload) == 0) {
    for (std::size_t i = 0; i < bundle_size(in_.workload); ++i) {
      pubsub::Event event = in_.items[next_seq_ % in_.items.size()];
      event.with(kSeqAttr, static_cast<std::int64_t>(next_seq_++))
          .with(kTsAttr, static_cast<std::int64_t>(now));
      out.events.push_back(std::move(event));
    }
  }
  if (in_.workload == Workload::kSubChurn) {
    // One feed recommendation subscribed and one random live feed
    // subscription retracted per tick, as the topic recommender's closed
    // loop retracts ignored feeds: the live population, and so the cost of
    // an operation, stays stationary however many ticks a run gets
    // through. Content subscriptions do not churn.
    SubOp unsub;
    unsub.subscribe = false;
    const std::size_t victim = victim_rng_.index(live_.size());
    unsub.handle = live_[victim];
    live_[victim] = live_.back();
    live_.pop_back();
    SubOp sub;
    sub.handle = next_handle_++;
    sub.spec = in_.fresh[(sub.handle - in_.population.size()) %
                         in_.fresh.size()];
    live_.push_back(sub.handle);
    out.ops.push_back(std::move(sub));
    out.ops.push_back(std::move(unsub));
  }
  ++tick_;
}

}  // namespace e2e
