// End-to-end overlay benchmark: the real Overlay / Broker / Client stack on
// sim::Simulator, single-threaded, driven by an open-loop schedule in sim
// time that is processed as fast as the program can. See README.md for the
// workloads, the metrics and the traced run.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Prints a few "# " lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when the correctness check finds a missed or spurious delivery,
// 2 on bad arguments.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace e2e;

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kMinSetupSeconds = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kProbeBytes = std::size_t{4} << 20;
/// Wall times are scaled to a host on which the probe takes this long,
/// about its time on the development host (README.md, "Host-speed
/// scaling").
constexpr double kProbeReferenceS = 0.020;
constexpr std::size_t kTickSamples = std::size_t{1} << 16;

/// The sim-time metrics (delivery latency, wire bytes) cover the first
/// ticks of the measured phase only, so for one seed they are exact
/// however many ticks a run gets through in its wall time. A window holds
/// from ~800 (sub_churn) to ~100,000 deliveries and ends within the first
/// three seconds of a run on the development host.
std::uint64_t sim_window_ticks(Workload w) {
  switch (w) {
    case Workload::kFeedFanout: return 300;
    case Workload::kPacedSingle: return 2000;
    case Workload::kSubChurn: return 200;
    case Workload::kScoredTopk: return 100;
  }
  return 0;
}

struct Args {
  Workload workload = Workload::kFeedFanout;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "feed_fanout|paced_single|sub_churn|scored_topk --seed <n> "
               "--seconds <s> --trace 0|1 [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The self-rescheduling generator: one queue entry at a time, firing at
/// each tick's sim time whether or not the overlay has caught up.
struct Generator {
  Harness& h;
  Schedule schedule;
  Tick tick;
  bool stop = false;
  bool ran = false;  // step attribution reads and clears this
  std::uint64_t events = 0;
  std::uint64_t ops = 0;

  void fire() {
    if (stop) return;
    ran = true;
    schedule.next(tick);
    events += tick.events.size();
    ops += tick.ops.size();
    h.apply(tick);
    h.sim.at(h.sim.now() + kTick, [this] { fire(); });
  }
};

/// Host-speed probe: a fixed computation that shares no code with the
/// system under test, a dependent multiply chain and a pointer chase
/// through a 4 MiB cycle (twice the L2 cache of the development host). Its
/// time says how fast the shared host runs just then.
double probe_host_s() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(kProbeBytes / sizeof(std::uint32_t));
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    util::Rng rng(0x9a3e);
    rng.shuffle(order);
    std::vector<std::uint32_t> out(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      out[order[i]] = order[(i + 1) % order.size()];
    }
    return out;
  }();
  const double t0 = wall_now();
  std::uint64_t x = 1;
  for (int i = 0; i < 5'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  std::uint32_t at = 0;
  for (int i = 0; i < 400'000; ++i) at = next[at];
  static volatile std::uint64_t sink = 0;
  sink = sink + x + at;
  return wall_now() - t0;
}

/// Converts wall time measured after a probe of `probe_s` into time at
/// the reference host speed.
double host_scale(double probe_s) { return kProbeReferenceS / probe_s; }

/// What run_ticks measured after its warm-up. Tick times are kept raw and
/// scaled to the reference host speed by the latest probe.
struct Windows {
  double wall_s = 0.0;  // excluding host probes
  double scaled_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  Reservoir tick_us{kTickSamples};
  Reservoir scaled_tick_us{kTickSamples};
  std::vector<double> probe_s;
};

/// The sim-time window of the measured phase: its first ticks. Closing it
/// stops the latency histogram and takes the traffic and deliveries.
struct SimWindow {
  sim::Time end = 0;  // first sim time after the window
  bool closed = false;
  TrafficDelta base;
  TrafficDelta traffic;
  std::uint64_t deliveries = 0;
};

/// Runs the schedule one tick (a 1 ms sim window, one run_until call) at a
/// time, timing each, for `warmup` plus `seconds` of wall time. Ticks of
/// the warm-up are not counted: the overlay is still filling up with
/// in-flight events. The host is probed once a second.
Windows run_ticks(Harness& h, const Generator& gen, double warmup,
                  double seconds, SimWindow* window = nullptr) {
  Windows out;
  out.probe_s.push_back(probe_host_s());
  double scale = host_scale(out.probe_s.back());
  double now = wall_now();
  const double measure_from = now + warmup;
  double deadline = measure_from + seconds;
  double next_probe = now + kProbeSeconds;
  bool warm = warmup <= 0.0;
  std::uint64_t events0 = gen.events;
  std::uint64_t ops0 = gen.ops;
  while (now < deadline) {
    const sim::Time until = ((h.sim.now() + 1) / kTick + 1) * kTick - 1;
    h.sim.run_until(until);
    const double t = wall_now();
    if (warm) {
      out.tick_us.add((t - now) * 1e6);
      out.scaled_tick_us.add((t - now) * scale * 1e6);
      ++out.ticks;
      out.wall_s += t - now;
      out.scaled_s += (t - now) * scale;
    } else if (t >= measure_from) {
      warm = true;
      events0 = gen.events;
      ops0 = gen.ops;
    }
    now = t;
    if (window != nullptr && !window->closed && until + 1 >= window->end) {
      window->closed = true;
      window->traffic = traffic_since(h.net, window->base);
      window->deliveries = h.log.deliveries;
      h.log.latency_open = false;
    }
    if (now >= next_probe) {
      out.probe_s.push_back(probe_host_s());
      scale = host_scale(out.probe_s.back());
      const double after = wall_now();
      deadline += after - now;
      next_probe = after + kProbeSeconds;
      now = after;
    }
  }
  out.events = gen.events - events0;
  out.ops = gen.ops - ops0;
  return out;
}

/// Runs the schedule one Simulator::step() at a time for `seconds`,
/// charging each step to the layer it ran (see README.md). Returns the
/// wall time.
double run_steps(Harness& h, Generator& gen, sim::Time start, double seconds,
                 Spans& spans, std::uint64_t& steps) {
  const double begin = wall_now();
  const double deadline = begin + seconds;
  double end = begin;
  std::uint64_t control = h.broker_control_received();
  while (end < deadline) {
    const std::uint64_t received = h.broker_messages_received();
    h.log.handler_ran = false;
    gen.ran = false;
    const double t0 = wall_now();
    h.sim.step();
    end = wall_now();
    const auto tick = static_cast<std::uint64_t>((h.sim.now() - start) / kTick);
    const char* layer = "broker.flush_timer";
    if (h.broker_messages_received() != received) {
      layer = "broker.handle_message";
      // Subscription traffic changes a control counter; only broker steps
      // can, so the sum is taken only after them.
      if (const std::uint64_t now = h.broker_control_received();
          now != control) {
        control = now;
        spans.add("broker.handle_control", t0, end, tick);
      }
    } else if (h.log.handler_ran) {
      layer = "client.deliver";
    } else if (gen.ran) {
      layer = "client.publish";
    }
    spans.add(layer, t0, end, tick);
    ++steps;
  }
  return end - begin;
}

/// Peak resident memory of this process, less the host probe's buffer.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double kib = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
  return (kib - static_cast<double>(kProbeBytes / 1024)) / 1024.0;
}

/// Publish-path wire traffic: publications and deliveries.
bool event_path(const std::string& type) {
  return type == pubsub::kTypePublish || type == pubsub::kTypePublishBatch ||
         type == pubsub::kTypeDeliver || type == pubsub::kTypeDeliverBatch;
}

std::uint64_t sum_event_path(const std::map<std::string, std::uint64_t>& m) {
  std::uint64_t total = 0;
  for (const auto& [type, n] : m) {
    if (event_path(type)) total += n;
  }
  return total;
}

std::uint64_t sum_all(const std::map<std::string, std::uint64_t>& m) {
  std::uint64_t total = 0;
  for (const auto& [type, n] : m) total += n;
  return total;
}

class Output {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Prints the result line; returns the process exit code.
  int finish(const CheckResult& check) const {
    const std::uint64_t failed = check.missed + check.spurious;
    const bool correct = failed == 0 && check.checked > 0;
    std::printf("# delivery_errors=%llu (missed %llu, spurious %llu) of "
                "%llu checked deliveries\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(check.missed),
                static_cast<unsigned long long>(check.spurious),
                static_cast<unsigned long long>(check.checked));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    check.checked, 1)),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

/// First tick of the measured phase: past the settled set-up, and far
/// enough after the population was issued (sim time 0) that the check's
/// race margin never excuses a set-up subscription.
sim::Time phase_start(const Harness& h) {
  return (h.sim.now() / kTick + 1) * kTick + 100 * sim::kMillisecond;
}

/// Nearest-rank latency percentile q (0..1] of the histogram, in sim ms.
double latency_ms(const DeliveryLog& log, double q) {
  std::uint64_t total = 0;
  for (const auto& [lat, n] : log.latency) total += n;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (const auto& [lat, n] : log.latency) {
    seen += n;
    if (seen >= rank) return static_cast<double>(lat) / 1000.0;
  }
  return 0.0;
}

double latency_mean_ms(const DeliveryLog& log) {
  double sum = 0.0;
  std::uint64_t total = 0;
  for (const auto& [lat, n] : log.latency) {
    sum += static_cast<double>(lat) * static_cast<double>(n);
    total += n;
  }
  return ratio(sum, static_cast<double>(total)) / 1000.0;
}

int run_untraced(const Args& args, const Inputs& in) {
  // Set up several times and report the median; cheap set-ups (scored_topk
  // settles in ~20 ms) repeat until a second has passed, for a stable one.
  std::vector<double> setup_s;
  std::vector<double> scaled_setup_s;
  std::vector<double> setup_probe_s{probe_host_s()};
  double setup_total = 0.0;
  std::unique_ptr<Harness> h;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kMinSetupSeconds && setup_s.size() < kMaxSetups)) {
    h.reset();
    const double t0 = wall_now();
    h = std::make_unique<Harness>(in);
    h->settle();
    setup_s.push_back(wall_now() - t0);
    setup_total += setup_s.back();
    setup_probe_s.push_back(probe_host_s());
    // The host speed of a set-up: the mean of the probes around it.
    const double probe =
        (setup_probe_s.back() + setup_probe_s[setup_probe_s.size() - 2]) / 2;
    scaled_setup_s.push_back(setup_s.back() * host_scale(probe));
  }

  const sim::Time start = phase_start(*h);
  h->sim.run_until(start - 1);
  Generator gen{*h, Schedule(in, start), {}};
  h->sim.at(start, [&gen] { gen.fire(); });
  SimWindow window;
  window.end = start + static_cast<sim::Time>(sim_window_ticks(in.workload)) *
                           kTick;
  window.base = traffic_now(h->net);

  const Windows m = run_ticks(*h, gen, kWarmupSeconds, args.seconds, &window);
  // A run too slow to get through the sim window finishes it untimed.
  while (!window.closed) run_ticks(*h, gen, 0.0, kProbeSeconds, &window);
  gen.stop = true;
  h->settle();
  const CheckResult check = check_deliveries(*h, start, gen.schedule.ticks());

  std::vector<double> probe_s = m.probe_s;
  probe_s.insert(probe_s.end(), setup_probe_s.begin(), setup_probe_s.end());
  std::uint64_t window_deliveries = 0;
  for (const auto& [lat, n] : h->log.latency) window_deliveries += n;
  std::printf("# workload=%s seed=%llu seconds=%g trace=0\n",
              workload_name(in.workload),
              static_cast<unsigned long long>(in.seed), args.seconds);
  std::printf("# inputs: %zu browsing visits by %zu users; %zu subscriptions "
              "(%zu table entries), %zu churn subscribes; %zu items of %zu "
              "watched feeds\n",
              in.visits, kClients, in.population.size(),
              h->overlay.total_table_size(), in.fresh.size(), in.items.size(),
              in.watched_feeds);
  std::printf("# host probe: %zu runs, median %.3f ms (min %.3f, max %.3f); "
              "scaled to %.3f ms\n",
              probe_s.size(), median(probe_s) * 1e3,
              *std::min_element(probe_s.begin(), probe_s.end()) * 1e3,
              *std::max_element(probe_s.begin(), probe_s.end()) * 1e3,
              kProbeReferenceS * 1e3);
  std::printf("# set-up: %zu times, raw median %g s (min %g, max %g)\n",
              setup_s.size(), median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  std::printf("# measured %llu ticks after a %g s warm-up, %.3f s raw: %llu "
              "events (raw %.1f/s), %llu subscription ops (sub_ops_per_s "
              "%.2f, raw %.2f)\n",
              static_cast<unsigned long long>(m.ticks), kWarmupSeconds,
              m.wall_s, static_cast<unsigned long long>(m.events),
              ratio(m.events, m.wall_s), static_cast<unsigned long long>(m.ops),
              ratio(m.ops, m.scaled_s), ratio(m.ops, m.wall_s));
  std::printf("# tick_wall_us raw: p50 %.1f p90 %.1f p99 %.1f max %.1f; "
              "scaled p90 %.1f (%zu of %llu ticks sampled)\n",
              m.tick_us.percentile(50.0), m.tick_us.percentile(90.0),
              m.tick_us.percentile(99.0), m.tick_us.percentile(100.0),
              m.scaled_tick_us.percentile(90.0), m.tick_us.kept(),
              static_cast<unsigned long long>(m.ticks));
  std::printf("# sim window (first %llu ticks): %llu deliveries, "
              "deliver_latency_sim_ms p50 %g p99 %g max %g\n",
              static_cast<unsigned long long>(sim_window_ticks(in.workload)),
              static_cast<unsigned long long>(window_deliveries),
              latency_ms(h->log, 0.50), latency_ms(h->log, 0.99),
              latency_ms(h->log, 1.0));

  Output out;
  out.metric("setup_s", median(scaled_setup_s), "s");
  out.metric("events_per_s", ratio(m.events, m.scaled_s), "1/s");
  out.metric("tick_wall_us_p50", m.scaled_tick_us.percentile(50.0), "us");
  out.metric("tick_wall_us_p99", m.scaled_tick_us.percentile(99.0), "us");
  out.metric("deliver_latency_sim_ms_mean", latency_mean_ms(h->log), "ms");
  out.metric("wire_bytes_per_delivery",
             ratio(sum_event_path(window.traffic.bytes), window.deliveries),
             "B");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out.finish(check);
}

void write_chrome_trace(const std::string& path, const Spans& spans,
                        double origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return;
  }
  std::map<std::string, int> tid;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const TraceSpan& s : spans.full()) {
    const int t = tid.emplace(s.name, static_cast<int>(tid.size()) + 1)
                      .first->second;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu}}",
                 first ? "" : ",\n", s.name.c_str(), t,
                 (s.start_s - origin) * 1e6, s.dur_s * 1e6,
                 static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int run_traced(const Args& args, const Inputs& in) {
  const double origin = wall_now();
  Harness h(in);
  h.settle();
  const sim::Time start = phase_start(h);
  h.sim.run_until(start - 1);
  Generator gen{h, Schedule(in, start), {}};
  h.sim.at(start, [&gen] { gen.fire(); });
  // Warm up until events are in flight everywhere, so both halves below
  // start and end in the steady state.
  run_ticks(h, gen, kWarmupSeconds, 0.0);

  // Traced half: step attribution.
  Spans spans;
  spans.keep_full(!args.trace_out.empty());
  const TrafficDelta base = traffic_now(h.net);
  const std::uint64_t first_tick = gen.schedule.ticks();
  const std::uint64_t events0 = gen.events;
  const std::uint64_t deliveries0 = h.log.deliveries;
  std::uint64_t steps = 0;
  const double traced_s =
      run_steps(h, gen, start, args.seconds / 2, spans, steps);
  const std::uint64_t end_tick = gen.schedule.ticks();
  const std::uint64_t traced_ticks = end_tick - first_tick;
  const std::uint64_t traced_events = gen.events - events0;
  const std::uint64_t traced_deliveries = h.log.deliveries - deliveries0;
  const TrafficDelta traffic = traffic_since(h.net, base);

  // Untraced half on the same state: the tracing overhead.
  const Windows windows = run_ticks(h, gen, 0.0, args.seconds / 2);
  const std::uint64_t untraced_ticks = windows.ticks;
  gen.stop = true;
  h.settle();
  const CheckResult check = check_deliveries(h, start, gen.schedule.ticks());

  // Replays. Matching samples every 4th bundle of the publish workloads
  // (their totals are scaled back up) to keep the run short.
  ReplayCounts counts;
  const std::uint64_t stride = in.workload == Workload::kSubChurn ? 1 : 4;
  const std::uint64_t period = bundle_period(in.workload);
  const std::uint64_t bundles =
      (end_tick + period - 1) / period - (first_tick + period - 1) / period;
  const double scale = ratio(
      bundles,
      replay_matching(h, first_tick, end_tick, stride, spans, counts));
  replay_control(in, end_tick, spans, counts);
  const double send_ns = replay_network(traffic);
  if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, spans, origin);

  const SpanStats& handle = spans.get("broker.handle_message");
  const SpanStats& control = spans.get("broker.handle_control");
  const SpanStats& flush = spans.get("broker.flush_timer");
  const SpanStats& deliver = spans.get("client.deliver");
  const SpanStats& publish = spans.get("client.publish");
  const SpanStats& matcher = spans.get("matcher.match_batch");
  const SpanStats& table = spans.get("routing_table.match_batch");
  const SpanStats& scored = spans.get("routing_table.match_batch_scored");
  const SpanStats& refresh = spans.get("routing_table.refresh");
  const SpanStats& update = spans.get("routing_table.update");
  const double step_s =
      handle.total_s + flush.total_s + deliver.total_s + publish.total_s;
  const double matcher_s = matcher.total_s * scale;
  const double table_s = table.total_s * scale;
  const double scored_s = scored.total_s * scale;
  const double live_match_s =
      in.workload == Workload::kScoredTopk ? scored_s : table_s;
  const double msgs = static_cast<double>(sum_all(traffic.messages));

  std::printf("# workload=%s seed=%llu seconds=%g trace=1\n",
              workload_name(in.workload),
              static_cast<unsigned long long>(in.seed), args.seconds);
  std::printf("# traced %llu ticks, %llu steps in %.3f s; untraced %llu "
              "ticks in %.3f s\n",
              static_cast<unsigned long long>(traced_ticks),
              static_cast<unsigned long long>(steps), traced_s,
              static_cast<unsigned long long>(untraced_ticks), windows.wall_s);
  std::printf("# replayed %llu event hops, %llu control ops\n",
              static_cast<unsigned long long>(counts.event_hops),
              static_cast<unsigned long long>(counts.ctrl_ops));
  pubsub::Broker::Stats stats;
  for (std::size_t i = 0; i < kBrokers; ++i) {
    const pubsub::Broker::Stats s = h.overlay.broker(i).stats();
    stats.scored_matches += s.scored_matches;
    stats.suppressed_by_k += s.suppressed_by_k;
    stats.flushed_units += s.flushed_units;
    stats.residence_ticks_total += s.residence_ticks_total;
  }
  std::printf("# scoring.scored_matches=%llu scoring.suppressed_ratio=%g "
              "broker.residence_sim_ms_mean=%g (whole run)\n",
              static_cast<unsigned long long>(stats.scored_matches),
              ratio(stats.suppressed_by_k, stats.scored_matches),
              ratio(stats.residence_ticks_total, stats.flushed_units) / 1e3);

  Output out;
  out.metric("matcher.match_batch_s", matcher_s, "s");
  out.metric("matcher.match_batch_ns_per_event",
             ratio(matcher.total_s * 1e9, counts.event_hops), "ns");
  out.metric("matcher.hits_per_event",
             ratio(counts.matcher_hits, counts.event_hops), "count");
  out.metric("routing_table.match_batch_s", table_s, "s");
  out.metric("routing_table.translate_s", table_s - matcher_s, "s");
  out.metric("routing_table.refresh_s", refresh.total_s, "s");
  out.metric("routing_table.refresh_calls", refresh.calls, "count");
  out.metric("routing_table.refresh_us_p50",
             refresh.durations.percentile(50.0) * 1e6, "us");
  out.metric("routing_table.refresh_us_p99",
             refresh.durations.percentile(99.0) * 1e6, "us");
  out.metric("routing_table.update_s", update.total_s, "s");
  out.metric("routing_table.ctrl_msgs_per_op",
             ratio(counts.ctrl_msgs, counts.ctrl_ops), "count");
  out.metric("routing_table.entries", counts.entries, "count");
  out.metric("routing_table.maintain_runs", counts.maintain_runs, "count");
  out.metric("scoring.score_s", scored_s - table_s, "s");
  out.metric("broker.handle_message_s", handle.total_s, "s");
  out.metric("broker.handle_message_calls", handle.calls, "count");
  out.metric("broker.handle_message_us_p99",
             handle.durations.percentile(99.0) * 1e6, "us");
  out.metric("broker.route_enqueue_s",
             handle.total_s - control.total_s - live_match_s, "s");
  out.metric("broker.events_per_wire_msg",
             ratio(sum_event_path(traffic.units),
                   sum_event_path(traffic.messages)),
             "count");
  out.metric("broker.flush_timer_s", flush.total_s, "s");
  out.metric("broker.flush_timer_calls", flush.calls, "count");
  out.metric("client.deliver_s", deliver.total_s, "s");
  out.metric("client.deliver_ns_per_delivery",
             ratio(deliver.total_s * 1e9, traced_deliveries), "ns");
  out.metric("client.publish_s", publish.total_s, "s");
  out.metric("network.send_ns_per_msg", send_ns, "ns");
  out.metric("network.msgs_per_event", ratio(msgs, traced_events), "count");
  out.metric("sim.steps_per_event", ratio(steps, traced_events), "count");
  out.metric("trace.coverage", ratio(step_s, traced_s), "ratio");
  out.metric("trace.overhead",
             ratio(ratio(traced_s, traced_ticks),
                   ratio(windows.wall_s, untraced_ticks)) -
                 1.0,
             "ratio");
  return out.finish(check);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Build the probe's buffer now, so that generating the inputs evicts it
  // from the caches and the first timed probe meets it as every later one
  // does.
  probe_host_s();
  const Inputs inputs(args.workload, args.seed);
  // Set-up and run happen in a child forked once the inputs exist and the
  // memory their generation used went back to the system, so peak_rss_mb
  // is the peak of the system under test, not of simulating the users'
  // browsing and harvesting feed items.
  malloc_trim(0);
  std::fflush(stdout);
  const pid_t parent = getpid();
  const pid_t child = fork();
  if (child < 0) {
    std::perror("bench_e2e: fork");
    return 1;
  }
  if (child == 0) {
    // Die with the parent, for instance when a timeout kills it.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      std::_Exit(1);
    }
    const int code =
        args.trace ? run_traced(args, inputs) : run_untraced(args, inputs);
    std::fflush(stdout);
    std::_Exit(code);
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) return 1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
