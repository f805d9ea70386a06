// Wall-clock helpers for the end-to-end benchmark: a steady clock, exact
// percentiles, and in-memory span aggregation per layer name. Span
// durations are kept in a fixed-size reservoir, so memory stays bounded
// however long a run lasts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace e2e {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 100]) of `samples`; sorts in place.
inline double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples.size())));
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

inline double median(std::vector<double> samples) {
  return percentile(samples, 50.0);
}

/// Uniform fixed-size sample of a stream (Algorithm R, seeded so two runs
/// keep the same positions).
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 8192) : capacity_(capacity) {}

  void add(double value) {
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(value);
      return;
    }
    const std::uint64_t slot = rng_.uniform_u64(0, seen_ - 1);
    if (slot < capacity_) kept_[slot] = value;
  }
  double percentile(double q) const {
    std::vector<double> copy = kept_;
    return e2e::percentile(copy, q);
  }
  std::size_t kept() const noexcept { return kept_.size(); }

 private:
  std::size_t capacity_;
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  reef::util::Rng rng_{0x5a3b1e};
};

struct SpanStats {
  double total_s = 0.0;
  std::uint64_t calls = 0;
  Reservoir durations;  // seconds

  void add(double seconds) {
    total_s += seconds;
    ++calls;
    durations.add(seconds);
  }
};

/// A span kept in full for the Chrome trace-event output.
struct TraceSpan {
  std::string name;
  double start_s = 0.0;  // wall clock
  double dur_s = 0.0;
  std::uint64_t id = 0;  // tick, bundle or op index: shared by its spans
};

/// Per-name span aggregation plus the sampled full spans.
class Spans {
 public:
  /// Records one span. `id` is the bundle/op/tick it belongs to; every
  /// 100th id is also kept in full when a trace file was requested.
  void add(const std::string& name, double start_s, double end_s,
           std::uint64_t id) {
    stats_[name].add(end_s - start_s);
    if (keep_full_ && id % 100 == 0) {
      full_.push_back({name, start_s, end_s - start_s, id});
    }
  }
  const SpanStats& get(const std::string& name) {
    return stats_[name];
  }
  void keep_full(bool on) { keep_full_ = on; }
  const std::vector<TraceSpan>& full() const noexcept { return full_; }

 private:
  std::map<std::string, SpanStats> stats_;
  std::vector<TraceSpan> full_;
  bool keep_full_ = false;
};

}  // namespace e2e
