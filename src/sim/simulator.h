// Discrete-event simulation kernel.
//
// A Simulator owns a time-ordered queue of callbacks. Components schedule
// work with `at` / `after` / `every`; the experiment driver advances the
// clock with `run_until`. Events scheduled for the same instant run in
// scheduling order (a strict total order makes every run deterministic).
//
// Two guarantees protocol code builds on:
//   - Same-instant FIFO: `after(0, fn)` runs fn at the *current* instant,
//     after every callback already queued for it. The broker's per-tick
//     flush (Broker::Config::flush_max_delay_ticks = 0) uses this to see
//     every arrival of the tick before cutting wire messages.
//   - Intra-tick emission: a callback may schedule more work (including
//     zero-delay sends) for the instant it is running in; the queue is
//     live. Control-op sends from inside handle_message (a broker's
//     resync reply, the reliable channel's acks) go out this way.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace reef::sim {

/// Handle for cancelling a periodic timer created with `every`.
using TimerId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `when`. Scheduling in the past (or at
  /// the current instant) runs at the current time, after already-queued
  /// events for that time.
  void at(Time when, std::function<void()> fn);

  /// Schedules `fn` after a relative delay (>= 0).
  void after(Time delay, std::function<void()> fn) {
    at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedules `fn` to run first at `first` and then every `period`
  /// thereafter until cancelled. Requires period > 0.
  TimerId every(Time first, Time period, std::function<void()> fn);

  /// Cancels a periodic timer. Safe to call from inside the timer callback
  /// and idempotent.
  void cancel(TimerId id) { cancelled_.insert(id); }

  /// Runs the single earliest event. Returns false if the queue is empty.
  bool step();

  /// Runs every event with time <= `until`, then sets now() = until.
  /// Returns the number of events executed. This is the normal driver for
  /// experiments (periodic timers never drain, so `run_until` bounds them).
  std::size_t run_until(Time until);

  /// Runs until the queue is empty. Only valid when no periodic timers are
  /// live; the `max_events` guard turns runaway schedules into an error.
  std::size_t run(std::size_t max_events = 100'000'000);

  /// Number of events currently queued (cancelled periodic firings still
  /// count until they surface).
  std::size_t pending() const noexcept { return queue_.size(); }

  /// Total events executed over the simulator's lifetime.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;  // tie-break: FIFO within an instant
    std::function<void()> fn;
    TimerId timer = 0;  // nonzero for periodic entries
    Time period = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void execute(Entry entry);

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<TimerId> cancelled_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  TimerId next_timer_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace reef::sim
