#pragma once

// Wall-clock instrumentation the benchmark wraps around the stack's public
// API. Nothing here reaches inside src/: every number is a steady_clock
// reading taken around a call into one layer, or inside the benchmark's own
// journal sink, which the QRM calls synchronously at each lifecycle event.

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "hpcqc/sched/journal.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact nearest-rank percentile: the smallest sample with at least q*n
/// samples at or below it (rank ceil(q*n), 1-based); 0 without samples.
double nearest_rank(std::vector<double> values, double q);

/// Median by the same nearest-rank rule (rank ceil(n/2)).
inline double median(std::vector<double> values) {
  return nearest_rank(std::move(values), 0.5);
}

/// One device dispatch seen by the probe: the wall time from the QRM's
/// kDispatched event to its next event (or to the return of the
/// advance_to/drain call that dispatched it), which covers the synchronous
/// compile_parametric/execute call.
struct Dispatch {
  int device = -1;
  int id = 0;
  double seconds = 0.0;
};

/// Benchmark-owned journal sink. It measures dispatch cost from the event
/// stream and forwards every event to the real journal, when the workload
/// has one, timing that forwarding as store work.
class LayerProbe final : public hpcqc::sched::JournalSink {
public:
  explicit LayerProbe(hpcqc::sched::JournalSink* inner) : inner_(inner) {}

  void on_event(const hpcqc::sched::JobEvent& event) override {
    const Clock::time_point entered = Clock::now();
    close_dispatch(entered);
    if (inner_ != nullptr) inner_->on_event(event);
    const Clock::time_point forwarded = forwarded_at(entered);
    if (event.kind == hpcqc::sched::JobEvent::Kind::kDispatched) {
      open_ = true;
      opened_at_ = forwarded;
      pending_.device = event.device;
      pending_.id = event.id;
    }
  }

  void on_fleet_event(const hpcqc::sched::FleetEvent& event) override {
    const Clock::time_point entered = Clock::now();
    close_dispatch(entered);
    if (inner_ != nullptr) inner_->on_fleet_event(event);
    forwarded_at(entered);
  }

  /// Ends an open dispatch; call when advance_to/drain returns.
  void call_returned() { close_dispatch(Clock::now()); }

  double dispatch_seconds() const { return dispatch_s_; }
  double journal_seconds() const { return journal_s_; }
  std::uint64_t journal_events() const { return journal_events_; }
  const std::vector<Dispatch>& dispatches() const { return dispatches_; }

private:
  Clock::time_point forwarded_at(Clock::time_point entered) {
    if (inner_ == nullptr) return entered;
    const Clock::time_point done = Clock::now();
    journal_s_ += seconds_between(entered, done);
    journal_events_ += 1;
    return done;
  }

  void close_dispatch(Clock::time_point at) {
    if (!open_) return;
    open_ = false;
    pending_.seconds = seconds_between(opened_at_, at);
    dispatch_s_ += pending_.seconds;
    dispatches_.push_back(pending_);
  }

  hpcqc::sched::JournalSink* inner_;
  bool open_ = false;
  Clock::time_point opened_at_{};
  Dispatch pending_;
  std::vector<Dispatch> dispatches_;
  double dispatch_s_ = 0.0;
  double journal_s_ = 0.0;
  std::uint64_t journal_events_ = 0;
};

}  // namespace perfbench
