#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hpcqc::mqss {

/// Fixed pool of compile workers draining a MPMC work queue. The farm runs
/// structure-phase compiles (enqueued by QpuService::prefetch_structures,
/// one task per key neither cached nor in flight) in parallel; single-flight
/// dedup lives in the StructureCache, so a key still compiles once.
///
/// Determinism contract: tasks are pure content-addressed compiles — the
/// same key always produces the same artifact — so worker count and
/// scheduling order can never change results, only wall-clock latency.
/// Callers must not mutate device state (calibration installs, drift,
/// health masks) while tasks are in flight; wait_idle() is the barrier.
/// Observability note: tasks run off the orchestration thread, so they must
/// not touch single-threaded instrumentation — QDMI views handed to a
/// farm-backed service should have no metrics registry attached.
class CompileFarm {
public:
  /// `workers` may be 0: enqueue() then runs tasks inline on the calling
  /// thread (useful for bit-identity comparisons against threaded runs).
  explicit CompileFarm(std::size_t workers);

  /// Drains the queue and joins all workers.
  ~CompileFarm();

  CompileFarm(const CompileFarm&) = delete;
  CompileFarm& operator=(const CompileFarm&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Queues `task` for a worker (or runs it inline with 0 workers). Tasks
  /// must not throw — wrap fallible work (the StructureCache prefetch
  /// protocol already swallows compile failures for background fills).
  void enqueue(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// Tasks completed so far, total and per worker (index 0 counts inline
  /// execution by callers when the farm has no workers).
  std::uint64_t tasks_executed() const;
  std::vector<std::uint64_t> per_worker_executed() const;

private:
  void worker_loop(std::size_t worker_index);

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::vector<std::uint64_t> executed_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace hpcqc::mqss
