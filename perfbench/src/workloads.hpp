#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Per-layer wall-clock split of one traced repetition. The `*_s` fields
/// partition the measured wall time: every call the benchmark loop makes is
/// charged to exactly one layer, so their sum over `wall_s` is the
/// coverage the output reports.
struct Layers {
  double load_s = 0.0;       ///< JobFactory::stamp/make
  double admission_s = 0.0;  ///< AdmissionGateway::offer + drain_and_admit
  double qrm_s = 0.0;        ///< Qrm::advance_to/drain minus dispatch, journal
  double fleet_s = 0.0;      ///< Fleet::submit/advance_to/drain minus same
  double mqss_s = 0.0;       ///< dispatch of parametric jobs (compile + bind
                             ///< + execute)
  double device_s = 0.0;     ///< dispatch of plain jobs (execute)
  double store_s = 0.0;      ///< journal appends + checkpoints

  std::vector<double> stamp_us;
  std::vector<double> offer_ns;
  std::vector<double> drain_ms;
  std::vector<double> submit_us;      ///< Fleet::submit
  std::vector<double> checkpoint_ms;  ///< checkpoints actually written
  std::vector<double> exec_ms;        ///< plain-job dispatches
  std::vector<double> param_dispatch_ms;

  std::uint64_t backpressure = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t structure_lookups = 0;
  std::uint64_t structure_hits = 0;
  std::uint64_t farm_tasks = 0;
  std::uint64_t trajectory_jobs = 0;
  std::uint64_t depolarizing_jobs = 0;
  std::uint64_t shots_executed = 0;
  std::uint64_t journal_events = 0;
  double journal_s = 0.0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t replayed_events = 0;

  double attributed_s() const {
    return load_s + admission_s + qrm_s + fleet_s + mqss_s + device_s +
           store_s;
  }
};

/// What one repetition of a workload produced.
struct Rep {
  double setup_s = 0.0;  ///< devices, QRM/Fleet, store, arrival schedule
  double wall_s = 0.0;   ///< first offer until drain returns
  std::vector<double> slice_ms;
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::vector<double> waits;  ///< simulated queue wait of completed jobs
  /// FNV-1a over (ticket, id, state, end_time) in ticket order.
  std::uint64_t fingerprint = 0;
  /// (state, end_time) per ticket, for the execution-mode comparison.
  std::vector<std::pair<int, double>> outcomes;
  double recovery_s = 0.0;  ///< median over the recoveries of this rep
  std::size_t tenant_mismatch = 0;
  std::vector<std::string> failures;  ///< correctness violations
  Layers layers;                      ///< filled when traced
};

struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  std::size_t threads = 1;  ///< ingest threads and compile-farm workers
  /// Replaces the workload's execution mode (the mode-divergence run).
  bool estimate_only = false;
  /// Return right after set-up (extra set-up samples).
  bool setup_only = false;
  /// Run only the first hours of the day and skip the checks: warms the
  /// process (allocator, thread pools) before anything is measured.
  bool warmup = false;
};

struct Workload {
  const char* name;
  Rep (*run)(const RepOptions& options);
  /// Distinct simulated days one pass of an untraced run covers (each from
  /// its own seed derived from --seed): pooling several days keeps the
  /// figures steady across seeds.
  std::size_t days;
  /// Whether the workload executes circuits (counts must sum to shots and
  /// the estimate-only divergence is meaningful).
  bool executes;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
