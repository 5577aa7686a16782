// End-to-end benchmark of the serving stack, driven through its public API:
// traffic -> AdmissionGateway -> Qrm/Fleet -> mqss compile/bind ->
// DeviceModel::execute -> store journal, checkpoints and recovery.
//
//   perfbench --workload <name> --seed N --seconds S --trace 0|1
//   perfbench --list
//
// A run covers a fixed set of simulated days derived from --seed. --trace 0
// runs each day untraced and prints the end-to-end metrics; --trace 1 runs
// half the days untraced and traced and prints the per-layer metrics, the
// tracing overhead and the execution-mode divergence. The last line of
// stdout is one JSON object.
// Every run is checked; a failed check prints "correct": false and exits 1.

#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "probe.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed N "
               "--seconds S --trace 0|1\n       perfbench --list\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  return args;
}

std::size_t online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double jobs_per_s(const Rep& rep) {
  return static_cast<double>(rep.completed) / rep.wall_s;
}

/// Ordered (name, value, unit) triples; printed as text and as JSON.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

void fail(Result& result, const std::string& why) {
  std::cout << "CHECK FAILED: " << why << "\n";
  result.correct = false;
  result.failed += 1;
}

/// Sum of `get(rep)` over runs.
template <typename Get>
double sum(const std::vector<const Rep*>& reps, Get get) {
  double total = 0.0;
  for (const Rep* rep : reps) total += static_cast<double>(get(*rep));
  return total;
}

/// Samples of every run, pooled.
template <typename Get>
std::vector<double> pooled(const std::vector<const Rep*>& reps, Get get) {
  std::vector<double> values;
  for (const Rep* rep : reps) {
    const std::vector<double>& samples = get(*rep);
    values.insert(values.end(), samples.begin(), samples.end());
  }
  return values;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Median over runs of a per-run value.
template <typename Get>
double median_over(const std::vector<const Rep*>& reps, Get get) {
  std::vector<double> values;
  for (const Rep* rep : reps) values.push_back(get(*rep));
  return median(std::move(values));
}

/// End-to-end metrics. Wall-clock figures pool every day. The queue-wait
/// tail is taken per day and reported as the median over the days, so a
/// rare long outage in one simulated day moves one sample, not the figure.
void add_end_to_end(const std::vector<const Rep*>& untraced,
                    const std::vector<double>& setups, Result& result) {
  Metrics& m = result.metrics;
  const std::vector<double> slices =
      pooled(untraced, [](const Rep& r) -> auto& { return r.slice_ms; });
  m.add("setup_s", median(setups), "s");
  m.add("jobs_per_s",
        sum(untraced, [](const Rep& r) { return r.completed; }) /
            sum(untraced, [](const Rep& r) { return r.wall_s; }),
        "1/s");
  m.add("slice_ms_p50", nearest_rank(slices, 0.50), "ms");
  m.add("slice_ms_p90", nearest_rank(slices, 0.90), "ms");
  m.add("queue_wait_p99_s", median_over(untraced, [](const Rep& r) {
          return nearest_rank(r.waits, 0.99);
        }),
        "s");
  m.add("completed_frac",
        sum(untraced, [](const Rep& r) { return r.completed; }) /
            sum(untraced, [](const Rep& r) { return r.offered; }),
        "ratio");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
  m.add("recovery_s",
        median_over(untraced, [](const Rep& r) { return r.recovery_s; }), "s");
}

/// Per-layer metrics: totals summed over the traced runs, percentiles over
/// their pooled samples.
void add_per_layer(const std::vector<const Rep*>& untraced,
                   const std::vector<const Rep*>& traced,
                   std::size_t divergence, Result& result) {
  Metrics& m = result.metrics;
  auto total = [&](auto field) {
    return sum(traced, [&](const Rep& r) { return r.layers.*field; });
  };
  auto percentile = [&](std::vector<double> Layers::*field, double q) {
    return nearest_rank(
        pooled(traced, [&](const Rep& r) -> auto& { return r.layers.*field; }),
        q);
  };
  const double wall = sum(traced, [](const Rep& r) { return r.wall_s; });
  const double offered = sum(traced, [](const Rep& r) { return r.offered; });
  const double exec_s = total(&Layers::device_s) + total(&Layers::mqss_s);
  const double journal_events = total(&Layers::journal_events);
  const double checkpoints = total(&Layers::checkpoints);
  const double replayed = total(&Layers::replayed_events);

  m.add("load.stamp_us_p50", percentile(&Layers::stamp_us, 0.5), "us");
  m.add("load.self_s", total(&Layers::load_s), "s");

  m.add("admission.offer_ns_p50", percentile(&Layers::offer_ns, 0.5), "ns");
  m.add("admission.offer_ns_p99", percentile(&Layers::offer_ns, 0.99), "ns");
  m.add("admission.drain_ms_p50", percentile(&Layers::drain_ms, 0.5), "ms");
  m.add("admission.drain_ms_p90", percentile(&Layers::drain_ms, 0.9), "ms");
  m.add("admission.backpressure", total(&Layers::backpressure), "count");
  m.add("admission.self_s", total(&Layers::admission_s), "s");

  m.add("qrm.self_s", total(&Layers::qrm_s), "s");
  m.add("qrm.dispatched", total(&Layers::dispatched), "count");
  m.add("qrm.rejected", total(&Layers::rejected), "count");
  m.add("qrm.shed", total(&Layers::shed), "count");

  m.add("fleet.submit_us_p50", percentile(&Layers::submit_us, 0.5), "us");
  m.add("fleet.submit_us_p99", percentile(&Layers::submit_us, 0.99), "us");
  m.add("fleet.self_s", total(&Layers::fleet_s), "s");
  m.add("fleet.migrations", total(&Layers::migrations), "count");

  m.add("mqss.structure_hit_ratio",
        ratio(total(&Layers::structure_hits), total(&Layers::structure_lookups)),
        "ratio");
  m.add("mqss.structure_lookups", total(&Layers::structure_lookups), "count");
  m.add("mqss.farm_tasks", total(&Layers::farm_tasks), "count");
  m.add("mqss.dispatch_ms_p50", percentile(&Layers::param_dispatch_ms, 0.5),
        "ms");

  m.add("device.exec_s", exec_s, "s");
  m.add("device.exec_share", ratio(exec_s, wall), "ratio");
  m.add("device.exec_ms_p50", percentile(&Layers::exec_ms, 0.5), "ms");
  m.add("device.exec_ms_p99", percentile(&Layers::exec_ms, 0.99), "ms");
  m.add("device.shots_per_s", ratio(total(&Layers::shots_executed), exec_s),
        "1/s");
  m.add("device.trajectory_jobs", total(&Layers::trajectory_jobs), "count");
  m.add("device.depolarizing_jobs", total(&Layers::depolarizing_jobs),
        "count");
  m.add("device.mode_divergence", static_cast<double>(divergence), "count");

  m.add("store.self_s", total(&Layers::store_s), "s");
  m.add("store.journal_us_per_event",
        ratio(total(&Layers::journal_s) * 1e6, journal_events), "us");
  m.add("store.journal_events", journal_events, "count");
  m.add("store.wal_bytes_per_job", ratio(total(&Layers::wal_bytes), offered),
        "B");
  m.add("store.checkpoint_ms_p50", percentile(&Layers::checkpoint_ms, 0.5),
        "ms");
  m.add("store.checkpoints", checkpoints, "count");
  m.add("store.snapshot_kb",
        ratio(total(&Layers::snapshot_bytes) / 1024.0, checkpoints), "KiB");
  m.add("store.replayed_events", replayed, "count");
  m.add("store.replay_us_per_event",
        ratio(sum(traced, [](const Rep& r) { return r.recovery_s; }) * 1e6,
              replayed),
        "us");
  m.add("store.recovery_tenant_mismatch",
        sum(traced, [](const Rep& r) { return r.tenant_mismatch; }), "count");

  // Tracing overhead: traced / untraced jobs_per_s of the same day.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i)
    ratios.push_back(jobs_per_s(*traced[i]) / jobs_per_s(*untraced[i]));
  m.add("trace.overhead_ratio", median(ratios), "ratio");
  m.add("trace.overhead_iqr",
        nearest_rank(ratios, 0.75) - nearest_rank(ratios, 0.25), "ratio");
  m.add("trace.pairs", static_cast<double>(ratios.size()), "count");
  m.add("trace.coverage",
        ratio(sum(traced, [](const Rep& r) { return r.layers.attributed_s(); }),
              wall),
        "ratio");
}

/// The seed of one simulated day of a run: day 0 uses --seed itself.
std::uint64_t day_seed(std::uint64_t seed, std::size_t day) {
  return seed ^ (static_cast<std::uint64_t>(day) * 0x9E3779B97F4A7C15ULL);
}

Result run_workload(const Workload& workload, const Args& args,
                    std::size_t threads) {
  Result result;
  RepOptions options;
  options.seed = args.seed;
  options.threads = threads;

  RepOptions warmup = options;
  warmup.warmup = true;
  workload.run(warmup);

  // One pass: every day once (untraced), or, traced, half the days each
  // run untraced and traced, in ABBA order so a drift in machine speed
  // does not show up as tracing overhead.
  struct Step {
    std::size_t day;
    bool traced;
  };
  std::vector<Step> pass;
  if (!args.trace) {
    for (std::size_t day = 0; day < workload.days; ++day)
      pass.push_back({day, false});
  } else {
    for (std::size_t day = 0; day < std::max<std::size_t>(1, workload.days / 2);
         ++day) {
      pass.push_back({day, day % 2 == 1});
      pass.push_back({day, day % 2 == 0});
    }
  }

  // Passes repeat while the next one is expected to end inside --seconds.
  std::vector<Rep> reps;
  std::vector<Step> steps;
  std::vector<double> setups;
  const Clock::time_point begin = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const Clock::time_point pass_start = Clock::now();
    for (const Step& step : pass) {
      options.seed = day_seed(args.seed, step.day);
      options.traced = step.traced;
      reps.push_back(workload.run(options));
      steps.push_back(step);
      setups.push_back(reps.back().setup_s);
      std::cout << "pass " << round << " day " << step.day
                << (step.traced ? " traced" : " untraced") << ": "
                << reps.back().offered << " offered, "
                << reps.back().completed << " completed, wall "
                << reps.back().wall_s << " s, " << jobs_per_s(reps.back())
                << " jobs/s, slice p90 "
                << nearest_rank(reps.back().slice_ms, 0.9) << " ms, wait p99 "
                << nearest_rank(reps.back().waits, 0.99) << " s, recovery "
                << reps.back().recovery_s << " s\n";
    }
    const double elapsed = seconds_between(begin, Clock::now());
    if (elapsed + seconds_between(pass_start, Clock::now()) > args.seconds)
      break;
  }
  // Set-up is cheap next to a run; sample it enough for a steady median.
  RepOptions setup_only = options;
  setup_only.setup_only = true;
  for (std::size_t k = 0; setups.size() < 41; ++k) {
    setup_only.seed = day_seed(args.seed, k % workload.days);
    setups.push_back(workload.run(setup_only).setup_s);
  }

  std::vector<const Rep*> untraced;
  std::vector<const Rep*> traced;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const Rep& rep = reps[k];
    (steps[k].traced ? traced : untraced).push_back(&rep);
    result.attempted += rep.offered;
    for (const std::string& why : rep.failures) fail(result, why);
    if (rep.completed == 0) fail(result, "no job completed");
    for (std::size_t j = 0; j < k; ++j)
      if (steps[j].day == steps[k].day &&
          reps[j].fingerprint != rep.fingerprint) {
        fail(result, "outcome fingerprints of day " +
                         std::to_string(steps[k].day) +
                         " differ between runs");
        break;
      }
  }
  std::cout << workload.name << ": " << untraced.size() << " untraced and "
            << traced.size() << " traced runs, " << setups.size()
            << " set-ups\n";

  if (!args.trace) {
    add_end_to_end(untraced, setups, result);
    return result;
  }

  // Day 0 with the physics off: how many jobs end differently.
  std::size_t divergence = 0;
  if (workload.executes) {
    RepOptions estimate = options;
    estimate.seed = day_seed(args.seed, 0);
    estimate.traced = false;
    estimate.estimate_only = true;
    const Rep off = workload.run(estimate);
    for (const std::string& why : off.failures) fail(result, why);
    const Rep& on = *untraced.front();
    for (std::size_t i = 0; i < on.outcomes.size(); ++i)
      if (i >= off.outcomes.size() || on.outcomes[i] != off.outcomes[i])
        ++divergence;
    std::cout << "estimate-only run of day 0: " << divergence << " of "
              << on.outcomes.size() << " jobs end in another state or at "
              << "another time\n";
  }
  add_per_layer(untraced, traced, divergence, result);
  return result;
}

void print(const Result& result) {
  for (const Metrics::Entry& e : result.metrics.entries)
    std::cout << "  " << e.name << " = " << number(e.value) << " " << e.unit
              << "\n";
}

std::string json(const Result& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Entry& e : result.metrics.entries) {
    os << (first ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
       << number(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void print_definitions(const Args& args, std::size_t threads) {
  std::cout
      << "definitions:\n"
         "  percentiles are exact nearest-rank: the sample of 1-based rank\n"
         "    ceil(q*n) in sorted order\n"
         "  jobs_per_s = completed jobs / wall seconds from the first offer\n"
         "    until drain returns, summed over the days\n"
         "  slice_ms = wall time of one 10-minute simulated slice (ingest,\n"
         "    advance, admit, checkpoint), pooled over the days\n"
         "  queue_wait_p99_s = simulated start - submit of completed jobs;\n"
         "    per-day percentile, median over the days\n"
         "  recovery_s = store::Recovery rebuilding the image from the WAL\n"
         "  dispatch time = kDispatched event to the QRM's next event or\n"
         "    the return of advance_to/drain; device.exec_s sums it\n"
         "  per-layer metrics of a layer a workload does not run read 0\n"
         "environment: nproc="
      << online_cpus() << " omp_threads=" << omp_threads()
      << " ingest_threads=" << threads
      << " farm_workers=" << std::max<std::size_t>(1, threads - 1)
      << " compiler=\"" << __VERSION__
      << "\" build_type=" << PERFBENCH_BUILD_TYPE << " commit="
      << (std::getenv("PERFBENCH_COMMIT") ? std::getenv("PERFBENCH_COMMIT")
                                          : "unknown")
      << " seed=" << args.seed << " seconds=" << args.seconds
      << " trace=" << (args.trace ? 1 : 0) << "\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const Workload& w : workloads()) std::cout << w.name << "\n";
    return 0;
  }
  const Args args = parse(argc, argv);
  const auto found =
      std::find_if(workloads().begin(), workloads().end(),
                   [&](const Workload& w) { return args.workload == w.name; });
  if (found == workloads().end()) usage("unknown workload " + args.workload);
  // Ingest threads and compile-farm workers; OMP_NUM_THREADS comes from the
  // environment and may not exceed the CPUs either.
  const std::size_t cpus = online_cpus();
  const std::size_t threads = std::min<std::size_t>(4, cpus);
  if (static_cast<std::size_t>(omp_threads()) > cpus)
    usage("OMP_NUM_THREADS exceeds nproc");
  print_definitions(args, threads);

  std::cout << "workload " << found->name << "\n";
  Result result;
  try {
    result = run_workload(*found, args, threads);
    print(result);
  } catch (const std::exception& error) {
    fail(result, found->name + std::string(" threw: ") + error.what());
  }
  std::cout << json(result) << std::endl;
  return result.correct ? 0 : 1;
}
