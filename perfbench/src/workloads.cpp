#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/load/driver.hpp"
#include "hpcqc/load/traffic.hpp"
#include "hpcqc/sched/admission.hpp"
#include "hpcqc/sched/durable.hpp"
#include "hpcqc/sched/fleet.hpp"
#include "hpcqc/store/codec.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/recovery.hpp"
#include "hpcqc/store/snapshot.hpp"
#include "hpcqc/store/wal.hpp"
#include "probe.hpp"

namespace perfbench {

using namespace hpcqc;

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

namespace {

constexpr Seconds kSlice = minutes(10.0);  // 144 coordination slices a day
constexpr Seconds kCheckpointEvery = hours(6.0);
constexpr Seconds kWarmupHorizon = hours(6.0);
// The kAuto rule (device_model.hpp): trajectory for <= 12 touched qubits
// and <= 256 shots, global depolarizing otherwise.
constexpr int kTrajectoryMaxQubits = 12;
constexpr std::size_t kTrajectoryMaxShots = 256;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFULL;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return fnv1a(hash, bits);
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::vector<load::Arrival> warmup_prefix(std::vector<load::Arrival> schedule) {
  const auto end = std::find_if(
      schedule.begin(), schedule.end(),
      [](const load::Arrival& a) { return a.time >= kWarmupHorizon; });
  schedule.erase(end, schedule.end());
  return schedule;
}

bool trajectory_by_auto_rule(int width, std::size_t shots) {
  return width <= kTrajectoryMaxQubits && shots <= kTrajectoryMaxShots;
}

void count_refusals(sched::QuantumJobState state, Layers& layers) {
  switch (state) {
    case sched::QuantumJobState::kRejectedOverload:
    case sched::QuantumJobState::kRejectedTooWide:
      layers.rejected += 1;
      break;
    case sched::QuantumJobState::kShed:
      layers.shed += 1;
      break;
    default:
      break;
  }
}

sched::Qrm::Config base_qrm_config(device::ExecutionMode mode) {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.benchmark_overhead = minutes(2.0);
  config.execution_mode = mode;
  return config;
}

load::TrafficConfig day_traffic(std::uint64_t seed, double rate_per_hour,
                                int max_qubits) {
  load::TrafficConfig config;
  config.seed = seed;
  config.tenants = 2000;
  config.duration = hours(24.0);
  config.base_rate_per_hour = rate_per_hour;
  config.max_qubits = max_qubits;
  return config;
}

/// The WAL, journal and checkpointer a control plane writes to; the backend
/// plays the disk that survives the process.
struct Store {
  explicit Store(obs::MetricsRegistry& metrics)
      : wal(backend, store::Wal::Config{}, &metrics),
        journal(wal),
        checkpointer(wal, store::Checkpointer::Config{kCheckpointEvery},
                     &metrics) {}

  store::MemoryWalBackend backend;
  store::Wal wal;
  store::Journal journal;
  store::Checkpointer checkpointer;
};

std::vector<std::uint8_t> record_bytes(const sched::QuantumJobRecord& record) {
  store::ByteWriter out;
  store::encode_record(out, record);
  return out.take();
}

std::vector<std::uint8_t> job_bytes(const sched::QuantumJob& job) {
  store::ByteWriter out;
  store::encode_job(out, job);
  return out.take();
}

/// Compares a recovered image with the live capture field by field.
/// Everything but the tenant bucket map must match exactly; tenant-map
/// differences are returned as a count (a known gap, reported, not gated).
std::size_t compare_images(const sched::QrmDurableState& live,
                           const sched::QrmDurableState& recovered,
                           const std::string& where,
                           std::vector<std::string>& failures) {
  auto fail = [&](const std::string& what) {
    failures.push_back("recovery " + where + ": " + what + " differ");
  };
  if (recovered.now > live.now) fail("clock");
  if (recovered.next_id != live.next_id) fail("next ids");
  if (recovered.online != live.online) fail("online flags");
  if (recovered.queue != live.queue) fail("queues");
  if (recovered.retry_queue != live.retry_queue) fail("retry queues");
  if (recovered.structure_manifest != live.structure_manifest)
    fail("structure manifests");
  bool records_match = recovered.records.size() == live.records.size();
  for (auto it = live.records.begin(), jt = recovered.records.begin();
       records_match && it != live.records.end(); ++it, ++jt)
    records_match = it->first == jt->first &&
                    record_bytes(it->second) == record_bytes(jt->second);
  if (!records_match) fail("job records");
  bool pending_match = recovered.pending.size() == live.pending.size();
  for (auto it = live.pending.begin(), jt = recovered.pending.begin();
       pending_match && it != live.pending.end(); ++it, ++jt)
    pending_match = it->first == jt->first &&
                    job_bytes(it->second) == job_bytes(jt->second);
  if (!pending_match) fail("pending payloads");
  bool dlq_match = recovered.dead_letters.size() == live.dead_letters.size();
  for (std::size_t i = 0; dlq_match && i < live.dead_letters.size(); ++i) {
    const sched::DeadLetterRecord& a = live.dead_letters[i];
    const sched::DeadLetterRecord& b = recovered.dead_letters[i];
    dlq_match = a.id == b.id && a.name == b.name && a.attempts == b.attempts &&
                a.reason == b.reason && a.failed_at == b.failed_at &&
                job_bytes(a.job) == job_bytes(b.job);
  }
  if (!dlq_match) fail("dead-letter queues");
  for (int c = 0; c < 3; ++c)
    if (recovered.class_buckets[c].tokens != live.class_buckets[c].tokens ||
        recovered.class_buckets[c].last_refill !=
            live.class_buckets[c].last_refill)
      fail("class buckets");

  std::size_t mismatch = 0;
  for (const auto& [project, bucket] : live.tenants) {
    const auto found = recovered.tenants.find(project);
    if (found == recovered.tenants.end() ||
        found->second.tokens != bucket.tokens ||
        found->second.last_refill != bucket.last_refill)
      ++mismatch;
  }
  for (const auto& [project, bucket] : recovered.tenants)
    if (live.tenants.find(project) == live.tenants.end()) ++mismatch;

  // Whole-image byte check with the two exempt fields aligned, so a field
  // the list above misses still fails.
  sched::QrmDurableState aligned = recovered;
  aligned.now = live.now;
  aligned.tenants = live.tenants;
  if (store::encode_snapshot(aligned) != store::encode_snapshot(live))
    fail("encoded images");
  return mismatch;
}

/// Rebuilds the image from the WAL, checks the first rebuild against the
/// live capture, and repeats while rebuilds are cheap (up to five, within
/// a quarter second) so the reported median is steady.
template <typename Image, typename Recover, typename Compare>
void recover_and_check(const Image& live, Recover&& recover,
                       Compare&& compare, Rep& rep) {
  std::vector<double> times;
  double spent = 0.0;
  while (times.empty() || (times.size() < 5 && spent < 0.25)) {
    const Clock::time_point t0 = Clock::now();
    Image recovered = recover();
    times.push_back(seconds_between(t0, Clock::now()));
    spent += times.back();
    if (times.size() == 1) compare(live, recovered);
  }
  rep.recovery_s = median(times);
}

/// Writes the one checkpoint an unjournaled workload recovers from. It
/// runs after the timed run, so it is reported but not part of the wall.
template <typename Write>
void final_checkpoint(Write&& write, Layers& layers,
                      const RepOptions& options) {
  const Clock::time_point t0 = Clock::now();
  write();
  if (options.traced)
    layers.checkpoint_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
}

/// Attributes one repetition's journal, checkpoint and WAL totals.
void finish_store_layers(obs::MetricsRegistry& metrics,
                         const LayerProbe& probe, Layers& layers) {
  layers.journal_events = probe.journal_events();
  layers.journal_s = probe.journal_seconds();
  layers.checkpoints = metrics.counter("store.snapshots").count();
  layers.snapshot_bytes = metrics.counter("store.snapshot.bytes").count();
  // Journal bytes only: every WAL frame adds [u32 len][u32 crc][u64 lsn]
  // [u8 type] to its payload, and snapshots are frames of their own.
  constexpr std::uint64_t kFrameBytes = 17;
  layers.wal_bytes = metrics.counter("store.wal.bytes").count() -
                     layers.snapshot_bytes - kFrameBytes * layers.checkpoints;
}

// ------------------------------------------------ single-QRM workloads --

struct QrmSpec {
  double rate_per_hour;
  device::ExecutionMode mode;
  /// Tenant fair-share cap (fraction of queue capacity); 1 disables.
  double tenant_share;
  /// Journal and checkpoint during the run; otherwise recovery rebuilds
  /// from one checkpoint written after the drain, outside the timed run.
  bool journaled;
};

Rep run_qrm_workload(const QrmSpec& spec, const RepOptions& options) {
  Rep rep;
  const device::ExecutionMode mode =
      options.estimate_only ? device::ExecutionMode::kEstimateOnly : spec.mode;

  const Clock::time_point setup_start = Clock::now();
  Rng rng(options.seed);
  device::DeviceModel device = device::make_iqm20(rng);
  obs::MetricsRegistry metrics;
  Store durable(metrics);
  std::unique_ptr<LayerProbe> probe;
  sched::JournalSink* sink = spec.journaled ? &durable.journal : nullptr;
  if (options.traced) {
    probe = std::make_unique<LayerProbe>(sink);
    sink = probe.get();
  }
  sched::Qrm::Config config = base_qrm_config(mode);
  config.admission.max_tenant_queue_share = spec.tenant_share;
  config.durability.sink = sink;
  sched::Qrm qrm(device, config, rng, nullptr, &metrics);
  const load::TrafficGenerator traffic(
      day_traffic(options.seed, spec.rate_per_hour, 16));
  const load::JobFactory factory(device, traffic, options.seed);
  const std::vector<load::Arrival> schedule =
      options.warmup ? warmup_prefix(traffic.generate()) : traffic.generate();
  sched::AdmissionGateway gateway(qrm, sched::AdmissionGateway::Config{});
  rep.setup_s = seconds_between(setup_start, Clock::now());
  rep.offered = schedule.size();
  if (options.setup_only) return rep;

  // Per ingest thread timing buffers (traced runs only).
  struct IngestTimes {
    double stamp_s = 0.0;
    double offer_s = 0.0;
    std::vector<double> stamp_us;
    std::vector<double> offer_ns;
  };
  std::vector<IngestTimes> ingest(options.threads);
  Layers& layers = rep.layers;
  std::vector<std::pair<std::uint64_t, int>> outcomes;
  outcomes.reserve(schedule.size());

  // The open-loop slice protocol of load::OpenLoopDriver, with clocks
  // around each call: concurrent ingest, advance, drain, checkpoint.
  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  Seconds slice_end = qrm.now() + kSlice;
  while (next < schedule.size()) {
    const Clock::time_point slice_start = Clock::now();
    std::size_t last = next;
    while (last < schedule.size() && schedule[last].time < slice_end) ++last;
    for (IngestTimes& times : ingest) times.stamp_s = times.offer_s = 0.0;
    if (last > next) {
      std::vector<std::thread> workers;
      workers.reserve(options.threads);
      for (std::size_t w = 0; w < options.threads; ++w) {
        workers.emplace_back([&, w] {
          IngestTimes& times = ingest[w];
          for (std::size_t k = next + w; k < last; k += options.threads) {
            if (!options.traced) {
              gateway.offer(factory.stamp(schedule[k]));
              continue;
            }
            const Clock::time_point t0 = Clock::now();
            sched::StampedJob item = factory.stamp(schedule[k]);
            const Clock::time_point t1 = Clock::now();
            gateway.offer(std::move(item));
            const Clock::time_point t2 = Clock::now();
            const double stamp = seconds_between(t0, t1);
            const double offer = seconds_between(t1, t2);
            times.stamp_s += stamp;
            times.offer_s += offer;
            times.stamp_us.push_back(stamp * 1e6);
            times.offer_ns.push_back(offer * 1e9);
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    const Clock::time_point ingested = Clock::now();

    const double dispatch_before = probe ? probe->dispatch_seconds() : 0.0;
    const double journal_before = probe ? probe->journal_seconds() : 0.0;
    qrm.advance_to(slice_end);
    if (probe) probe->call_returned();
    const Clock::time_point advanced = Clock::now();
    const double dispatch_mid = probe ? probe->dispatch_seconds() : 0.0;
    const double journal_mid = probe ? probe->journal_seconds() : 0.0;

    const auto batch = gateway.drain_and_admit();
    const Clock::time_point drained = Clock::now();
    outcomes.insert(outcomes.end(), batch.begin(), batch.end());
    const double journal_after = probe ? probe->journal_seconds() : 0.0;

    const bool wrote =
        spec.journaled && durable.checkpointer.maybe_checkpoint(qrm);
    const Clock::time_point slice_done = Clock::now();
    rep.slice_ms.push_back(seconds_between(slice_start, slice_done) * 1e3);

    if (options.traced) {
      double stamp = 0.0;
      double offer = 0.0;
      for (const IngestTimes& times : ingest) {
        stamp += times.stamp_s;
        offer += times.offer_s;
      }
      // The ingest phase runs on several threads at once; its wall time is
      // split between stamping and offering by their summed thread time.
      const double ingest_wall = seconds_between(slice_start, ingested);
      const double stamp_share =
          stamp + offer > 0.0 ? stamp / (stamp + offer) : 1.0;
      layers.load_s += ingest_wall * stamp_share;
      layers.admission_s += ingest_wall * (1.0 - stamp_share);
      const double dispatch = dispatch_mid - dispatch_before;
      layers.device_s += dispatch;
      layers.qrm_s += seconds_between(ingested, advanced) - dispatch -
                      (journal_mid - journal_before);
      const double drain = seconds_between(advanced, drained);
      layers.drain_ms.push_back(drain * 1e3);
      layers.admission_s += drain - (journal_after - journal_mid);
      layers.store_s += (journal_after - journal_before) +
                        seconds_between(drained, slice_done);
      if (wrote)
        layers.checkpoint_ms.push_back(
            seconds_between(drained, slice_done) * 1e3);
    }
    next = last;
    slice_end += kSlice;
  }
  const double dispatch_before = probe ? probe->dispatch_seconds() : 0.0;
  const double journal_before = probe ? probe->journal_seconds() : 0.0;
  const Clock::time_point drain_start = Clock::now();
  qrm.drain();
  if (probe) probe->call_returned();
  const Clock::time_point end = Clock::now();
  rep.wall_s = seconds_between(start, end);
  if (options.warmup) return rep;

  if (probe) {
    const double dispatch = probe->dispatch_seconds() - dispatch_before;
    const double journal = probe->journal_seconds() - journal_before;
    layers.device_s += dispatch;
    layers.store_s += journal;
    layers.qrm_s += seconds_between(drain_start, end) - dispatch - journal;
    for (IngestTimes& times : ingest) {
      layers.stamp_us.insert(layers.stamp_us.end(), times.stamp_us.begin(),
                             times.stamp_us.end());
      layers.offer_ns.insert(layers.offer_ns.end(), times.offer_ns.begin(),
                             times.offer_ns.end());
    }
    for (const Dispatch& d : probe->dispatches())
      layers.exec_ms.push_back(d.seconds * 1e3);
  }

  // Outcomes, in ticket order (drain batches are ticket-ordered already).
  std::sort(outcomes.begin(), outcomes.end());
  std::uint64_t hash = kFnvBasis;
  for (const auto& [ticket, id] : outcomes) {
    const sched::QuantumJobRecord& record = qrm.record(id);
    if (record.state == sched::QuantumJobState::kCompleted) {
      rep.completed += 1;
      rep.waits.push_back(record.wait_time());
      if (mode != device::ExecutionMode::kEstimateOnly &&
          (record.result.counts.total_shots() != record.shots ||
           record.result.shots != record.shots))
        rep.failures.push_back("job " + record.name +
                               ": counts do not sum to its shots");
    }
    if (record.attempts > 0) {
      layers.dispatched += record.attempts;
      layers.shots_executed += record.attempts * record.shots;
      if (mode == device::ExecutionMode::kAuto) {
        const int width =
            std::min(schedule[ticket].qubits, device.num_qubits());
        (trajectory_by_auto_rule(width, record.shots)
             ? layers.trajectory_jobs
             : layers.depolarizing_jobs) += record.attempts;
      }
    }
    count_refusals(record.state, layers);
    rep.outcomes.emplace_back(static_cast<int>(record.state), record.end_time);
    hash = fnv1a(hash, ticket);
    hash = fnv1a(hash, static_cast<std::uint64_t>(id));
    hash = fnv1a(hash, static_cast<std::uint64_t>(record.state));
    hash = fnv1a(hash, record.end_time);
  }
  rep.fingerprint = hash;
  if (outcomes.size() != schedule.size())
    rep.failures.push_back("gateway admitted " +
                           std::to_string(outcomes.size()) + " of " +
                           std::to_string(schedule.size()) + " offers");
  const sched::JobConservation audit = qrm.conservation();
  if (!audit.holds() || audit.in_flight != 0 ||
      audit.submitted != schedule.size())
    rep.failures.push_back("QRM job conservation does not hold");
  layers.backpressure = gateway.backpressure_events();

  if (!spec.journaled)
    final_checkpoint([&] { durable.checkpointer.checkpoint(qrm); }, layers,
                     options);
  const sched::QrmDurableState live = qrm.capture_durable();
  recover_and_check(
      live,
      [&] {
        store::Recovery recovery(durable.backend);
        sched::QrmDurableState image = recovery.recover_qrm();
        layers.replayed_events = recovery.stats().replayed;
        return image;
      },
      [&](const sched::QrmDurableState& a, const sched::QrmDurableState& b) {
        rep.tenant_mismatch = compare_images(a, b, "qrm", rep.failures);
      },
      rep);
  if (probe) finish_store_layers(metrics, *probe, layers);
  return rep;
}

Rep serving_day(const RepOptions& options) {
  return run_qrm_workload({420.0, device::ExecutionMode::kAuto, 1.0, false},
                          options);
}

Rep durable_overload(const RepOptions& options) {
  return run_qrm_workload(
      {4.0 * 420.0, device::ExecutionMode::kEstimateOnly, 0.1, true},
      options);
}

// ---------------------------------------------------------- fleet-day --

constexpr int kFleetDevices = 3;
constexpr int kOfflineDevice = 1;
constexpr Seconds kOfflineFrom = hours(6.0);
constexpr Seconds kOfflineUntil = hours(10.0);
constexpr double kFleetRatePerHour = 2.0 * 420.0;
constexpr int kFleetMaxQubits = 8;

/// A small pool of chain-ansatz shapes (width x layers) laid out along the
/// device's coupled chain: every VQE/QAOA arrival binds fresh angles into
/// one of them, so the structure cache serves most dispatches and each
/// dispatch is a bind.
class AnsatzPool {
public:
  explicit AnsatzPool(const device::DeviceModel& device) {
    const std::vector<int> chain = device.topology().coupled_chain();
    for (int width : kWidths)
      for (int layers = 1; layers <= kMaxLayers; ++layers)
        shapes_.push_back(make(device.num_qubits(), chain, width, layers));
  }

  sched::QuantumJob job(const load::Arrival& arrival, std::string project,
                        std::uint64_t seed) const {
    int slot = 0;
    while (slot + 1 < static_cast<int>(std::size(kWidths)) &&
           kWidths[slot + 1] <= arrival.qubits)
      ++slot;
    const int layers = 1 + (arrival.layers - 1) % kMaxLayers;
    const auto& shape =
        shapes_[static_cast<std::size_t>(slot * kMaxLayers + layers - 1)];
    sched::QuantumJob job;
    job.name = std::string(load::to_string(arrival.job_class)) + "-" +
               std::to_string(arrival.ticket);
    job.project = std::move(project);
    job.shots = arrival.shots;
    job.priority = arrival.priority;
    job.parametric = shape;
    Rng rng(seed ^ (arrival.ticket * 0x9E3779B97F4A7C15ULL + 7));
    for (const std::string& symbol : shape->parameters())
      job.binding[symbol] = rng.uniform(-M_PI, M_PI);
    return job;
  }

private:
  static constexpr int kWidths[] = {4, 6, 8};
  static constexpr int kMaxLayers = 2;

  static std::shared_ptr<const circuit::ParametricCircuit> make(
      int register_size, const std::vector<int>& chain, int width,
      int layers) {
    circuit::ParametricCircuit ansatz(register_size);
    std::vector<int> used(chain.begin(), chain.begin() + width);
    for (int q : used) ansatz.h(q);
    for (int l = 0; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        std::string symbol = "t";
        symbol += std::to_string(l * width + i);
        ansatz.ry(circuit::ParamExpr::symbol(std::move(symbol)),
                  used[static_cast<std::size_t>(i)]);
      }
      for (int i = l % 2; i + 1 < width; i += 2)
        ansatz.cz(used[static_cast<std::size_t>(i)],
                  used[static_cast<std::size_t>(i + 1)]);
    }
    ansatz.measure(used);
    return std::make_shared<const circuit::ParametricCircuit>(
        std::move(ansatz));
  }

  std::vector<std::shared_ptr<const circuit::ParametricCircuit>> shapes_;
};

bool is_variational(load::JobClass job_class) {
  return job_class == load::JobClass::kVqeTightLoop ||
         job_class == load::JobClass::kQaoa;
}

Rep fleet_day(const RepOptions& options) {
  Rep rep;
  const device::ExecutionMode mode = options.estimate_only
                                         ? device::ExecutionMode::kEstimateOnly
                                         : device::ExecutionMode::kAuto;

  const Clock::time_point setup_start = Clock::now();
  Rng rng(options.seed);
  obs::MetricsRegistry metrics;
  Store durable(metrics);
  std::unique_ptr<LayerProbe> probe;
  if (options.traced) probe = std::make_unique<LayerProbe>(nullptr);
  sched::Fleet::Config config;
  config.qrm = base_qrm_config(mode);
  // The scheduler thread enqueues prefetches while the workers compile.
  config.compile_workers = std::max<std::size_t>(1, options.threads - 1);
  sched::Fleet fleet(config, rng, nullptr, &metrics);
  for (int d = 0; d < kFleetDevices; ++d)
    fleet.add_device(
        std::make_unique<device::DeviceModel>(device::make_iqm20(rng)));
  fleet.set_journal(probe.get());
  const load::TrafficGenerator traffic(
      day_traffic(options.seed, kFleetRatePerHour, kFleetMaxQubits));
  const load::JobFactory factory(fleet.device_model(0), traffic, options.seed);
  const std::vector<load::Arrival> schedule =
      options.warmup ? warmup_prefix(traffic.generate()) : traffic.generate();
  const AnsatzPool pool(fleet.device_model(0));
  rep.setup_s = seconds_between(setup_start, Clock::now());
  rep.offered = schedule.size();
  if (options.setup_only) return rep;

  Layers& layers = rep.layers;
  std::vector<int> ids(schedule.size(), 0);
  // Wall time of a Fleet call minus the dispatch and journal time the
  // probe saw inside it.
  auto fleet_call = [&](auto&& call) {
    const double dispatch_before = probe ? probe->dispatch_seconds() : 0.0;
    const double journal_before = probe ? probe->journal_seconds() : 0.0;
    const Clock::time_point t0 = Clock::now();
    call();
    if (probe) probe->call_returned();
    const double wall = seconds_between(t0, Clock::now());
    if (probe) {
      const double journal = probe->journal_seconds() - journal_before;
      layers.store_s += journal;
      layers.fleet_s += wall - journal -
                        (probe->dispatch_seconds() - dispatch_before);
    }
    return wall;
  };

  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  bool offline = false;
  Seconds slice_end = fleet.now() + kSlice;
  while (next < schedule.size()) {
    const Clock::time_point slice_start = Clock::now();
    // Scripted outage: one device leaves service for a few hours, so its
    // queue migrates to the peers.
    if (!offline && slice_end > kOfflineFrom && slice_end <= kOfflineUntil) {
      fleet_call([&] {
        fleet.set_device_offline(kOfflineDevice, "scripted maintenance");
      });
      offline = true;
    } else if (offline && slice_end > kOfflineUntil) {
      fleet_call([&] { fleet.set_device_online(kOfflineDevice); });
      offline = false;
    }
    fleet_call([&] { fleet.advance_to(slice_end); });
    for (; next < schedule.size() && schedule[next].time < slice_end; ++next) {
      const load::Arrival& arrival = schedule[next];
      const Clock::time_point t0 = Clock::now();
      sched::QuantumJob job =
          is_variational(arrival.job_class)
              ? pool.job(arrival, factory.tenant_name(arrival.tenant),
                         options.seed)
              : factory.make(arrival);
      if (probe) {
        const double stamp = seconds_between(t0, Clock::now());
        layers.load_s += stamp;
        layers.stamp_us.push_back(stamp * 1e6);
      }
      const double submit = fleet_call([&] {
        ids[next] = fleet.submit(std::move(job));
      });
      if (probe) layers.submit_us.push_back(submit * 1e6);
    }
    rep.slice_ms.push_back(seconds_between(slice_start, Clock::now()) * 1e3);
    slice_end += kSlice;
  }
  fleet_call([&] { fleet.drain(); });
  rep.wall_s = seconds_between(start, Clock::now());
  if (options.warmup) return rep;

  // Resolve each dispatch to its fleet job through the placement hops.
  std::map<std::pair<int, int>, std::size_t> ticket_of;
  std::uint64_t hash = kFnvBasis;
  for (std::size_t ticket = 0; ticket < schedule.size(); ++ticket) {
    const int id = ids[ticket];
    const sched::Fleet::FleetJobRecord& placed = fleet.record(id);
    for (const auto& hop : placed.hops) ticket_of[hop] = ticket;
    const sched::QuantumJobState state = fleet.state(id);
    double end_time = -1.0;
    if (placed.device >= 0) {
      const sched::QuantumJobRecord& record =
          fleet.qrm(placed.device).record(placed.local_id);
      end_time = record.end_time;
      if (state == sched::QuantumJobState::kCompleted) {
        rep.completed += 1;
        rep.waits.push_back(record.start_time - placed.submit_time);
        if (mode != device::ExecutionMode::kEstimateOnly &&
            (record.result.counts.total_shots() != record.shots ||
             record.result.shots != record.shots))
          rep.failures.push_back("job " + record.name +
                                 ": counts do not sum to its shots");
      }
    }
    layers.migrations += placed.migrations;
    count_refusals(state, layers);
    rep.outcomes.emplace_back(static_cast<int>(state), end_time);
    hash = fnv1a(hash, static_cast<std::uint64_t>(ticket));
    hash = fnv1a(hash, static_cast<std::uint64_t>(id));
    hash = fnv1a(hash, static_cast<std::uint64_t>(state));
    hash = fnv1a(hash, end_time);
  }
  rep.fingerprint = hash;
  const sched::JobConservation audit = fleet.conservation();
  if (!audit.holds() || audit.in_flight != 0 ||
      audit.submitted != schedule.size())
    rep.failures.push_back("fleet job conservation does not hold");

  for (int d = 0; d < kFleetDevices; ++d) {
    const mqss::StructureCacheStats cache = fleet.service(d).cache_stats();
    layers.structure_hits += cache.hits;
    layers.structure_lookups += cache.hits + cache.misses;
  }
  layers.farm_tasks = fleet.compile_farm()->tasks_executed();
  for (const auto& [hop, ticket] : ticket_of) {
    const load::Arrival& arrival = schedule[ticket];
    const sched::QuantumJobRecord& record =
        fleet.qrm(hop.first).record(hop.second);
    if (record.attempts == 0) continue;
    layers.dispatched += record.attempts;
    layers.shots_executed += record.attempts * record.shots;
    if (mode == device::ExecutionMode::kAuto)
      (trajectory_by_auto_rule(arrival.qubits, record.shots)
           ? layers.trajectory_jobs
           : layers.depolarizing_jobs) += record.attempts;
  }
  if (probe) {
    for (const Dispatch& d : probe->dispatches()) {
      const auto found = ticket_of.find({d.device, d.id});
      const bool parametric =
          found != ticket_of.end() &&
          is_variational(schedule[found->second].job_class);
      (parametric ? layers.mqss_s : layers.device_s) += d.seconds;
      (parametric ? layers.param_dispatch_ms : layers.exec_ms)
          .push_back(d.seconds * 1e3);
    }
  }

  final_checkpoint([&] { durable.checkpointer.checkpoint(fleet); }, layers,
                   options);
  const sched::FleetDurableState live = fleet.capture_durable();
  recover_and_check(
      live,
      [&] {
        store::Recovery recovery(durable.backend);
        sched::FleetDurableState image = recovery.recover_fleet(kFleetDevices);
        layers.replayed_events = recovery.stats().replayed;
        return image;
      },
      [&](const sched::FleetDurableState& a,
          const sched::FleetDurableState& b) {
        if (a.next_id != b.next_id || a.records.size() != b.records.size() ||
            a.devices.size() != b.devices.size()) {
          rep.failures.push_back("recovery fleet: image shapes differ");
          return;
        }
        for (auto it = a.records.begin(), jt = b.records.begin();
             it != a.records.end(); ++it, ++jt) {
          const auto& x = it->second;
          const auto& y = jt->second;
          if (it->first != jt->first || x.name != y.name ||
              x.device != y.device || x.local_id != y.local_id ||
              x.submit_time != y.submit_time || x.width != y.width ||
              x.priority != y.priority || x.migrations != y.migrations ||
              x.refused_state != y.refused_state ||
              x.refusal_reason != y.refusal_reason || x.hops != y.hops) {
            rep.failures.push_back("recovery fleet: job records differ");
            break;
          }
        }
        for (std::size_t d = 0; d < a.devices.size(); ++d)
          rep.tenant_mismatch +=
              compare_images(a.devices[d], b.devices[d],
                             "device " + std::to_string(d), rep.failures);
      },
      rep);
  if (probe) finish_store_layers(metrics, *probe, layers);
  return rep;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"serving-day", serving_day, 3, true},
      {"fleet-day", fleet_day, 4, true},
      {"durable-overload", durable_overload, 6, false},
  };
  return all;
}

}  // namespace perfbench
