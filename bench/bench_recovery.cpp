// Measures what durability costs: appending one framed record to the WAL,
// encoding a populated QRM snapshot, and rebuilding a durable image by
// scanning and replaying a journal after a simulated crash.
//
// Expected shape: a WAL append is a CRC over a few hundred bytes plus a
// memcpy — nanoseconds-to-microseconds, far below any admission decision it
// guards. A journaled submission adds the binary encoding of the job's
// circuit, linear in its op count. Snapshot encode is linear in live records. Recovery replay is
// linear in journal length (scan + decode + apply per event), which is why
// the checkpointer truncates replayed segments: the journal a crash must
// replay stays bounded by the snapshot cadence, not the campaign length.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <iostream>
#include <string>
#include <vector>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/sched/durable.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/sched/workload.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/recovery.hpp"
#include "hpcqc/store/snapshot.hpp"
#include "hpcqc/store/wal.hpp"

namespace {

using namespace hpcqc;

sched::Qrm::Config fast_config() {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.benchmark_overhead = minutes(2.0);
  return config;
}

sched::QuantumJob make_job(const device::DeviceModel& device, int width,
                           const std::string& name) {
  sched::QuantumJob job;
  job.name = name;
  job.circuit = calibration::GhzBenchmark::chain_circuit(device, width);
  job.shots = 300;
  return job;
}

/// Runs `jobs` submissions through a journaled QRM and returns the backend
/// holding the resulting WAL.
store::MemoryWalBackend journaled_run(int jobs) {
  Rng rng(11);
  device::DeviceModel device = device::make_iqm20(rng);
  store::MemoryWalBackend backend;
  store::Wal wal(backend);
  store::Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);
  for (int i = 0; i < jobs; ++i) {
    qrm.submit(make_job(device, 4 + i % 4, "job-" + std::to_string(i)));
    qrm.advance_to(minutes(10.0) * (i + 1));
  }
  return backend;
}

void print_reproduction() {
  std::cout << "=== Durable state: journal, snapshot, crash recovery ===\n\n";

  Rng rng(11);
  device::DeviceModel device = device::make_iqm20(rng);
  store::MemoryWalBackend backend;
  store::Wal wal(backend);
  store::Journal journal(wal);
  store::Checkpointer::Config cadence;
  cadence.interval = hours(2.0);
  store::Checkpointer checkpointer(wal, cadence);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  const int kJobs = 24;
  for (int i = 0; i < kJobs; ++i) {
    qrm.submit(make_job(device, 4 + i % 4, "job-" + std::to_string(i)));
    qrm.advance_to(minutes(20.0) * (i + 1));
    checkpointer.maybe_checkpoint(qrm);
  }

  // kill -9 with a torn tail, then rebuild from the journal alone.
  const std::size_t total = backend.total_bytes();
  backend.truncate_total(total - 17);
  Rng rng2(12);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  store::Recovery recovery(backend);
  const store::RecoveryStats stats = recovery.restore(rebuilt);
  rebuilt.drain();
  const sched::JobConservation audit = rebuilt.conservation();

  Table table({"metric", "value"});
  table.add_row({"jobs before crash", std::to_string(kJobs)});
  table.add_row({"wal bytes at crash", std::to_string(total)});
  table.add_row({"snapshot lsn", std::to_string(stats.snapshot_lsn)});
  table.add_row({"events replayed", std::to_string(stats.replayed)});
  table.add_row({"in-flight requeued", std::to_string(stats.requeued)});
  table.add_row({"torn bytes dropped", std::to_string(stats.dropped_bytes)});
  table.add_row({"scrubbed", std::to_string(stats.scrubbed)});
  table.print(std::cout);
  std::cout << "conservation after drain: " << audit.submitted
            << " submitted, " << audit.completed << " completed, "
            << audit.failed << " failed"
            << (audit.holds() ? "  [balanced]" : "  [IMBALANCE]") << "\n\n";
}

void BM_WalAppend(benchmark::State& state) {
  // One framed append: CRC32 over the body plus the backend copy.
  store::MemoryWalBackend backend;
  store::Wal wal(backend);
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) benchmark::DoNotOptimize(wal.append(1, payload));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WalAppend)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

void BM_JournalSubmitEvent(benchmark::State& state) {
  // What the journal pays per submission: encoding a kSubmitted event that
  // carries a 12-qubit, 8-layer brickwork job, plus its framed append.
  Rng rng(14);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::QuantumJob job;
  job.name = "brickwork-12x8";
  job.project = "bench";
  job.shots = 1000;
  job.circuit = sched::chain_brickwork_circuit(device, 12, 8, rng);
  sched::QuantumJobRecord record;
  record.id = 1;
  record.name = job.name;
  record.shots = job.shots;
  sched::JobEvent event;
  event.kind = sched::JobEvent::Kind::kSubmitted;
  event.id = record.id;
  event.job = &job;
  event.record = &record;

  store::MemoryWalBackend backend;
  store::Wal wal(backend);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        wal.append(static_cast<std::uint8_t>(store::RecordType::kJobEvent),
                   store::encode_job_event(event)));
  state.counters["event_bytes"] =
      static_cast<double>(store::encode_job_event(event).size());
}
BENCHMARK(BM_JournalSubmitEvent)
    ->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

void BM_SnapshotEncode(benchmark::State& state) {
  // Serializing a live QRM image with `range(0)` resident jobs.
  Rng rng(13);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm::Config config = fast_config();
  config.admission.queue_capacity = 1u << 20;
  config.admission.burst = 1e9;
  sched::Qrm qrm(device, config, rng, nullptr);
  for (int i = 0; i < state.range(0); ++i)
    qrm.submit(make_job(device, 4 + i % 4, "job-" + std::to_string(i)));
  const sched::QrmDurableState image = qrm.capture_durable();
  for (auto _ : state)
    benchmark::DoNotOptimize(store::encode_snapshot(image));
}
BENCHMARK(BM_SnapshotEncode)
    ->Arg(16)
    ->Arg(128)
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);

void BM_RecoveryReplay(benchmark::State& state) {
  // Full crash recovery: scan the WAL, decode and replay every event.
  store::MemoryWalBackend backend = journaled_run(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    store::Recovery recovery(backend);
    benchmark::DoNotOptimize(recovery.recover_qrm());
  }
  state.counters["events"] = static_cast<double>(
      store::Wal::scan(backend).records.size());
}
BENCHMARK(BM_RecoveryReplay)
    ->Arg(16)
    ->Arg(64)
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return hpcqc::bench::run_with_json(argc, argv, "BENCH_recovery.json");
}
