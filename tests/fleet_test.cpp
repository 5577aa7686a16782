// The multi-QPU fleet: config validation, fidelity/wait device selection,
// fleet admission (refuse only when no device can serve), cross-device
// migration off offline and masked devices, migration dead-letters, trace
// continuity across hops, and calibration-slot coordination. PrefetchOracle
// pins the batched structure prefetch that fronts each device's compile
// farm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/circuit/parametric.hpp"

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/mqss/compile_farm.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/sched/fleet.hpp"

namespace hpcqc::sched {
namespace {

Fleet::Config fast_config() {
  Fleet::Config config;
  config.qrm.benchmark.qubits = 8;
  config.qrm.benchmark.shots = 200;
  config.qrm.benchmark.analytic = true;
  config.qrm.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.qrm.benchmark_overhead = minutes(2.0);
  return config;
}

QuantumJob ghz_job(const device::DeviceModel& device, int qubits,
                   std::size_t shots, const std::string& name) {
  QuantumJob job;
  job.name = name;
  job.circuit = calibration::GhzBenchmark::chain_circuit(device, qubits);
  job.shots = shots;
  return job;
}

/// A fleet of `n` identical 20-qubit devices. Heap-allocated: the fleet
/// wires self-referencing calibration gates, so it never moves.
class FleetTest : public ::testing::Test {
protected:
  FleetTest() : rng_(33) {}

  std::unique_ptr<Fleet> make_fleet(int n, Fleet::Config config) {
    auto fleet = std::make_unique<Fleet>(std::move(config), rng_, &log_);
    for (int d = 0; d < n; ++d)
      fleet->add_device(
          std::make_unique<device::DeviceModel>(device::make_iqm20(rng_)));
    return fleet;
  }

  Rng rng_;
  EventLog log_;
};

TEST(FleetConfigValidation, RejectsDegenerateValuesAtConstruction) {
  Rng rng(1);
  const auto rejects = [&](auto mutate) {
    Fleet::Config config;
    mutate(config);
    EXPECT_THROW(Fleet(config, rng), PermanentError);
  };
  rejects([](Fleet::Config& c) { c.max_concurrent_calibrations = 0; });
  rejects([](Fleet::Config& c) { c.fidelity_weight = -0.1; });
  rejects([](Fleet::Config& c) { c.wait_weight = -1.0; });
  rejects([](Fleet::Config& c) {
    // Both weights zero: every device scores identically and the policy
    // degenerates to "always device 0" without saying so.
    c.fidelity_weight = 0.0;
    c.wait_weight = 0.0;
  });
  rejects([](Fleet::Config& c) { c.coordination_step = 0.0; });
  rejects([](Fleet::Config& c) { c.coordination_step = -minutes(1.0); });
}

TEST(FleetConfigValidation, ErrorNamesTheConfigAndTheProblem) {
  Rng rng(1);
  Fleet::Config config;
  config.max_concurrent_calibrations = 0;
  try {
    Fleet fleet(config, rng);
    FAIL() << "zero calibration slots was accepted";
  } catch (const PermanentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Fleet::Config"), std::string::npos) << what;
    EXPECT_NE(what.find("max_concurrent_calibrations"), std::string::npos)
        << what;
  }
}

TEST(FleetConfigValidation, QrmConfigIsValidatedPerDevice) {
  Rng rng(1);
  Fleet::Config config = fast_config();
  config.qrm.admission.queue_capacity = 0;
  Fleet fleet(config, rng);
  EXPECT_THROW(
      fleet.add_device(
          std::make_unique<device::DeviceModel>(device::make_iqm20(rng))),
      PermanentError);
}

TEST_F(FleetTest, JobsCompleteAcrossTheFleet) {
  auto owned = make_fleet(3, fast_config());
  Fleet& fleet = *owned;
  std::vector<int> ids;
  for (int k = 0; k < 6; ++k)
    ids.push_back(fleet.submit(
        ghz_job(fleet.device_model(0), 4, 300, "job-" + std::to_string(k))));
  fleet.drain();
  for (const int id : ids)
    EXPECT_EQ(fleet.state(id), QuantumJobState::kCompleted);
  const JobConservation audit = fleet.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.completed, 6u);
  EXPECT_EQ(audit.in_flight, 0u);
}

TEST_F(FleetTest, SelectionAvoidsTheMaskedDevice) {
  // Knock half of device 0's register out: its healthy-fraction discount
  // must push every placement onto the untouched peer.
  Fleet::Config config = fast_config();
  config.wait_weight = 0.0;  // isolate the fidelity term
  auto owned = make_fleet(2, config);
  Fleet& fleet = *owned;
  for (int q = 0; q < 10; ++q)
    fleet.device_model(0).set_qubit_health(q, false);

  for (int k = 0; k < 4; ++k) {
    const int id = fleet.submit(
        ghz_job(fleet.device_model(1), 4, 200, "job-" + std::to_string(k)));
    EXPECT_EQ(fleet.record(id).device, 1) << "job " << k;
  }
}

TEST_F(FleetTest, SelectionBalancesByEstimatedWait) {
  // With identical fidelity weights a long queue on one device pushes the
  // next placement to its idle peer.
  Fleet::Config config = fast_config();
  config.fidelity_weight = 0.0;  // isolate the wait term
  auto owned = make_fleet(2, config);
  Fleet& fleet = *owned;

  const int first =
      fleet.submit(ghz_job(fleet.device_model(0), 8, 200000, "long"));
  const int owner = fleet.record(first).device;
  const int second =
      fleet.submit(ghz_job(fleet.device_model(0), 4, 200, "short"));
  EXPECT_NE(fleet.record(second).device, owner);
  fleet.drain();
  EXPECT_TRUE(fleet.conservation().holds());
}

TEST_F(FleetTest, RetryBacklogCountsTowardEstimatedWaitInSelection) {
  // Regression: a device whose queue is empty but whose retry backlog is
  // deep used to report estimated_wait() == 0 and look idle to the
  // selector, so fresh work piled up behind jobs that re-enter at the
  // queue head when their backoff expires.
  Fleet::Config config = fast_config();
  config.fidelity_weight = 0.0;  // isolate the wait term
  config.qrm.retry.initial_backoff = hours(4.0);
  config.qrm.retry.max_backoff = hours(8.0);
  auto owned = make_fleet(2, config);
  Fleet& fleet = *owned;

  // A fault window on device 0 only: its job fails the first attempt and
  // parks in the retry backlog for hours.
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, minutes(30.0),
            "transient abort"});
  fault::FaultInjector injector(plan);
  fleet.qrm(0).set_fault_injector(&injector);
  const int doomed =
      fleet.qrm(0).submit(ghz_job(fleet.device_model(0), 6, 2000, "doomed"));

  fleet.advance_to(minutes(10.0));
  ASSERT_EQ(fleet.qrm(0).record(doomed).state, QuantumJobState::kRetrying);
  ASSERT_EQ(fleet.qrm(0).queue_length(), 0u);
  ASSERT_EQ(fleet.qrm(0).retry_backlog(), 1u);
  // The backlog is visible in the wait estimate even with an empty queue.
  EXPECT_GT(fleet.qrm(0).estimated_wait(), 0.0);
  EXPECT_EQ(fleet.qrm(1).retry_backlog(), 0u);

  // Selection routes the fresh job to the genuinely idle peer.
  const int placed =
      fleet.submit(ghz_job(fleet.device_model(1), 4, 200, "fresh"));
  EXPECT_EQ(fleet.record(placed).device, 1);

  fleet.drain();
  EXPECT_EQ(fleet.qrm(0).record(doomed).state, QuantumJobState::kCompleted);
  EXPECT_TRUE(fleet.conservation().holds());
}

TEST_F(FleetTest, RefusesOnlyWhenNoDeviceCanServe) {
  auto owned = make_fleet(2, fast_config());
  Fleet& fleet = *owned;
  // Wider than any register: refused as too-wide, not silently dropped.
  QuantumJob wide;
  wide.name = "too-wide";
  wide.circuit = circuit::Circuit(25);
  wide.shots = 100;
  const int wide_id = fleet.submit(std::move(wide));
  EXPECT_EQ(fleet.state(wide_id), QuantumJobState::kRejectedTooWide);
  EXPECT_EQ(fleet.record(wide_id).device, -1);
  EXPECT_FALSE(fleet.record(wide_id).refusal_reason.empty());

  // Both devices out of service: overload refusal names the outage.
  fleet.set_device_offline(0, "maintenance");
  fleet.set_device_offline(1, "maintenance");
  const int id = fleet.submit(ghz_job(fleet.device_model(0), 4, 100, "stuck"));
  EXPECT_EQ(fleet.state(id), QuantumJobState::kRejectedOverload);

  // One device back: the fleet serves again.
  fleet.set_device_online(0);
  const int ok = fleet.submit(ghz_job(fleet.device_model(0), 4, 100, "ok"));
  EXPECT_GE(fleet.record(ok).device, 0);
  fleet.drain();
  EXPECT_EQ(fleet.state(ok), QuantumJobState::kCompleted);
  const JobConservation audit = fleet.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.rejected_too_wide, 1u);
  EXPECT_EQ(audit.rejected_overload, 1u);
}

TEST_F(FleetTest, OfflineDeviceMigratesItsQueueToPeers) {
  obs::Tracer tracer;
  auto owned = make_fleet(2, fast_config());
  Fleet& fleet = *owned;
  fleet.set_tracer(&tracer);

  std::vector<int> ids;
  for (int k = 0; k < 4; ++k)
    ids.push_back(fleet.submit(
        ghz_job(fleet.device_model(0), 4, 300, "job-" + std::to_string(k))));

  // Take down every device that owns a queued job, then rebalance: the
  // queue must move to the surviving peer (jobs may already be running on
  // both devices; those requeue through the owning QRM's outage path).
  const int down = fleet.record(ids[0]).device;
  const int survivor = 1 - down;
  std::vector<int> queued;
  for (const int id : ids)
    if (fleet.record(id).device == down &&
        fleet.state(id) == QuantumJobState::kQueued)
      queued.push_back(id);
  ASSERT_FALSE(queued.empty());

  fleet.set_device_offline(down, "cryostat trip");
  fleet.rebalance();

  for (const int id : queued) {
    const Fleet::FleetJobRecord& record = fleet.record(id);
    EXPECT_EQ(record.device, survivor) << "job " << id;
    EXPECT_EQ(record.migrations, 1u);
    ASSERT_EQ(record.hops.size(), 2u);
    EXPECT_EQ(record.hops[0].first, down);
    EXPECT_EQ(record.hops[1].first, survivor);
    // The source QRM accounts the hand-off as a terminal migration.
    EXPECT_EQ(fleet.qrm(down).record(record.hops[0].second).state,
              QuantumJobState::kMigrated);
  }
  EXPECT_GE(fleet.qrm(down).metrics().jobs_migrated_out, queued.size());
  EXPECT_GE(fleet.qrm(survivor).metrics().jobs_migrated_in, queued.size());

  fleet.drain();
  for (const int id : queued)
    EXPECT_EQ(fleet.state(id), QuantumJobState::kCompleted);
  // Fleet-wide and per-device conservation both hold after the migration.
  EXPECT_TRUE(fleet.conservation().holds());
  EXPECT_TRUE(fleet.qrm(down).conservation().holds());
  EXPECT_TRUE(fleet.qrm(survivor).conservation().holds());

  // Trace continuity: each migrated job shows one fleet root span with a
  // per-device job span on both devices inside the same trace.
  for (const int id : queued) {
    const std::string name = fleet.record(id).name;
    std::uint64_t trace_id = 0;
    std::size_t device_spans = 0;
    for (const auto& span : tracer.records()) {
      if (span.name == "fleet-job:" + name) trace_id = span.trace_id;
    }
    ASSERT_NE(trace_id, 0u) << name;
    for (const auto& span : tracer.records())
      if (span.name == "job:" + name && span.trace_id == trace_id)
        device_spans += 1;
    EXPECT_EQ(device_spans, 2u) << name;
  }
}

TEST_F(FleetTest, MigrationDeadLettersWhenNoPeerFits) {
  // Two devices of different sizes: a plain 20-qubit circuit only fits the
  // big register, so when that device dies the job has nowhere to go and
  // must surface in the dead-letter queue, not vanish.
  Fleet::Config config = fast_config();
  config.qrm.benchmark.qubits = 4;
  Fleet fleet(config, rng_, &log_);
  fleet.add_device(
      std::make_unique<device::DeviceModel>(device::make_iqm20(rng_)),
      "big");
  fleet.add_device(std::make_unique<device::DeviceModel>(device::make_grid(
                       "small", 2, 3, device::DeviceSpec{},
                       device::DriftParams{}, rng_)),
                   "small");

  const int id =
      fleet.submit(ghz_job(fleet.device_model(0), 20, 400, "pinned"));
  ASSERT_EQ(fleet.record(id).device, 0);
  fleet.set_device_offline(0, "power event");
  fleet.rebalance();

  EXPECT_EQ(fleet.state(id), QuantumJobState::kFailed);
  ASSERT_EQ(fleet.qrm(0).dead_letters().size(), 1u);
  EXPECT_NE(fleet.qrm(0).dead_letters()[0].reason.find("no healthy peer"),
            std::string::npos);
  EXPECT_EQ(fleet.metrics_registry()
                .counter("fleet.migration_dead_letters")
                .value(),
            1.0);
  EXPECT_TRUE(fleet.conservation().holds());
}

TEST_F(FleetTest, CalibrationSlotsKeepPartOfTheFleetServing) {
  Fleet::Config config = fast_config();
  config.max_concurrent_calibrations = 1;
  auto owned = make_fleet(3, config);
  Fleet& fleet = *owned;

  // Two weeks of drift forces calibrations on every device; observe every
  // coordination-slice boundary.
  std::size_t max_calibrating = 0;
  std::size_t min_online = fleet.num_devices();
  const Seconds dt = config.coordination_step;
  for (Seconds t = dt; t <= days(14.0); t += dt) {
    fleet.advance_to(t);
    max_calibrating = std::max(max_calibrating, fleet.devices_calibrating());
    min_online = std::min(min_online, fleet.devices_online());
  }
  std::size_t total_calibrations = 0;
  for (int d = 0; d < 3; ++d)
    total_calibrations += fleet.qrm(d).controller().calibration_history().size();
  EXPECT_GT(total_calibrations, 0u);       // drift really forced maintenance
  EXPECT_LE(max_calibrating, 1u);          // never more than K slots
  EXPECT_EQ(min_online, fleet.num_devices());  // outage-free campaign
}

TEST_F(FleetTest, CalibrationSlotsClampToFleetSizeMinusOne) {
  // K larger than the fleet must still leave one device serving.
  Fleet::Config config = fast_config();
  config.max_concurrent_calibrations = 8;
  auto owned = make_fleet(2, config);
  Fleet& fleet = *owned;
  const Seconds dt = config.coordination_step;
  std::size_t max_calibrating = 0;
  for (Seconds t = dt; t <= days(10.0); t += dt) {
    fleet.advance_to(t);
    max_calibrating = std::max(max_calibrating, fleet.devices_calibrating());
  }
  EXPECT_LE(max_calibrating, 1u);
}

TEST_F(FleetTest, DeadLetterReplayDuringMigrationNeitherLosesNorDuplicates) {
  // Operator replay racing a fleet migration: jobs placed on device 0 are
  // partly dead-lettered, then device 0 goes down and device 1 comes up.
  // The DLQ is drained and re-submitted through the fleet BEFORE the
  // rebalance migrates device 0's surviving queue. Every job must execute
  // exactly once, the replays must not be migrated a second time, and
  // conservation must hold fleet-wide.
  obs::Tracer tracer;
  auto owned = make_fleet(2, fast_config());
  Fleet& fleet = *owned;
  fleet.set_tracer(&tracer);
  fleet.set_device_offline(1, "commissioning");

  std::vector<int> ids;
  for (int j = 0; j < 6; ++j)
    ids.push_back(fleet.submit(
        ghz_job(fleet.device_model(0), 4, 200, "job-" + std::to_string(j))));
  for (const int id : ids) ASSERT_EQ(fleet.record(id).device, 0);

  // Dead-letter the first two while they are still queued on device 0.
  for (int j = 0; j < 2; ++j)
    ASSERT_TRUE(fleet.qrm(0).dead_letter_job(fleet.record(ids[j]).local_id,
                                             "poisoned payload"));

  // The outage/recovery swap: device 0 down, device 1 back, with device
  // 0's four surviving jobs now awaiting migration.
  fleet.set_device_offline(0, "cryo outage");
  fleet.set_device_online(1);

  // Replay the DLQ through the fleet front door before the rebalance runs.
  auto letters = fleet.qrm(0).drain_dead_letters();
  ASSERT_EQ(letters.size(), 2u);
  std::vector<int> replay_ids;
  for (auto& letter : letters) {
    EXPECT_TRUE(letter.job.trace.valid());  // replay joins the failed trace
    replay_ids.push_back(fleet.submit(std::move(letter.job)));
  }
  for (const int id : replay_ids) EXPECT_EQ(fleet.record(id).device, 1);

  fleet.rebalance();
  fleet.drain();

  // Originals that survived migrated once to device 1 and completed there;
  // the dead-lettered two stay failed on device 0 — the replays, not the
  // originals, carry their work.
  for (int j = 0; j < 2; ++j) {
    EXPECT_EQ(fleet.state(ids[j]), QuantumJobState::kFailed);
    EXPECT_EQ(fleet.record(ids[j]).migrations, 0u);
  }
  for (int j = 2; j < 6; ++j) {
    EXPECT_EQ(fleet.state(ids[j]), QuantumJobState::kCompleted);
    EXPECT_EQ(fleet.record(ids[j]).device, 1);
    EXPECT_EQ(fleet.record(ids[j]).migrations, 1u);
  }
  for (const int id : replay_ids) {
    EXPECT_EQ(fleet.state(id), QuantumJobState::kCompleted);
    EXPECT_EQ(fleet.record(id).migrations, 0u);
  }

  // No double execution: device 1 completed exactly the four migrated
  // originals plus the two replays; device 0 completed nothing.
  EXPECT_EQ(fleet.qrm(1).metrics().jobs_completed, 6u);
  EXPECT_EQ(fleet.qrm(0).metrics().jobs_completed, 0u);
  EXPECT_TRUE(fleet.qrm(0).dead_letters().empty());

  const JobConservation audit = fleet.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.in_flight, 0u);
  EXPECT_EQ(audit.submitted, 8u);  // 6 originals + 2 replays
  EXPECT_EQ(audit.completed, 6u);
  EXPECT_EQ(audit.failed, 2u);
}

// PrefetchOracle: each dispatch pass hands the queued parametric jobs to
// one batched prefetch, which queues a farm task only for structures whose
// key is neither cached nor in flight. The oracle pins that this changes no
// outcome, costs one task per key compiled, re-prefetches every queued
// shape once after an epoch bump or a mask flip, and still serves correct
// programs when the cache is too small to hold the queue's shapes.

/// Three 3-qubit structures, one symbol each. At t = 0 every shape
/// measures |000>; at t = pi the ry flips one qubit (0, 1 or 2 by shape),
/// and the cz only adds a phase, so each job has one ideal outcome.
std::shared_ptr<const circuit::ParametricCircuit> oracle_shape(int shape) {
  const circuit::ParamExpr t = circuit::ParamExpr::symbol("t");
  circuit::ParametricCircuit ansatz(3);
  if (shape == 0) ansatz.ry(t, 0).cz(0, 1);
  if (shape == 1) ansatz.ry(t, 1).cz(1, 2);
  if (shape == 2) ansatz.ry(t, 2).cz(1, 2);
  ansatz.measure();
  return std::make_shared<const circuit::ParametricCircuit>(
      std::move(ansatz));
}

QuantumJob oracle_job(int shape, int index) {
  QuantumJob job;
  job.name = "oracle-" + std::to_string(index);
  job.shots = 100;
  job.parametric = oracle_shape(shape);
  job.binding = {{"t", index % 2 == 0 ? 0.0 : std::numbers::pi}};
  return job;
}

std::uint64_t oracle_outcome(int shape, int index) {
  return index % 2 == 0 ? 0 : std::uint64_t{1} << shape;
}

/// True when the job's most frequent outcome is its ideal one, with a clear
/// majority: a wrong template or a wrong binding flips the histogram.
bool ran_correct_program(const QuantumJobRecord& record,
                         std::uint64_t expected) {
  const auto& counts = record.result.counts;
  return counts.total_shots() > 0 &&
         2 * counts.count_of(expected) > counts.total_shots();
}

std::string outcome_fingerprint(const Fleet& fleet, int id) {
  const Fleet::FleetJobRecord& placed = fleet.record(id);
  std::ostringstream out;
  out << std::hexfloat << placed.device << ':' << placed.migrations;
  if (placed.device < 0) return out.str();
  const QuantumJobRecord& record =
      fleet.qrm(placed.device).record(placed.local_id);
  out << ' ' << static_cast<int>(record.state) << ' ' << record.start_time
      << ' ' << record.end_time << ' ' << record.result.estimated_fidelity;
  for (const auto& [outcome, count] : record.result.counts.raw())
    out << ' ' << outcome << '=' << count;
  return out.str();
}

std::string stats_fingerprint(const mqss::StructureCacheStats& stats) {
  return std::to_string(stats.hits) + "/" + std::to_string(stats.misses) +
         "/" + std::to_string(stats.evictions) + "/" +
         std::to_string(stats.single_flight_joins) + "/" +
         std::to_string(stats.size);
}

TEST(PrefetchOracle, FleetSliceIsIdenticalAtAnyFarmWidth) {
  // Width 0 runs no farm (every structure compiles in the foreground at
  // dispatch); 1 and 3 prefetch. Outcomes and cache statistics must not
  // tell them apart.
  struct Run {
    std::vector<std::string> outcomes;
    std::vector<std::string> stats;
  };
  const auto run = [](std::size_t workers) {
    Rng rng(33);
    Fleet::Config config = fast_config();
    config.qrm.execution_mode = device::ExecutionMode::kAuto;
    config.compile_workers = workers;
    Fleet fleet(config, rng);
    for (int d = 0; d < 3; ++d)
      fleet.add_device(
          std::make_unique<device::DeviceModel>(device::make_iqm20(rng)));
    std::vector<int> ids;
    for (int i = 0; i < 36; ++i) ids.push_back(fleet.submit(oracle_job(i % 3, i)));
    fleet.advance_to(minutes(15.0));
    for (int i = 36; i < 72; ++i) ids.push_back(fleet.submit(oracle_job(i % 3, i)));
    fleet.drain();
    Run result;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const int index = static_cast<int>(i);
      EXPECT_EQ(fleet.state(ids[i]), QuantumJobState::kCompleted) << index;
      const Fleet::FleetJobRecord& placed = fleet.record(ids[i]);
      EXPECT_TRUE(ran_correct_program(
          fleet.qrm(placed.device).record(placed.local_id),
          oracle_outcome(index % 3, index)))
          << index;
      result.outcomes.push_back(outcome_fingerprint(fleet, ids[i]));
    }
    for (int d = 0; d < 3; ++d)
      result.stats.push_back(stats_fingerprint(fleet.service(d).cache_stats()));
    return result;
  };
  const Run inline_compiles = run(0);
  for (const std::size_t workers : {1u, 3u}) {
    const Run farmed = run(workers);
    EXPECT_EQ(farmed.outcomes, inline_compiles.outcomes) << workers;
    EXPECT_EQ(farmed.stats, inline_compiles.stats) << workers;
  }
}

/// One QRM on an IQM-20 twin fronted by a farm-backed compile service.
struct PrefetchOracleQrm {
  PrefetchOracleQrm(std::size_t workers, std::size_t cache_capacity = 256)
      : rng_(21),
        device_(device::make_iqm20(rng_)),
        view_(device_, clock_),
        service_rng_(5),
        service_(device_, view_, service_rng_),
        farm_(workers),
        qrm_(device_, config(), rng_) {
    service_.set_compile_farm(&farm_);
    service_.set_compile_cache_capacity(cache_capacity);
    qrm_.set_compile_service(&service_);
  }

  static Qrm::Config config() {
    Qrm::Config config;
    config.benchmark.qubits = 8;
    config.benchmark.shots = 200;
    config.benchmark.analytic = true;
    config.execution_mode = device::ExecutionMode::kAuto;
    config.benchmark_overhead = minutes(2.0);
    return config;
  }

  Rng rng_;
  SimClock clock_;
  device::DeviceModel device_;
  qdmi::ModelBackedDevice view_;
  Rng service_rng_;
  mqss::QpuService service_;
  mqss::CompileFarm farm_;
  Qrm qrm_;
};

TEST(PrefetchOracle, FarmTasksEqualDistinctKeysCompiled) {
  // Three shapes, eight jobs each, queued at once; nothing bumps the epoch
  // while they drain. Every dispatch pass sees the queued shapes, but a
  // key is compiled once, and a farm task is only spent on a compile. The
  // submit_batch path prefetches too (without waiting), so the first pass
  // also meets keys still in flight.
  for (const std::size_t workers : {0u, 1u, 3u}) {
    for (const bool batched : {false, true}) {
      PrefetchOracleQrm oracle(workers);
      const std::uint64_t epoch = oracle.device_.calibration_epoch();
      std::vector<QuantumJob> jobs;
      for (int i = 0; i < 24; ++i) jobs.push_back(oracle_job(i % 3, i));
      std::vector<int> ids;
      if (batched) {
        ids = oracle.qrm_.submit_batch(std::move(jobs));
      } else {
        for (QuantumJob& job : jobs) ids.push_back(oracle.qrm_.submit(std::move(job)));
      }
      oracle.qrm_.drain();
      ASSERT_EQ(oracle.device_.calibration_epoch(), epoch)
          << "the oracle needs one epoch for the whole drain";
      for (const int id : ids)
        EXPECT_EQ(oracle.qrm_.record(id).state, QuantumJobState::kCompleted);
      const mqss::StructureCacheStats stats = oracle.service_.cache_stats();
      EXPECT_EQ(stats.size, 3u);
      EXPECT_EQ(stats.misses, 3u) << "one first touch per compiled key";
      EXPECT_EQ(stats.hits, 21u);
      EXPECT_EQ(oracle.farm_.tasks_executed(), 3u)
          << "workers " << workers << (batched ? ", submit_batch" : "");
    }
  }
}

/// The ModelBackedDevice view with one qubit's kOperational bit switchable
/// on its own: a mask flip the QDMI view reports without the device model
/// bumping its calibration epoch (as a telemetry-driven view can).
class MaskableView final : public qdmi::DeviceInterface {
public:
  explicit MaskableView(const qdmi::DeviceInterface& inner) : inner_(&inner) {}
  void set_masked(int qubit) { masked_ = qubit; }

  std::string name() const override { return inner_->name(); }
  int num_qubits() const override { return inner_->num_qubits(); }
  std::vector<std::pair<int, int>> coupling_map() const override {
    return inner_->coupling_map();
  }
  std::vector<std::string> native_gates() const override {
    return inner_->native_gates();
  }
  double qubit_property(qdmi::QubitProperty prop, int qubit) const override {
    if (prop == qdmi::QubitProperty::kOperational && qubit == masked_)
      return 0.0;
    return inner_->qubit_property(prop, qubit);
  }
  double coupler_property(qdmi::CouplerProperty prop, int a,
                          int b) const override {
    return inner_->coupler_property(prop, a, b);
  }
  double device_property(qdmi::DeviceProperty prop) const override {
    return inner_->device_property(prop);
  }
  qdmi::DeviceStatus status() const override { return inner_->status(); }

private:
  const qdmi::DeviceInterface* inner_;
  int masked_ = -1;
};

TEST(PrefetchOracle, EpochBumpOrMaskFlipPrefetchesEachQueuedShapeOnceMore) {
  Rng rng(21);
  device::DeviceModel device = device::make_iqm20(rng);
  SimClock clock;
  qdmi::ModelBackedDevice model_view(device, clock);
  MaskableView view(model_view);
  Rng service_rng(5);
  mqss::QpuService service(device, view, service_rng);
  mqss::CompileFarm farm(2);
  service.set_compile_farm(&farm);
  Qrm qrm(device, PrefetchOracleQrm::config(), rng);
  qrm.set_compile_service(&service);

  // Two shapes, alternating, long enough that both stay queued throughout.
  std::vector<int> ids;
  for (int i = 0; i < 8; ++i) {
    QuantumJob job = oracle_job(i % 2, i);
    job.shots = 200;
    ids.push_back(qrm.submit(std::move(job)));
  }
  const auto dispatch = [&](int index) {
    while (qrm.record(ids[index]).state == QuantumJobState::kQueued)
      qrm.advance_to(qrm.now() + 1.0);
  };
  const std::uint64_t epoch = device.calibration_epoch();

  dispatch(0);
  EXPECT_EQ(farm.tasks_executed(), 2u) << "first pass: one per shape";
  dispatch(1);
  EXPECT_EQ(farm.tasks_executed(), 2u) << "unchanged key: no new task";
  ASSERT_EQ(device.calibration_epoch(), epoch);

  // Recalibration: a new epoch keys every structure afresh.
  device.install_calibration(device.calibration());
  ASSERT_GT(device.calibration_epoch(), epoch);
  dispatch(2);
  EXPECT_EQ(farm.tasks_executed(), 4u) << "epoch bump: each shape once more";
  dispatch(3);
  EXPECT_EQ(farm.tasks_executed(), 4u);

  // An epoch-silent mask flip in the QDMI view changes the health
  // fingerprint, so it re-keys every queued shape too.
  const std::uint64_t bumped = device.calibration_epoch();
  view.set_masked(19);
  dispatch(4);
  EXPECT_EQ(device.calibration_epoch(), bumped);
  EXPECT_EQ(farm.tasks_executed(), 6u) << "mask flip: each shape once more";
  dispatch(5);
  EXPECT_EQ(farm.tasks_executed(), 6u);

  qrm.drain();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(qrm.record(ids[i]).state, QuantumJobState::kCompleted) << i;
    EXPECT_TRUE(ran_correct_program(qrm.record(ids[i]), oracle_outcome(i % 2, i)))
        << i;
  }
}

TEST(PrefetchOracle, CapacityOneStillServesCorrectPrograms) {
  // Two shapes queued against a one-entry cache: each pass's prefetch
  // evicts the other shape, so dispatch keeps missing and recompiling in
  // the foreground. That is slow, never wrong.
  for (const std::size_t workers : {0u, 3u}) {
    PrefetchOracleQrm oracle(workers, /*cache_capacity=*/1);
    std::vector<int> ids;
    for (int i = 0; i < 12; ++i)
      ids.push_back(oracle.qrm_.submit(oracle_job(i % 2, i)));
    oracle.qrm_.drain();
    for (int i = 0; i < 12; ++i) {
      const QuantumJobRecord& record = oracle.qrm_.record(ids[i]);
      EXPECT_EQ(record.state, QuantumJobState::kCompleted) << i;
      EXPECT_TRUE(ran_correct_program(record, oracle_outcome(i % 2, i)))
          << "workers " << workers << ", job " << i;
    }
    EXPECT_LE(oracle.service_.cache_stats().size, 1u);
  }
}

}  // namespace
}  // namespace hpcqc::sched
