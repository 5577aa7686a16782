#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/mqss/compile_farm.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/sched/workload.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/recovery.hpp"
#include "hpcqc/store/wal.hpp"

namespace hpcqc::sched {
namespace {

Qrm::Config fast_config() {
  Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.benchmark_overhead = minutes(2.0);
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

class QrmTest : public ::testing::Test {
protected:
  QrmTest()
      : rng_(21),
        device_(device::make_iqm20(rng_)),
        qrm_(device_, fast_config(), rng_, &log_) {}

  Rng rng_;
  device::DeviceModel device_;
  EventLog log_;
  Qrm qrm_;
};

TEST_F(QrmTest, JobLifecycle) {
  const int id = qrm_.submit(ghz_job(device_, 6, 2000, "job-a"));
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kQueued);
  qrm_.drain();
  const auto& record = qrm_.record(id);
  EXPECT_EQ(record.state, QuantumJobState::kCompleted);
  EXPECT_GE(record.start_time, record.submit_time);
  EXPECT_GT(record.end_time, record.start_time);
  EXPECT_GT(record.result.estimated_fidelity, 0.5);
  const auto metrics = qrm_.metrics();
  EXPECT_EQ(metrics.jobs_completed, 1u);
  EXPECT_EQ(metrics.total_shots, 2000u);
  EXPECT_GT(metrics.good_shots, 1000.0);
  EXPECT_LE(metrics.good_shots, 2000.0);
}

TEST_F(QrmTest, JobsRunInSubmissionOrder) {
  const int a = qrm_.submit(ghz_job(device_, 4, 500, "a"));
  const int b = qrm_.submit(ghz_job(device_, 4, 500, "b"));
  qrm_.drain();
  EXPECT_LE(qrm_.record(a).end_time, qrm_.record(b).start_time);
}

TEST_F(QrmTest, PeriodicBenchmarksHappen) {
  qrm_.advance_to(hours(10.0));
  // Benchmarks every 2 h: at least 4 recorded in 10 h.
  EXPECT_GE(qrm_.controller().benchmark_history().size(), 4u);
}

TEST_F(QrmTest, DriftTriggersCalibrationEventually) {
  qrm_.advance_to(days(14.0));
  const auto& controller = qrm_.controller();
  EXPECT_GT(controller.calibration_history().size(), 0u);
  // All calibrations happened while the queue was idle (scheduler policy).
  const auto metrics = qrm_.metrics();
  EXPECT_GT(metrics.calibration_time, 0.0);
}

TEST_F(QrmTest, ForcedCalibrationRunsFirst) {
  qrm_.request_calibration(calibration::CalibrationKind::kFull);
  const int id = qrm_.submit(ghz_job(device_, 4, 100, "after-cal"));
  qrm_.drain();
  EXPECT_EQ(qrm_.controller().calibration_count(
                calibration::CalibrationKind::kFull),
            1u);
  // The job still completed, after the calibration.
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kCompleted);
  EXPECT_GE(qrm_.record(id).start_time, minutes(100.0));
}

TEST_F(QrmTest, FullCalibrationRequestSupersedesQuick) {
  qrm_.request_calibration(calibration::CalibrationKind::kQuick);
  qrm_.request_calibration(calibration::CalibrationKind::kFull);
  qrm_.drain();
  EXPECT_EQ(qrm_.controller().calibration_count(
                calibration::CalibrationKind::kFull),
            1u);
  EXPECT_EQ(qrm_.controller().calibration_count(
                calibration::CalibrationKind::kQuick),
            0u);
}

TEST_F(QrmTest, OfflineRequeuesActiveJob) {
  const int id = qrm_.submit(ghz_job(device_, 6, 500000, "long"));
  // Step a little so the job starts but does not finish.
  qrm_.advance_to(minutes(3.0));
  ASSERT_EQ(qrm_.record(id).state, QuantumJobState::kRunning);
  qrm_.set_offline("cooling lost");
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kQueued);
  EXPECT_EQ(qrm_.status(), qdmi::DeviceStatus::kOffline);
  // While offline nothing runs.
  qrm_.advance_to(hours(2.0));
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kQueued);
  // Back online: the job restarts and completes.
  qrm_.set_online();
  qrm_.drain();
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kCompleted);
}

TEST_F(QrmTest, StatusTransitions) {
  EXPECT_EQ(qrm_.status(), qdmi::DeviceStatus::kIdle);
  qrm_.submit(ghz_job(device_, 6, 500000, "long"));
  qrm_.advance_to(minutes(3.0));
  EXPECT_EQ(qrm_.status(), qdmi::DeviceStatus::kExecuting);
  qrm_.drain();
  EXPECT_EQ(qrm_.status(), qdmi::DeviceStatus::kIdle);
}

TEST_F(QrmTest, WaitTimesAccumulate) {
  qrm_.submit(ghz_job(device_, 6, 400000, "first"));
  qrm_.submit(ghz_job(device_, 6, 400000, "second"));
  qrm_.drain();
  const auto metrics = qrm_.metrics();
  EXPECT_EQ(metrics.jobs_completed, 2u);
  EXPECT_GT(metrics.mean_wait, 0.0);
}

TEST_F(QrmTest, UnknownJobThrows) {
  EXPECT_THROW(qrm_.record(404), NotFoundError);
  EXPECT_THROW(qrm_.advance_to(-1.0), PreconditionError);
}

std::shared_ptr<const circuit::ParametricCircuit> test_ansatz() {
  circuit::ParametricCircuit ansatz(3);
  ansatz.h(0)
      .ry(circuit::ParamExpr::symbol("t0"), 0)
      .cz(0, 1)
      .cphase(circuit::ParamExpr::symbol("t1"), 1, 2)
      .measure();
  return std::make_shared<const circuit::ParametricCircuit>(
      std::move(ansatz));
}

QuantumJob parametric_job(std::string name, double theta) {
  QuantumJob job;
  job.name = std::move(name);
  job.shots = 200;
  job.parametric = test_ansatz();
  job.binding = {{"t0", theta}, {"t1", 0.5 - theta}};
  return job;
}

TEST_F(QrmTest, ParametricJobNeedsACompileService) {
  EXPECT_THROW(qrm_.submit(parametric_job("orphan", 0.3)), PreconditionError);
}

TEST_F(QrmTest, ParametricJobsPrefetchOnTheFarmAndComplete) {
  SimClock clock;
  qdmi::ModelBackedDevice qdmi(device_, clock);
  Rng service_rng(5);
  mqss::QpuService service(device_, qdmi, service_rng);
  mqss::CompileFarm farm(2);
  service.set_compile_farm(&farm);
  qrm_.set_compile_service(&service);
  ASSERT_EQ(qrm_.compile_service(), &service);

  // An optimizer burst: same structure, three bindings. Dispatch prefetches
  // the structure through the farm; every job binds against the one cached
  // template.
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(qrm_.submit(parametric_job("vqe-" + std::to_string(i),
                                             0.2 * (i + 1))));
  qrm_.drain();
  for (const int id : ids) {
    const auto& record = qrm_.record(id);
    EXPECT_EQ(record.state, QuantumJobState::kCompleted);
    EXPECT_EQ(record.result.shots, 200u);
  }
  // One structure under one epoch and mask: one farm task, however many
  // dispatch passes saw it queued.
  EXPECT_EQ(farm.tasks_executed(), 1u);
  const auto stats = service.cache_stats();
  EXPECT_GE(stats.hits + stats.misses, 3u);
  EXPECT_GE(stats.hits, 1u);  // at least one structure reuse across jobs
  qrm_.set_compile_service(nullptr);
}

TEST_F(QrmTest, ParametricJobsWorkWithoutAFarmToo) {
  SimClock clock;
  qdmi::ModelBackedDevice qdmi(device_, clock);
  Rng service_rng(5);
  mqss::QpuService service(device_, qdmi, service_rng);
  qrm_.set_compile_service(&service);
  const int id = qrm_.submit(parametric_job("solo", 0.7));
  qrm_.drain();
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kCompleted);
  qrm_.set_compile_service(nullptr);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff = seconds(30.0);
  policy.backoff_factor = 2.0;
  policy.max_backoff = minutes(2.0);
  EXPECT_DOUBLE_EQ(policy.backoff(1), 30.0);
  EXPECT_DOUBLE_EQ(policy.backoff(2), 60.0);
  EXPECT_DOUBLE_EQ(policy.backoff(3), 120.0);
  EXPECT_DOUBLE_EQ(policy.backoff(4), 120.0);  // capped
  EXPECT_THROW(policy.backoff(0), PreconditionError);
}

TEST_F(QrmTest, OfflineMidJobRecordsInterruptionWithoutChargingAnAttempt) {
  // Pinned set_offline mid-phase semantics: the in-flight job returns to
  // the queue head, the interruption is recorded, and no retry attempt is
  // consumed — an outage is the facility's fault, not the job's.
  const int id = qrm_.submit(ghz_job(device_, 6, 500000, "long"));
  qrm_.advance_to(minutes(3.0));
  ASSERT_EQ(qrm_.record(id).state, QuantumJobState::kRunning);
  EXPECT_EQ(qrm_.record(id).attempts, 1u);

  qrm_.set_offline("cooling lost");
  const QuantumJobRecord& record = qrm_.record(id);
  EXPECT_EQ(record.state, QuantumJobState::kQueued);
  EXPECT_EQ(record.attempts, 0u);
  EXPECT_EQ(record.interruptions, 1u);
  EXPECT_NE(record.failure_reason.find("outage"), std::string::npos);

  qrm_.set_online();
  qrm_.drain();
  EXPECT_EQ(record.state, QuantumJobState::kCompleted);
  EXPECT_EQ(record.attempts, 1u);
  // The restart is not a retry: no attempt failed.
  EXPECT_EQ(qrm_.metrics().retries, 0u);
  EXPECT_EQ(qrm_.metrics().execution_faults, 0u);
}

TEST_F(QrmTest, OfflineMidCalibrationReArmsIt) {
  qrm_.request_calibration(calibration::CalibrationKind::kFull);
  qrm_.advance_to(minutes(10.0));
  ASSERT_EQ(qrm_.status(), qdmi::DeviceStatus::kCalibrating);
  qrm_.set_offline("power cut");
  qrm_.set_online();
  qrm_.drain();
  // The interrupted calibration ran to completion after the outage.
  EXPECT_EQ(qrm_.controller().calibration_count(
                calibration::CalibrationKind::kFull),
            1u);
}

TEST_F(QrmTest, TransientExecutionFaultRetriesThenCompletes) {
  // A short device-execution fault window covers the first attempt; the
  // retry backoff pushes the second attempt past it.
  qrm_.advance_to(minutes(10.0));
  fault::FaultPlan plan;
  plan.add({minutes(10.0), fault::FaultSite::kDeviceExecution, seconds(10.0),
            "control electronics glitch"});
  fault::FaultInjector injector(plan);
  qrm_.set_fault_injector(&injector);

  const int id = qrm_.submit(ghz_job(device_, 4, 1000, "flaky"));
  qrm_.drain();
  const QuantumJobRecord& record = qrm_.record(id);
  EXPECT_EQ(record.state, QuantumJobState::kCompleted);
  EXPECT_EQ(record.attempts, 2u);
  const auto metrics = qrm_.metrics();
  EXPECT_EQ(metrics.retries, 1u);
  EXPECT_EQ(metrics.execution_faults, 1u);
  EXPECT_EQ(metrics.jobs_failed, 0u);
  EXPECT_EQ(qrm_.dead_letters().size(), 0u);
}

TEST_F(QrmTest, ExhaustedRetryBudgetDeadLetters) {
  // The fault window outlasts every backoff: all three attempts fail and
  // the job lands in the dead-letter record instead of silently vanishing.
  qrm_.advance_to(minutes(10.0));
  fault::FaultPlan plan;
  plan.add({minutes(10.0), fault::FaultSite::kDeviceExecution, minutes(10.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm_.set_fault_injector(&injector);

  const int id = qrm_.submit(ghz_job(device_, 4, 1000, "doomed"));
  qrm_.drain();
  const QuantumJobRecord& record = qrm_.record(id);
  EXPECT_EQ(record.state, QuantumJobState::kFailed);
  EXPECT_EQ(record.attempts, 3u);
  ASSERT_EQ(qrm_.dead_letters().size(), 1u);
  EXPECT_EQ(qrm_.dead_letters()[0].id, id);
  EXPECT_EQ(qrm_.dead_letters()[0].attempts, 3u);
  const auto metrics = qrm_.metrics();
  EXPECT_EQ(metrics.jobs_failed, 1u);
  EXPECT_EQ(metrics.retries, 2u);
  EXPECT_EQ(metrics.execution_faults, 3u);
  EXPECT_EQ(metrics.jobs_completed, 0u);

  // The machine is fine once the window passes: the next job completes.
  const int ok = qrm_.submit(ghz_job(device_, 4, 1000, "fine"));
  qrm_.drain();
  EXPECT_EQ(qrm_.record(ok).state, QuantumJobState::kCompleted);
}

TEST_F(QrmTest, CalibrationFaultReArmsAndRetries) {
  qrm_.advance_to(minutes(10.0));
  fault::FaultPlan plan;
  plan.add({minutes(10.0), fault::FaultSite::kCalibration, minutes(2.0),
            "calibration did not converge"});
  fault::FaultInjector injector(plan);
  qrm_.set_fault_injector(&injector);

  qrm_.request_calibration(calibration::CalibrationKind::kQuick);
  qrm_.drain();
  EXPECT_EQ(qrm_.metrics().calibrations_failed, 1u);
  // The re-armed calibration succeeded once the window passed.
  EXPECT_EQ(qrm_.controller().calibration_count(
                calibration::CalibrationKind::kQuick),
            1u);
}

TEST_F(QrmTest, CancelQueuedAndRetryingJobs) {
  qrm_.set_offline("maintenance");  // hold the queue so nothing starts
  const int a = qrm_.submit(ghz_job(device_, 4, 500, "a"));
  const int b = qrm_.submit(ghz_job(device_, 4, 500, "b"));
  EXPECT_TRUE(qrm_.cancel(a, "superseded"));
  EXPECT_FALSE(qrm_.cancel(a));  // already terminal
  EXPECT_EQ(qrm_.record(a).state, QuantumJobState::kCancelled);
  EXPECT_EQ(qrm_.record(a).failure_reason, "superseded");
  EXPECT_THROW(qrm_.cancel(404), NotFoundError);

  qrm_.set_online();
  qrm_.drain();
  EXPECT_EQ(qrm_.record(a).state, QuantumJobState::kCancelled);
  EXPECT_EQ(qrm_.record(b).state, QuantumJobState::kCompleted);
  const auto metrics = qrm_.metrics();
  EXPECT_EQ(metrics.jobs_cancelled, 1u);
  EXPECT_EQ(metrics.jobs_completed, 1u);
}

TEST_F(QrmTest, RunningJobCannotBeCancelled) {
  const int id = qrm_.submit(ghz_job(device_, 6, 500000, "long"));
  qrm_.advance_to(minutes(3.0));
  ASSERT_EQ(qrm_.record(id).state, QuantumJobState::kRunning);
  EXPECT_FALSE(qrm_.cancel(id));
  qrm_.drain();
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kCompleted);
}

TEST(QrmPolicy, SchedulerControlledBeatsFixedIntervalOnGoodShots) {
  // The Lesson-2 ablation in miniature: identical workloads, different
  // calibration trigger policies, compared on fidelity-weighted shots.
  const auto run_policy = [](calibration::TriggerPolicy policy) {
    Rng rng(33);
    device::DeviceModel device = device::make_iqm20(rng);
    Qrm::Config config = fast_config();
    config.controller.policy = policy;
    config.controller.fixed_interval = hours(48.0);
    Qrm qrm(device, config, rng, nullptr);

    Rng workload_rng(7);
    auto jobs = generate_quantum_workload(
        device, {days(7.0), 3.0, 4, 16, 500, 2000, 4}, workload_rng);
    for (auto& [at, job] : jobs) {
      qrm.advance_to(at);
      qrm.submit(std::move(job));
    }
    qrm.advance_to(days(7.0));
    qrm.drain();
    const auto metrics = qrm.metrics();
    return metrics.good_shots / static_cast<double>(metrics.total_shots);
  };

  const double adaptive =
      run_policy(calibration::TriggerPolicy::kSchedulerControlled);
  const double fixed = run_policy(calibration::TriggerPolicy::kFixedInterval);
  EXPECT_GT(adaptive, fixed);
}

TEST(QrmConfigValidation, RejectsDegenerateValuesAtConstruction) {
  Rng rng(1);
  device::DeviceModel device = device::make_iqm20(rng);
  const auto rejects = [&](auto mutate) {
    Qrm::Config config = fast_config();
    mutate(config);
    EXPECT_THROW(Qrm(device, config, rng, nullptr), PermanentError);
  };
  rejects([](Qrm::Config& c) { c.retry.max_attempts = 0; });
  rejects([](Qrm::Config& c) { c.retry.initial_backoff = 0.0; });
  rejects([](Qrm::Config& c) { c.retry.backoff_factor = 0.5; });
  rejects([](Qrm::Config& c) { c.retry.max_backoff = seconds(1.0); });
  rejects([](Qrm::Config& c) { c.job_overhead = -1.0; });
  rejects([](Qrm::Config& c) { c.benchmark_overhead = -1.0; });
  rejects([](Qrm::Config& c) { c.max_defer_factor = 0.9; });
  rejects([](Qrm::Config& c) { c.admission.queue_capacity = 0; });
  rejects([](Qrm::Config& c) { c.admission.dead_letter_capacity = 0; });
  rejects([](Qrm::Config& c) { c.admission.high_rate_per_hour = 0.0; });
  rejects([](Qrm::Config& c) { c.admission.normal_rate_per_hour = -1.0; });
  rejects([](Qrm::Config& c) { c.admission.low_rate_per_hour = 0.0; });
  rejects([](Qrm::Config& c) { c.admission.burst = 0.0; });
  rejects([](Qrm::Config& c) { c.admission.brownout_wait_limit = 0.0; });
  rejects([](Qrm::Config& c) { c.admission.brownout_exit_fraction = 0.0; });
  rejects([](Qrm::Config& c) { c.admission.brownout_exit_fraction = 1.5; });
  rejects([](Qrm::Config& c) { c.benchmark.shots = 0; });
  rejects([](Qrm::Config& c) { c.benchmark.qubits = -1; });
  rejects([](Qrm::Config& c) { c.controller.benchmark_period = 0.0; });
  rejects([](Qrm::Config& c) { c.controller.max_calibration_age = -1.0; });
  rejects([](Qrm::Config& c) { c.controller.fixed_interval = 0.0; });
  rejects([](Qrm::Config& c) { c.controller.quick_fraction = 0.0; });
  rejects([](Qrm::Config& c) { c.controller.quick_fraction = 1.5; });
  rejects([](Qrm::Config& c) { c.controller.full_fraction = 0.0; });
  rejects([](Qrm::Config& c) {
    // full must not exceed quick: full recalibration triggers at *worse*
    // drift than a quick touch-up.
    c.controller.quick_fraction = 0.5;
    c.controller.full_fraction = 0.8;
  });
}

TEST(QrmConfigValidation, ErrorNamesTheConfigAndTheProblem) {
  Rng rng(1);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.admission.queue_capacity = 0;
  try {
    Qrm qrm(device, config, rng, nullptr);
    FAIL() << "zero queue capacity was accepted";
  } catch (const PermanentError& e) {
    EXPECT_NE(std::string(e.what()).find("Qrm::Config"), std::string::npos)
        << e.what();
  }
}

TEST(QrmAdmission, FullQueueRefusesWithTerminalRecord) {
  Rng rng(5);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.admission.queue_capacity = 2;
  Qrm qrm(device, config, rng, nullptr);
  qrm.set_offline("hold the queue");

  const int a = qrm.submit(ghz_job(device, 4, 500, "a"));
  const int b = qrm.submit(ghz_job(device, 4, 500, "b"));
  const int c = qrm.submit(ghz_job(device, 4, 500, "c"));
  EXPECT_EQ(qrm.record(c).state, QuantumJobState::kRejectedOverload);
  EXPECT_NE(qrm.record(c).failure_reason.find("queue full"),
            std::string::npos);
  EXPECT_EQ(qrm.metrics().jobs_rejected_overload, 1u);

  const JobConservation before = qrm.conservation();
  EXPECT_TRUE(before.holds());
  EXPECT_EQ(before.rejected_overload, 1u);
  EXPECT_EQ(before.in_flight, 2u);

  qrm.set_online();
  qrm.drain();
  EXPECT_EQ(qrm.record(a).state, QuantumJobState::kCompleted);
  EXPECT_EQ(qrm.record(b).state, QuantumJobState::kCompleted);
  const JobConservation after = qrm.conservation();
  EXPECT_TRUE(after.holds());
  EXPECT_EQ(after.in_flight, 0u);
}

TEST(QrmAdmission, TokenBucketLimitsBurstsAndRefillsOverTime) {
  Rng rng(5);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.admission.burst = 2.0;
  config.admission.normal_rate_per_hour = 3600.0;  // one token per second
  Qrm qrm(device, config, rng, nullptr);
  qrm.set_offline("hold the queue");

  qrm.submit(ghz_job(device, 4, 500, "a"));
  qrm.submit(ghz_job(device, 4, 500, "b"));
  const int c = qrm.submit(ghz_job(device, 4, 500, "c"));
  EXPECT_EQ(qrm.record(c).state, QuantumJobState::kRejectedOverload);
  EXPECT_NE(qrm.record(c).failure_reason.find("admission rate"),
            std::string::npos);

  // The bucket refills in simulated time: two seconds buys two tokens.
  qrm.advance_to(seconds(2.0));
  const int d = qrm.submit(ghz_job(device, 4, 500, "d"));
  EXPECT_EQ(qrm.record(d).state, QuantumJobState::kQueued);
}

TEST(QrmAdmission, BrownoutShedsLowPriorityAndClearsWithHysteresis) {
  Rng rng(5);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.job_overhead = minutes(10.0);
  config.admission.brownout_wait_limit = minutes(25.0);
  Qrm qrm(device, config, rng, nullptr);
  qrm.set_offline("hold the queue");

  QuantumJob low = ghz_job(device, 4, 500, "low");
  low.priority = JobPriority::kLow;
  const int a = qrm.submit(std::move(low));
  const int b = qrm.submit(ghz_job(device, 4, 500, "b"));
  EXPECT_FALSE(qrm.brownout());

  // The third admission pushes the estimated wait past the limit: brownout
  // engages and sheds the queued low-priority job.
  const int c = qrm.submit(ghz_job(device, 4, 500, "c"));
  EXPECT_TRUE(qrm.brownout());
  EXPECT_EQ(qrm.record(a).state, QuantumJobState::kShed);
  EXPECT_NE(qrm.record(a).failure_reason.find("brownout"), std::string::npos);
  EXPECT_EQ(qrm.metrics().jobs_shed, 1u);

  // While browned out, new low-priority work is refused at the door; normal
  // priority is still admitted.
  QuantumJob low2 = ghz_job(device, 4, 500, "low2");
  low2.priority = JobPriority::kLow;
  const int d = qrm.submit(std::move(low2));
  EXPECT_EQ(qrm.record(d).state, QuantumJobState::kRejectedOverload);
  EXPECT_NE(qrm.record(d).failure_reason.find("brownout"), std::string::npos);
  const int e = qrm.submit(ghz_job(device, 4, 500, "e"));
  EXPECT_EQ(qrm.record(e).state, QuantumJobState::kQueued);

  // Draining the backlog clears the brownout (with hysteresis).
  qrm.set_online();
  qrm.drain();
  EXPECT_FALSE(qrm.brownout());
  EXPECT_EQ(qrm.record(b).state, QuantumJobState::kCompleted);
  EXPECT_EQ(qrm.record(c).state, QuantumJobState::kCompleted);
  EXPECT_EQ(qrm.record(e).state, QuantumJobState::kCompleted);
  const JobConservation audit = qrm.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.shed, 1u);
  EXPECT_EQ(audit.rejected_overload, 1u);
  EXPECT_EQ(audit.in_flight, 0u);
}

TEST_F(QrmTest, DegradedHoldSkipsMaskedJobsUntilRecovery) {
  // Job A is compiled while healthy and touches the first four qubits of
  // the serpentine chain; masking one of them makes A unrunnable but must
  // not block the queue behind it.
  const auto chain = device_.topology().coupled_chain();
  const int a = qrm_.submit(ghz_job(device_, 4, 500, "masked-job"));
  device_.set_qubit_health(chain[1], false);
  const int b = qrm_.submit(ghz_job(device_, 4, 500, "healthy-job"));

  qrm_.advance_to(hours(1.0));
  EXPECT_EQ(qrm_.record(b).state, QuantumJobState::kCompleted);
  EXPECT_EQ(qrm_.record(a).state, QuantumJobState::kQueued);
  EXPECT_GE(qrm_.metrics().degraded_holds, 1u);

  // Once the supervisor unmasks the qubit the held job runs to completion.
  device_.set_qubit_health(chain[1], true);
  qrm_.drain();
  EXPECT_EQ(qrm_.record(a).state, QuantumJobState::kCompleted);
  EXPECT_GE(qrm_.record(a).start_time, qrm_.record(b).end_time);
  EXPECT_TRUE(qrm_.conservation().holds());
}

TEST_F(QrmTest, TooWideForTheDegradedDeviceIsRefusedUpFront) {
  const circuit::Circuit wide =
      calibration::GhzBenchmark::chain_circuit(device_, device_.num_qubits());
  device_.set_qubit_health(device_.topology().coupled_chain()[0], false);
  QuantumJob job;
  job.name = "wide";
  job.circuit = wide;
  job.shots = 100;
  const int id = qrm_.submit(std::move(job));
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kRejectedTooWide);
  EXPECT_NE(qrm_.record(id).failure_reason.find("largest healthy component"),
            std::string::npos);
  EXPECT_EQ(qrm_.metrics().jobs_rejected_too_wide, 1u);
}

TEST(QrmDeadLetter, OverflowDropsOldestAndCountsTheDrop) {
  Rng rng(9);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.retry.max_attempts = 1;
  config.admission.dead_letter_capacity = 2;
  Qrm qrm(device, config, rng, nullptr);
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(10.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  const int a = qrm.submit(ghz_job(device, 4, 500, "a"));
  const int b = qrm.submit(ghz_job(device, 4, 500, "b"));
  const int c = qrm.submit(ghz_job(device, 4, 500, "c"));
  qrm.drain();

  // All three dead-lettered; the DLQ keeps the newest two and counts the
  // dropped record — nothing vanishes unaccounted.
  EXPECT_EQ(qrm.metrics().jobs_failed, 3u);
  ASSERT_EQ(qrm.dead_letters().size(), 2u);
  EXPECT_EQ(qrm.dead_letters()[0].id, b);
  EXPECT_EQ(qrm.dead_letters()[1].id, c);
  EXPECT_EQ(qrm.metrics().dead_letters_dropped, 1u);
  EXPECT_EQ(qrm.record(a).state, QuantumJobState::kFailed);
  const JobConservation audit = qrm.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.failed, 3u);
}

TEST(QrmDeadLetter, ExhaustionOrderIsPreservedInTheDlq) {
  Rng rng(9);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.retry.max_attempts = 2;
  Qrm qrm(device, config, rng, nullptr);
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(10.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  const int a = qrm.submit(ghz_job(device, 4, 500, "a"));
  const int b = qrm.submit(ghz_job(device, 4, 500, "b"));
  qrm.drain();

  ASSERT_EQ(qrm.dead_letters().size(), 2u);
  EXPECT_EQ(qrm.dead_letters()[0].id, a);
  EXPECT_EQ(qrm.dead_letters()[1].id, b);
  EXPECT_EQ(qrm.dead_letters()[0].attempts, 2u);
  EXPECT_LE(qrm.dead_letters()[0].failed_at, qrm.dead_letters()[1].failed_at);
}

TEST(QrmDeadLetter, DrainedLettersReplayUnderTheOriginalTraceContext) {
  Rng rng(11);
  device::DeviceModel device = device::make_iqm20(rng);
  obs::Tracer tracer;
  Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_tracer(&tracer);
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(2.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  const int id = qrm.submit(ghz_job(device, 4, 500, "doomed"));
  qrm.drain();
  ASSERT_EQ(qrm.record(id).state, QuantumJobState::kFailed);
  const std::uint64_t original_trace = [&] {
    for (const auto& span : tracer.records())
      if (span.name == "job:doomed") return span.trace_id;
    return std::uint64_t{0};
  }();
  ASSERT_NE(original_trace, 0u);

  auto letters = qrm.drain_dead_letters();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_TRUE(qrm.dead_letters().empty());
  EXPECT_EQ(qrm.metrics().dead_letters_drained, 1u);
  EXPECT_EQ(letters[0].id, id);
  // The replay payload carries the failed run's trace context (the client
  // supplied none), so the retry nests inside the original trace.
  ASSERT_TRUE(letters[0].job.trace.valid());
  EXPECT_EQ(letters[0].job.trace, letters[0].trace);

  // Replaying once the fault window has cleared succeeds...
  qrm.advance_to(hours(3.0));
  const int replay = qrm.submit(std::move(letters[0].job));
  qrm.drain();
  EXPECT_EQ(qrm.record(replay).state, QuantumJobState::kCompleted);
  // ...and every span of the replayed run carries the original trace id.
  std::size_t replay_spans = 0;
  for (const auto& span : tracer.records()) {
    if (span.name != "job:doomed" || span.start < hours(3.0)) continue;
    replay_spans += 1;
    EXPECT_EQ(span.trace_id, original_trace);
  }
  EXPECT_EQ(replay_spans, 1u);
  const JobConservation audit = qrm.conservation();
  EXPECT_TRUE(audit.holds());
}

TEST(QrmDeadLetter, DrainReturnsLettersInFailureOrderAndReplaysInOrder) {
  Rng rng(13);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.retry.max_attempts = 1;
  Qrm qrm(device, config, rng, nullptr);
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(2.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  const int a = qrm.submit(ghz_job(device, 4, 500, "first"));
  const int b = qrm.submit(ghz_job(device, 4, 500, "second"));
  const int c = qrm.submit(ghz_job(device, 4, 500, "third"));
  qrm.drain();

  auto letters = qrm.drain_dead_letters();
  ASSERT_EQ(letters.size(), 3u);
  // Drain preserves failure order (== submission order here): the replay
  // loop re-submits oldest-first, so recovered work keeps its FIFO shape.
  EXPECT_EQ(letters[0].id, a);
  EXPECT_EQ(letters[1].id, b);
  EXPECT_EQ(letters[2].id, c);
  EXPECT_LE(letters[0].failed_at, letters[1].failed_at);
  EXPECT_LE(letters[1].failed_at, letters[2].failed_at);

  // Replaying in drain order after the fault window completes in the same
  // order.
  qrm.advance_to(hours(3.0));
  std::vector<int> replays;
  for (auto& letter : letters)
    replays.push_back(qrm.submit(std::move(letter.job)));
  qrm.drain();
  for (std::size_t i = 0; i + 1 < replays.size(); ++i) {
    EXPECT_EQ(qrm.record(replays[i]).state, QuantumJobState::kCompleted);
    EXPECT_LE(qrm.record(replays[i]).end_time,
              qrm.record(replays[i + 1]).start_time);
  }
  EXPECT_EQ(qrm.record(replays.back()).state, QuantumJobState::kCompleted);
  EXPECT_TRUE(qrm.conservation().holds());
}

TEST(QrmDeadLetter, DrainKeepsAClientSuppliedTraceContext) {
  Rng rng(15);
  device::DeviceModel device = device::make_iqm20(rng);
  obs::Tracer tracer;
  Qrm::Config config = fast_config();
  config.retry.max_attempts = 1;
  Qrm qrm(device, config, rng, nullptr);
  qrm.set_tracer(&tracer);
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(2.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  // The client owns a submission span; its context rides on the job.
  const obs::SpanHandle client = tracer.begin_span("client-submit", 0.0);
  const obs::TraceContext client_context = tracer.context(client);
  QuantumJob job = ghz_job(device, 4, 500, "traced");
  job.trace = client_context;
  const int id = qrm.submit(std::move(job));
  qrm.drain();
  ASSERT_EQ(qrm.record(id).state, QuantumJobState::kFailed);

  auto letters = qrm.drain_dead_letters();
  ASSERT_EQ(letters.size(), 1u);
  // The drain must NOT overwrite a client-supplied context with the failed
  // run's root — the client's trace stays the authority on replay.
  EXPECT_EQ(letters[0].job.trace, client_context);
  EXPECT_EQ(letters[0].job.trace.trace_id, client_context.trace_id);
  tracer.end_span(client, 1.0, obs::SpanStatus::kOk);
}

TEST(QrmDeadLetter, SecondDrainIsEmptyAndDoesNotInflateTheCounter) {
  Rng rng(17);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config = fast_config();
  config.retry.max_attempts = 1;
  Qrm qrm(device, config, rng, nullptr);
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(2.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  qrm.submit(ghz_job(device, 4, 500, "doomed"));
  qrm.drain();
  EXPECT_EQ(qrm.drain_dead_letters().size(), 1u);
  EXPECT_EQ(qrm.metrics().dead_letters_drained, 1u);
  // An empty drain hands out nothing and leaves the counter alone.
  EXPECT_TRUE(qrm.drain_dead_letters().empty());
  EXPECT_EQ(qrm.metrics().dead_letters_drained, 1u);
  EXPECT_TRUE(qrm.dead_letters().empty());
}

TEST(QrmDeadLetter, QueuedJobDeadLetteredDirectlyDrainsWithItsTrace) {
  // The migration-failure path (dead_letter_job on a queued payload) must
  // produce a drainable letter whose payload joins the original trace,
  // exactly like the retry-exhaustion path.
  Rng rng(19);
  device::DeviceModel device = device::make_iqm20(rng);
  obs::Tracer tracer;
  Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_tracer(&tracer);

  const int running = qrm.submit(ghz_job(device, 4, 500000, "running"));
  const int parked = qrm.submit(ghz_job(device, 4, 500, "parked"));
  qrm.advance_to(minutes(3.0));
  ASSERT_EQ(qrm.record(running).state, QuantumJobState::kRunning);
  ASSERT_TRUE(qrm.dead_letter_job(parked, "no migration target"));
  const obs::TraceContext root = qrm.record(parked).trace;
  ASSERT_TRUE(root.valid());

  auto letters = qrm.drain_dead_letters();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].id, parked);
  EXPECT_EQ(letters[0].trace, root);
  EXPECT_TRUE(letters[0].job.trace.valid());
  EXPECT_EQ(letters[0].job.trace, root);
  qrm.drain();
  EXPECT_TRUE(qrm.conservation().holds());
}

TEST(QrmDeadLetter, WalRoundTripPreservesLettersAcrossACrash) {
  // Dead-letter -> crash -> recover -> drain. The rebuilt control plane
  // must hold exactly the same DLQ (ids, attempts, reasons, trace
  // contexts), keep terminal jobs terminal (exactly-once: the failed run is
  // never re-executed by recovery), and replay the drained payload under
  // the original trace context.
  Rng rng(29);
  device::DeviceModel device = device::make_iqm20(rng);
  obs::Tracer tracer;
  store::MemoryWalBackend backend;
  store::Wal wal(backend);
  store::Journal journal(wal);
  Qrm::Config config = fast_config();
  config.retry.max_attempts = 1;

  int doomed = 0, fine = 0;
  obs::TraceContext letter_trace;
  std::uint64_t attempts = 0;
  std::string reason;
  {
    Qrm qrm(device, config, rng, nullptr);
    qrm.set_tracer(&tracer);
    qrm.set_journal(&journal, 0);
    fault::FaultPlan plan;
    plan.add({0.0, fault::FaultSite::kDeviceExecution, hours(2.0),
              "persistent abort"});
    fault::FaultInjector injector(plan);
    qrm.set_fault_injector(&injector);

    doomed = qrm.submit(ghz_job(device, 4, 500, "doomed"));
    qrm.drain();
    ASSERT_EQ(qrm.record(doomed).state, QuantumJobState::kFailed);
    qrm.advance_to(hours(3.0));
    fine = qrm.submit(ghz_job(device, 4, 500, "fine"));
    qrm.drain();
    ASSERT_EQ(qrm.record(fine).state, QuantumJobState::kCompleted);
    ASSERT_EQ(qrm.dead_letters().size(), 1u);
    letter_trace = qrm.dead_letters()[0].trace;
    attempts = qrm.dead_letters()[0].attempts;
    reason = qrm.dead_letters()[0].reason;
    ASSERT_TRUE(letter_trace.valid());
  }  // kill -9: the Qrm is gone, only the journal survives

  Rng rng2(31);
  Qrm rebuilt(device, config, rng2, nullptr);
  store::Recovery recovery(backend);
  recovery.restore(rebuilt);

  // Exactly-once: both terminal outcomes are frozen, nothing re-ran.
  EXPECT_EQ(rebuilt.record(doomed).state, QuantumJobState::kFailed);
  EXPECT_EQ(rebuilt.record(fine).state, QuantumJobState::kCompleted);
  ASSERT_EQ(rebuilt.dead_letters().size(), 1u);
  EXPECT_EQ(rebuilt.dead_letters()[0].id, doomed);
  EXPECT_EQ(rebuilt.dead_letters()[0].attempts, attempts);
  EXPECT_EQ(rebuilt.dead_letters()[0].reason, reason);
  EXPECT_EQ(rebuilt.dead_letters()[0].trace, letter_trace);

  auto letters = rebuilt.drain_dead_letters();
  ASSERT_EQ(letters.size(), 1u);
  EXPECT_EQ(letters[0].id, doomed);
  EXPECT_EQ(letters[0].trace, letter_trace);
  ASSERT_TRUE(letters[0].job.trace.valid());
  EXPECT_EQ(letters[0].job.trace, letter_trace);
  EXPECT_EQ(rebuilt.metrics().dead_letters_drained, 1u);

  // No injector on the rebuilt plane: the replay completes, the original
  // failure stays failed, and the books balance.
  const int replay = rebuilt.submit(std::move(letters[0].job));
  rebuilt.drain();
  EXPECT_EQ(rebuilt.record(replay).state, QuantumJobState::kCompleted);
  EXPECT_EQ(rebuilt.record(doomed).state, QuantumJobState::kFailed);
  const JobConservation audit = rebuilt.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.failed, 1u);
  EXPECT_EQ(audit.completed, 2u);
}

TEST_F(QrmTest, RepeatedOfflineMidRunDoesNotDuplicateTheJob) {
  // A duplicate outage notification while already offline must not requeue
  // the interrupted job a second time.
  const int id = qrm_.submit(ghz_job(device_, 6, 500000, "long"));
  qrm_.advance_to(minutes(3.0));
  ASSERT_EQ(qrm_.record(id).state, QuantumJobState::kRunning);
  qrm_.set_offline("first outage");
  qrm_.set_offline("duplicate outage notification");
  EXPECT_EQ(qrm_.queue_length(), 1u);
  EXPECT_EQ(qrm_.record(id).interruptions, 1u);

  qrm_.set_online();
  qrm_.drain();
  EXPECT_EQ(qrm_.record(id).state, QuantumJobState::kCompleted);
  EXPECT_EQ(qrm_.record(id).attempts, 1u);
  const JobConservation audit = qrm_.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.submitted, 1u);
  EXPECT_EQ(audit.completed, 1u);
}

TEST(QrmTenantMetrics, CardinalityIsCappedAndTheTailSharesOneSeries) {
  // 50 distinct projects against a 4-series cap: without the cap the
  // registry would grow 3 counters per project (150 series); with it the
  // first 4 projects get dedicated qrm.tenant.<project>.* counters and the
  // other 46 share the qrm.tenant.other.* rollup.
  Rng rng(21);
  device::DeviceModel device = device::make_iqm20(rng);
  EventLog log;
  Qrm::Config config = fast_config();
  config.admission.tenant_metric_series = 4;
  Qrm qrm(device, config, rng, &log);
  for (int p = 0; p < 50; ++p) {
    QuantumJob job = ghz_job(device, 4, 100, "job-" + std::to_string(p));
    job.project = "proj-" + std::to_string(p);
    qrm.submit(std::move(job));
  }
  qrm.drain();

  const obs::MetricsSnapshot snapshot =
      qrm.metrics_registry().snapshot("qrm.tenant.");
  EXPECT_EQ(snapshot.counters.size(), (4u + 1u) * 3u);
  for (int p = 0; p < 4; ++p) {
    const auto* dedicated = snapshot.counter(
        "qrm.tenant.proj-" + std::to_string(p) + ".submitted");
    ASSERT_NE(dedicated, nullptr) << "proj-" << p;
    EXPECT_EQ(dedicated->value, 1.0) << "proj-" << p;
  }
  const auto* other = snapshot.counter("qrm.tenant.other.submitted");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->value, 46.0);
  EXPECT_FALSE(
      qrm.metrics_registry().has_counter("qrm.tenant.proj-10.submitted"));
}

TEST(QrmTenantMetrics, FairnessStaysExactForTailTenants) {
  // Two projects far past the metric cap still get their own pending
  // accounting: the shared counter series must not merge their fair-share
  // state.
  Rng rng(21);
  device::DeviceModel device = device::make_iqm20(rng);
  EventLog log;
  Qrm::Config config = fast_config();
  config.admission.tenant_metric_series = 1;
  Qrm qrm(device, config, rng, &log);
  const auto submit_for = [&](const std::string& project, int count) {
    for (int i = 0; i < count; ++i) {
      QuantumJob job = ghz_job(device, 4, 100, project + std::to_string(i));
      job.project = project;
      qrm.submit(std::move(job));
    }
  };
  submit_for("head", 1);    // takes the single dedicated series
  submit_for("tail-a", 4);  // both of these share qrm.tenant.other.*
  submit_for("tail-b", 2);

  EXPECT_GE(qrm.tenant_pending("tail-a"), 3u);
  EXPECT_LE(qrm.tenant_pending("tail-b"), 2u);
  EXPECT_LT(qrm.tenant_pending("tail-b"), qrm.tenant_pending("tail-a"));

  const obs::MetricsSnapshot snapshot =
      qrm.metrics_registry().snapshot("qrm.tenant.");
  const auto* other = snapshot.counter("qrm.tenant.other.submitted");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->value, 6.0);

  qrm.drain();
  EXPECT_TRUE(qrm.conservation().holds());
}

}  // namespace
}  // namespace hpcqc::sched
