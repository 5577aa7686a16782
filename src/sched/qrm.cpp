#include "hpcqc/sched/qrm.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"
#include "hpcqc/mqss/service.hpp"

namespace hpcqc::sched {

const char* to_string(QuantumJobState state) {
  switch (state) {
    case QuantumJobState::kQueued: return "queued";
    case QuantumJobState::kRunning: return "running";
    case QuantumJobState::kCompleted: return "completed";
    case QuantumJobState::kRetrying: return "retrying";
    case QuantumJobState::kFailed: return "failed";
    case QuantumJobState::kCancelled: return "cancelled";
    case QuantumJobState::kRejectedOverload: return "rejected-overload";
    case QuantumJobState::kRejectedTooWide: return "rejected-too-wide";
    case QuantumJobState::kShed: return "shed";
    case QuantumJobState::kMigrated: return "migrated";
  }
  return "?";
}

const char* to_string(JobPriority priority) {
  switch (priority) {
    case JobPriority::kHigh: return "high";
    case JobPriority::kNormal: return "normal";
    case JobPriority::kLow: return "low";
  }
  return "?";
}

Seconds RetryPolicy::backoff(std::size_t failures) const {
  expects(failures > 0, "RetryPolicy::backoff: failures is 1-based");
  const double scaled =
      initial_backoff *
      std::pow(backoff_factor, static_cast<double>(failures - 1));
  return std::min(scaled, max_backoff);
}

namespace {

void validate_config(const Qrm::Config& config) {
  const auto check = [](bool ok, const std::string& what) {
    if (!ok)
      throw PermanentError("Qrm::Config: " + what, ErrorCode::kPrecondition);
  };
  check(config.retry.max_attempts >= 1, "retry.max_attempts must be >= 1");
  check(config.retry.initial_backoff > 0.0,
        "retry.initial_backoff must be positive");
  check(config.retry.backoff_factor >= 1.0,
        "retry.backoff_factor must be >= 1");
  check(config.retry.max_backoff >= config.retry.initial_backoff,
        "retry.max_backoff must be >= retry.initial_backoff");
  check(config.job_overhead >= 0.0, "job_overhead cannot be negative");
  check(config.benchmark_overhead >= 0.0,
        "benchmark_overhead cannot be negative");
  check(config.max_defer_factor >= 1.0, "max_defer_factor must be >= 1");
  check(config.benchmark.shots >= 1, "benchmark.shots must be >= 1");
  check(config.benchmark.qubits >= 0, "benchmark.qubits cannot be negative");

  const auto& controller = config.controller;
  check(controller.benchmark_period > 0.0,
        "controller.benchmark_period must be positive");
  check(controller.max_calibration_age > 0.0,
        "controller.max_calibration_age must be positive");
  check(controller.fixed_interval > 0.0,
        "controller.fixed_interval must be positive");
  check(controller.quick_fraction > 0.0 && controller.quick_fraction <= 1.0,
        "controller.quick_fraction must be in (0, 1]");
  check(controller.full_fraction > 0.0 &&
            controller.full_fraction <= controller.quick_fraction,
        "controller.full_fraction must be in (0, quick_fraction]");

  const AdmissionPolicy& admission = config.admission;
  check(admission.queue_capacity >= 1, "admission.queue_capacity must be >= 1");
  check(admission.dead_letter_capacity >= 1,
        "admission.dead_letter_capacity must be >= 1");
  check(admission.high_rate_per_hour > 0.0,
        "admission.high_rate_per_hour must be positive");
  check(admission.normal_rate_per_hour > 0.0,
        "admission.normal_rate_per_hour must be positive");
  check(admission.low_rate_per_hour > 0.0,
        "admission.low_rate_per_hour must be positive");
  check(admission.burst >= 1.0, "admission.burst must be >= 1");
  check(admission.brownout_wait_limit > 0.0,
        "admission.brownout_wait_limit must be positive");
  check(admission.brownout_exit_fraction > 0.0 &&
            admission.brownout_exit_fraction <= 1.0,
        "admission.brownout_exit_fraction must be in (0, 1]");
  check(admission.max_tenant_queue_share > 0.0 &&
            admission.max_tenant_queue_share <= 1.0,
        "admission.max_tenant_queue_share must be in (0, 1]");
  check(admission.tenant_rate_per_hour >= 0.0,
        "admission.tenant_rate_per_hour cannot be negative");
  check(admission.tenant_burst >= 1.0, "admission.tenant_burst must be >= 1");
}

/// Adapts the device's deterministic per-batch progress callbacks into
/// instant events on the job's execute span. `base` is the execute span's
/// start plus the job overhead, so batch events land inside the span on the
/// simulated clock.
struct BatchEventObserver final : device::ExecObserver {
  obs::Tracer* tracer = nullptr;
  obs::SpanHandle span = obs::kNoSpan;
  Seconds base = 0.0;

  void on_shot_batch(std::size_t batch_index, std::size_t first_shot,
                     std::size_t shots_in_batch, std::size_t errored_shots,
                     Seconds elapsed) override {
    tracer->add_event(span, base + elapsed,
                      "shot-batch-" + std::to_string(batch_index),
                      "shots " + std::to_string(first_shot) + "+" +
                          std::to_string(shots_in_batch) + ", " +
                          std::to_string(errored_shots) + " errored");
  }
};

}  // namespace

int circuit_width(const circuit::Circuit& circuit) {
  std::vector<char> touched(static_cast<std::size_t>(circuit.num_qubits()), 0);
  for (const auto& op : circuit.ops()) {
    if (op.kind == circuit::OpKind::kBarrier) continue;
    for (int q : op.qubits) touched[static_cast<std::size_t>(q)] = 1;
  }
  return static_cast<int>(
      std::count(touched.begin(), touched.end(), char{1}));
}

bool Qrm::TokenBucket::try_take(Seconds now) {
  tokens = std::min(burst,
                    tokens + (now - last_refill) * rate_per_hour / 3600.0);
  last_refill = now;
  if (tokens < 1.0) return false;
  tokens -= 1.0;
  return true;
}

Qrm::Qrm(device::DeviceModel& device, Config config, Rng& rng, EventLog* log,
         obs::MetricsRegistry* metrics)
    : device_(&device),
      // Validated while initializing the first config-derived member:
      // degenerate values must surface as one PermanentError naming
      // Qrm::Config, not as whichever downstream component (controller,
      // benchmark) happens to trip over them first.
      config_((validate_config(config), config)),
      rng_(&rng),
      log_(log),
      controller_(config.controller),
      benchmark_(config.benchmark),
      engine_() {
  const double rates[3] = {config_.admission.high_rate_per_hour,
                           config_.admission.normal_rate_per_hour,
                           config_.admission.low_rate_per_hour};
  for (int p = 0; p < 3; ++p) {
    buckets_[p].rate_per_hour = rates[p];
    buckets_[p].burst = config_.admission.burst;
    buckets_[p].tokens = config_.admission.burst;  // start full
    buckets_[p].last_refill = 0.0;
  }
  if (metrics == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  } else {
    registry_ = metrics;
  }
  journal_ = config_.durability.sink;
  journal_tag_ = config_.durability.device_tag;
  bind_metrics();
}

void Qrm::emit(JobEvent event) {
  if (journal_ == nullptr) return;
  event.device = journal_tag_;
  event.at = now_;
  journal_->on_event(event);
}

void Qrm::bind_metrics() {
  m_submitted_ = &registry_->counter("qrm.jobs_submitted");
  m_completed_ = &registry_->counter("qrm.jobs_completed");
  m_failed_ = &registry_->counter("qrm.jobs_failed");
  m_cancelled_ = &registry_->counter("qrm.jobs_cancelled");
  m_retries_ = &registry_->counter("qrm.retries");
  m_execution_faults_ = &registry_->counter("qrm.execution_faults");
  m_calibrations_failed_ = &registry_->counter("qrm.calibrations_failed");
  m_rejected_overload_ = &registry_->counter("qrm.jobs_rejected_overload");
  m_rejected_too_wide_ = &registry_->counter("qrm.jobs_rejected_too_wide");
  m_shed_ = &registry_->counter("qrm.jobs_shed");
  m_degraded_holds_ = &registry_->counter("qrm.degraded_holds");
  m_dead_letters_dropped_ = &registry_->counter("qrm.dead_letters_dropped");
  m_migrated_out_ = &registry_->counter("qrm.jobs_migrated_out");
  m_migrated_in_ = &registry_->counter("qrm.jobs_migrated_in");
  m_dead_letters_drained_ = &registry_->counter("qrm.dead_letters_drained");
  m_total_shots_ = &registry_->counter("qrm.total_shots");
  m_good_shots_ = &registry_->counter("qrm.good_shots");
  m_busy_time_ = &registry_->counter("qrm.busy_time_s");
  m_calibration_time_ = &registry_->counter("qrm.calibration_time_s");
  m_benchmark_time_ = &registry_->counter("qrm.benchmark_time_s");
  m_queue_length_ = &registry_->gauge("qrm.queue_length");
  m_brownout_ = &registry_->gauge("qrm.brownout");
  m_queue_wait_ = &registry_->histogram("qrm.queue_wait_s");
  m_execute_ = &registry_->histogram("qrm.execute_s");
  m_shots_per_s_ =
      &registry_->histogram("qrm.shots_per_s", obs::default_rate_bounds());
  m_overhead_ = &registry_->histogram("qrm.job_overhead_s");
}

void Qrm::note_queue_gauge() {
  m_queue_length_->set(static_cast<double>(queue_.size()));
}

void Qrm::open_queue_span(int id, const char* why) {
  if (tracer_ == nullptr) return;
  JobSpans& spans = job_spans_[id];
  spans.queue = tracer_->begin_span("queue-wait", now_,
                                    tracer_->context(spans.root));
  tracer_->set_attribute(spans.queue, "reason", why);
}

void Qrm::close_root(int id, obs::SpanStatus status) {
  if (tracer_ == nullptr) return;
  const auto it = job_spans_.find(id);
  if (it == job_spans_.end()) return;
  tracer_->end_span(it->second.root, now_, status);
  job_spans_.erase(it);
}

Qrm::TokenBucket& Qrm::bucket(JobPriority priority) {
  return buckets_[static_cast<int>(priority)];
}

Seconds Qrm::estimated_wait() const {
  // O(1) on purpose: this sits on the admission hot path (every submit,
  // probe, and brownout update reads it), so the per-job costs are summed
  // incrementally as jobs move instead of walking the queue. The retry
  // backlog counts too — those jobs re-enter at the queue head, so a
  // device nursing a deep backlog must not look idle to fleet selection.
  const Seconds busy = phase_ == Phase::kIdle ? 0.0 : phase_end_ - now_;
  return busy + std::max(0.0, queued_work_) + std::max(0.0, retry_work_);
}

std::size_t Qrm::tenant_pending(const std::string& project) const {
  const auto it = tenants_.find(project);
  return it == tenants_.end() ? 0 : it->second.pending;
}

Qrm::TenantState* Qrm::tenant_state(const std::string& project) {
  const auto it = tenants_.find(project);
  if (it != tenants_.end()) return &it->second;
  TenantState state;
  state.bucket.rate_per_hour = config_.admission.tenant_rate_per_hour;
  state.bucket.burst = config_.admission.tenant_burst;
  state.bucket.tokens = config_.admission.tenant_burst;
  state.bucket.last_refill = now_;
  // Metric cardinality cap: only the first tenant_metric_series distinct
  // projects get their own qrm.tenant.<project>.* counters; the tail binds
  // the shared qrm.tenant.other.* rollup so a zipf population of thousands
  // cannot blow up the registry. The admission state above stays exact per
  // tenant either way.
  const bool dedicated =
      tenant_series_ < config_.admission.tenant_metric_series;
  if (dedicated) ++tenant_series_;
  const std::string prefix =
      dedicated ? "qrm.tenant." + project + "." : "qrm.tenant.other.";
  state.submitted = &registry_->counter(prefix + "submitted");
  state.admitted = &registry_->counter(prefix + "admitted");
  state.rejected = &registry_->counter(prefix + "rejected");
  return &tenants_.emplace(project, state).first->second;
}

void Qrm::track_enqueue(int id, bool retry) {
  const Seconds cost = records_.at(id).estimated_cost;
  (retry ? retry_work_ : queued_work_) += cost;
  const QuantumJob& job = pending_jobs_.at(id).job;
  if (!job.project.empty()) tenant_state(job.project)->pending += 1;
}

void Qrm::track_dequeue(int id, bool retry) {
  const Seconds cost = records_.at(id).estimated_cost;
  (retry ? retry_work_ : queued_work_) -= cost;
  const QuantumJob& job = pending_jobs_.at(id).job;
  if (!job.project.empty()) {
    TenantState* tenant = tenant_state(job.project);
    if (tenant->pending > 0) tenant->pending -= 1;
  }
}

Qrm::AdmissionProbe Qrm::probe_admission(int width,
                                         JobPriority priority) const {
  if (!online_) return AdmissionProbe::kOffline;
  if (!device_->health().all_healthy()) {
    const int capacity = static_cast<int>(
        device_->health().largest_component(device_->topology()).size());
    if (width > capacity) return AdmissionProbe::kTooWide;
  }
  if (queue_.size() >= config_.admission.queue_capacity)
    return AdmissionProbe::kQueueFull;
  // Mirror what update_brownout() would decide at submit, without latching.
  const bool would_brownout =
      brownout_ || estimated_wait() > config_.admission.brownout_wait_limit;
  if (would_brownout && priority == JobPriority::kLow)
    return AdmissionProbe::kBrownout;
  const TokenBucket& b = buckets_[static_cast<int>(priority)];
  const double tokens = std::min(
      b.burst, b.tokens + (now_ - b.last_refill) * b.rate_per_hour / 3600.0);
  if (tokens < 1.0) return AdmissionProbe::kRateLimited;
  return AdmissionProbe::kAdmissible;
}

JobConservation Qrm::conservation() const {
  JobConservation audit;
  audit.submitted = records_.size();
  for (const auto& [id, record] : records_) {
    switch (record.state) {
      case QuantumJobState::kCompleted: audit.completed += 1; break;
      case QuantumJobState::kFailed: audit.failed += 1; break;
      case QuantumJobState::kCancelled: audit.cancelled += 1; break;
      case QuantumJobState::kRejectedOverload:
        audit.rejected_overload += 1;
        break;
      case QuantumJobState::kRejectedTooWide:
        audit.rejected_too_wide += 1;
        break;
      case QuantumJobState::kShed: audit.shed += 1; break;
      case QuantumJobState::kMigrated: audit.migrated += 1; break;
      case QuantumJobState::kQueued:
      case QuantumJobState::kRunning:
      case QuantumJobState::kRetrying:
        audit.in_flight += 1;
        break;
    }
  }
  return audit;
}

int Qrm::reject(QuantumJobRecord record, QuantumJobState state,
                const std::string& reason) {
  record.state = state;
  record.end_time = now_;
  record.failure_reason = reason;
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kRejected;
    event.id = record.id;
    event.record = &record;
    event.reason = reason;
    emit(event);
  }
  if (state == QuantumJobState::kRejectedOverload)
    m_rejected_overload_->inc();
  else
    m_rejected_too_wide_->inc();
  if (log_)
    log_->warning(now_, "qrm",
                  "job '" + record.name + "' " + to_string(state) + ": " +
                      reason);
  const int id = record.id;
  if (tracer_ != nullptr) {
    const JobSpans& spans = job_spans_.at(id);
    tracer_->add_event(spans.admission, now_, "refused", reason);
    tracer_->end_span(spans.admission, now_, obs::SpanStatus::kError);
    close_root(id, obs::SpanStatus::kError);
    tracer_->record_failure(record.trace.trace_id,
                            std::string(to_string(state)) + ": " + reason,
                            now_);
  }
  records_.emplace(id, std::move(record));
  return id;
}

void Qrm::shed_low_priority() {
  std::vector<int> victims;
  for (const int id : queue_)
    if (records_.at(id).priority == JobPriority::kLow) victims.push_back(id);
  for (const int id : victims) {
    track_dequeue(id, /*retry=*/false);
    std::erase(queue_, id);
    auto& record = records_.at(id);
    record.state = QuantumJobState::kShed;
    record.end_time = now_;
    record.failure_reason = "shed by brownout (overloaded queue)";
    pending_jobs_.erase(id);
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kShed;
      event.id = id;
      event.record = &record;
      event.reason = record.failure_reason;
      emit(event);
    }
    m_shed_->inc();
    if (tracer_ != nullptr) {
      const JobSpans& spans = job_spans_.at(id);
      tracer_->add_event(spans.queue, now_, "shed",
                         "brownout shed low-priority job");
      tracer_->end_span(spans.queue, now_, obs::SpanStatus::kError);
      close_root(id, obs::SpanStatus::kError);
      tracer_->record_failure(record.trace.trace_id, "shed: brownout", now_);
    }
    if (log_)
      log_->warning(now_, "qrm", "job '" + record.name + "' shed (brownout)");
  }
  note_queue_gauge();
}

void Qrm::update_brownout() {
  const Seconds wait = estimated_wait();
  if (!brownout_ && wait > config_.admission.brownout_wait_limit) {
    brownout_ = true;
    m_brownout_->set(1.0);
    if (log_)
      log_->warning(now_, "qrm",
                    "brownout: estimated wait " + std::to_string(wait) +
                        " s exceeds " +
                        std::to_string(config_.admission.brownout_wait_limit) +
                        " s; shedding low-priority work");
    shed_low_priority();
  } else if (brownout_ &&
             wait <= config_.admission.brownout_exit_fraction *
                         config_.admission.brownout_wait_limit) {
    brownout_ = false;
    m_brownout_->set(0.0);
    if (log_)
      log_->info(now_, "qrm",
                 "brownout cleared (estimated wait " + std::to_string(wait) +
                     " s)");
  }
}

int Qrm::submit(QuantumJob job) {
  expects(job.shots > 0, "Qrm::submit: need at least one shot");
  if (job.parametric != nullptr) {
    expects(compile_service_ != nullptr,
            "Qrm::submit: parametric jobs need a compile service "
            "(set_compile_service)");
    // The bound source circuit stands in for admission: width checks and
    // duration estimates see the job's real gate content, while the
    // two-phase compile is deferred to dispatch (where it hits the shared
    // structure cache).
    job.circuit = job.parametric->bind(job.binding);
  }
  if (accounting_ != nullptr && !job.project.empty()) {
    const Seconds estimate =
        static_cast<double>(job.shots) * device_->shot_duration(job.circuit);
    ensure_state(accounting_->can_afford(job.project, estimate),
                 "Qrm::submit: project '" + job.project +
                     "' cannot afford the estimated " +
                     std::to_string(estimate) + " QPU-seconds");
  }
  QuantumJobRecord record;
  record.id = next_id_++;
  record.name = job.name;
  record.shots = job.shots;
  record.submit_time = now_;
  record.priority = job.priority;
  record.migrations = job.migrations;
  record.estimated_cost =
      config_.job_overhead +
      static_cast<double>(job.shots) * device_->shot_duration(job.circuit);
  m_submitted_->inc();
  TenantState* tenant =
      job.project.empty() ? nullptr : tenant_state(job.project);
  if (tenant != nullptr) tenant->submitted->inc();

  if (tracer_ != nullptr) {
    // Root span of this submission's trace; the client's context (when set)
    // makes it a child of the client-side submission span.
    JobSpans spans;
    spans.root = tracer_->begin_span("job:" + job.name, now_, job.trace);
    tracer_->set_attribute(spans.root, "job_id", std::to_string(record.id));
    tracer_->set_attribute(spans.root, "shots", std::to_string(job.shots));
    tracer_->set_attribute(spans.root, "priority", to_string(job.priority));
    if (!job.project.empty())
      tracer_->set_attribute(spans.root, "project", job.project);
    if (job.migrations > 0)
      tracer_->set_attribute(spans.root, "migrations",
                             std::to_string(job.migrations));
    spans.admission =
        tracer_->begin_span("admission", now_, tracer_->context(spans.root));
    record.trace = tracer_->context(spans.root);
    job_spans_.emplace(record.id, spans);
  }

  // Write-ahead: the submission (with its full payload) is journaled before
  // any admission outcome, so a crash between here and the decision leaves a
  // record recovery can scrub deterministically.
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kSubmitted;
    event.id = record.id;
    event.job = &job;
    event.record = &record;
    emit(event);
  }

  // Degraded capability check: a job wider than the largest healthy
  // connected component can never run until repairs land, so refuse it now
  // instead of parking it in the queue indefinitely.
  if (!device_->health().all_healthy()) {
    const int width = circuit_width(job.circuit);
    const int capacity = static_cast<int>(
        device_->health().largest_component(device_->topology()).size());
    if (width > capacity) {
      if (tenant != nullptr) tenant->rejected->inc();
      return reject(std::move(record), QuantumJobState::kRejectedTooWide,
                    "needs " + std::to_string(width) +
                        " qubits; largest healthy component has " +
                        std::to_string(capacity));
    }
  }

  // Overload control: brownout class suspension, hard queue cap, tenant
  // fair-share + quota, then the per-priority token bucket. A migrated-in
  // job was rate-controlled once at its fleet-wide admission, so only the
  // capacity cap applies to it.
  update_brownout();
  if (!job.migrated_in && brownout_ && job.priority == JobPriority::kLow) {
    if (tenant != nullptr) tenant->rejected->inc();
    return reject(std::move(record), QuantumJobState::kRejectedOverload,
                  "brownout: low-priority admissions suspended");
  }
  if (queue_.size() >= config_.admission.queue_capacity) {
    if (tenant != nullptr) tenant->rejected->inc();
    return reject(std::move(record), QuantumJobState::kRejectedOverload,
                  "queue full (" +
                      std::to_string(config_.admission.queue_capacity) +
                      " jobs)");
  }
  if (tenant != nullptr && !job.migrated_in &&
      config_.admission.max_tenant_queue_share < 1.0) {
    const auto cap = static_cast<std::size_t>(std::ceil(
        config_.admission.max_tenant_queue_share *
        static_cast<double>(config_.admission.queue_capacity)));
    if (tenant->pending >= cap) {
      tenant->rejected->inc();
      return reject(std::move(record), QuantumJobState::kRejectedOverload,
                    "tenant '" + job.project + "' exceeds its fair share (" +
                        std::to_string(cap) + " pending jobs)");
    }
  }
  if (tenant != nullptr && !job.migrated_in &&
      config_.admission.tenant_rate_per_hour > 0.0) {
    if (!tenant->bucket.try_take(now_)) {
      tenant->rejected->inc();
      return reject(std::move(record), QuantumJobState::kRejectedOverload,
                    "tenant '" + job.project + "' admission rate exceeded");
    }
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kTenantDelta;
      event.id = record.id;
      event.project = job.project;
      event.bucket_tokens = tenant->bucket.tokens;
      event.bucket_refill = tenant->bucket.last_refill;
      emit(event);
    }
  }
  if (!job.migrated_in && !bucket(job.priority).try_take(now_)) {
    if (tenant != nullptr) tenant->rejected->inc();
    return reject(std::move(record), QuantumJobState::kRejectedOverload,
                  std::string("admission rate exceeded for ") +
                      to_string(job.priority) + " priority");
  }
  if (job.migrated_in) m_migrated_in_->inc();
  if (tenant != nullptr) tenant->admitted->inc();

  const int id = record.id;
  if (tracer_ != nullptr) {
    tracer_->end_span(job_spans_.at(id).admission, now_,
                      obs::SpanStatus::kOk);
  }
  records_.emplace(id, std::move(record));
  keep_pending(id, std::move(job));
  queue_.push_back(id);
  track_enqueue(id, /*retry=*/false);
  if (journal_ != nullptr) {
    const QuantumJob& admitted = pending_jobs_.at(id).job;
    const TokenBucket& b = bucket(admitted.priority);
    JobEvent event;
    event.kind = JobEvent::Kind::kAdmitted;
    event.id = id;
    event.record = &records_.at(id);
    event.priority = admitted.priority;
    event.bucket_tokens = b.tokens;
    event.bucket_refill = b.last_refill;
    emit(event);
  }
  open_queue_span(id, "admitted");
  note_queue_gauge();
  update_brownout();
  return id;
}

std::vector<int> Qrm::submit_batch(std::vector<QuantumJob> jobs) {
  std::vector<int> ids;
  ids.reserve(jobs.size());
  for (QuantumJob& job : jobs) ids.push_back(submit(std::move(job)));
  // Batched dispatch into the compile farm: warm every admitted parametric
  // structure now, so the farm overlaps compilation with the rest of the
  // ingest window. No wait_idle here — advance_to() barriers on the farm
  // before it drifts or recalibrates the device.
  prefetch_structures(ids);
  return ids;
}

void Qrm::keep_pending(int id, QuantumJob job) {
  const std::uint64_t structure =
      job.parametric != nullptr ? job.parametric->structural_hash() : 0;
  pending_jobs_.emplace(id, PendingJob{std::move(job), structure});
}

bool Qrm::prefetch_structures(const std::vector<int>& ids) {
  if (compile_service_ == nullptr ||
      compile_service_->compile_farm() == nullptr)
    return false;
  std::vector<mqss::QpuService::StructureRef> batch;
  for (const int id : ids) {
    const auto it = pending_jobs_.find(id);
    if (it == pending_jobs_.end() || it->second.job.parametric == nullptr)
      continue;
    batch.push_back({it->second.job.parametric, it->second.structure});
  }
  compile_service_->prefetch_structures(batch);
  return !batch.empty();
}

bool Qrm::cancel(int id, const std::string& reason) {
  const auto it = records_.find(id);
  if (it == records_.end())
    throw NotFoundError("Qrm: unknown job id " + std::to_string(id));
  QuantumJobRecord& record = it->second;
  if (record.state != QuantumJobState::kQueued &&
      record.state != QuantumJobState::kRetrying)
    return false;
  track_dequeue(id, record.state == QuantumJobState::kRetrying);
  std::erase(queue_, id);
  std::erase(retry_queue_, id);
  record.state = QuantumJobState::kCancelled;
  record.failure_reason = reason;
  record.end_time = now_;
  record.next_retry_at = -1.0;
  pending_jobs_.erase(id);
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kCancelled;
    event.id = id;
    event.record = &record;
    event.reason = reason;
    emit(event);
  }
  m_cancelled_->inc();
  note_queue_gauge();
  if (tracer_ != nullptr) {
    // A cancellation ends the tree without a post-mortem: it is a user
    // decision, not a failure worth a flight-recorder dump.
    JobSpans& spans = job_spans_.at(id);
    const obs::SpanHandle stage =
        spans.queue != obs::kNoSpan ? spans.queue : spans.backoff;
    if (stage != obs::kNoSpan) {
      tracer_->add_event(stage, now_, "cancelled", reason);
      tracer_->end_span(stage, now_, obs::SpanStatus::kOk);
    }
    close_root(id, obs::SpanStatus::kError);
  }
  if (log_)
    log_->info(now_, "qrm", "job '" + record.name + "' cancelled: " + reason);
  return true;
}

const QuantumJob& Qrm::pending_job(int id) const {
  const auto it = pending_jobs_.find(id);
  if (it == pending_jobs_.end())
    throw NotFoundError("Qrm: job " + std::to_string(id) +
                        " has no pending payload");
  return it->second.job;
}

std::optional<Qrm::MigratedJob> Qrm::extract_job(int id,
                                                 const std::string& reason) {
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  QuantumJobRecord& record = it->second;
  if (record.state != QuantumJobState::kQueued &&
      record.state != QuantumJobState::kRetrying)
    return std::nullopt;
  track_dequeue(id, record.state == QuantumJobState::kRetrying);
  std::erase(queue_, id);
  std::erase(retry_queue_, id);
  MigratedJob out;
  out.id = id;
  out.job = std::move(pending_jobs_.at(id).job);
  pending_jobs_.erase(id);
  record.state = QuantumJobState::kMigrated;
  record.end_time = now_;
  record.next_retry_at = -1.0;
  record.failure_reason = "migrated: " + reason;
  out.job.migrations += 1;
  out.job.migrated_in = true;
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kMigratedOut;
    event.id = id;
    event.record = &record;
    event.reason = reason;
    emit(event);
  }
  m_migrated_out_->inc();
  note_queue_gauge();
  if (tracer_ != nullptr) {
    // Migration ends this device's span tree cleanly — the job is not
    // failing, it is moving; the destination opens its own root under the
    // same client context.
    JobSpans& spans = job_spans_.at(id);
    const obs::SpanHandle stage =
        spans.queue != obs::kNoSpan ? spans.queue : spans.backoff;
    if (stage != obs::kNoSpan) {
      tracer_->add_event(stage, now_, "migrated", reason);
      tracer_->end_span(stage, now_, obs::SpanStatus::kOk);
    }
    close_root(id, obs::SpanStatus::kOk);
  }
  if (log_)
    log_->info(now_, "qrm",
               "job '" + record.name + "' migrated out: " + reason);
  return out;
}

std::vector<Qrm::MigratedJob> Qrm::extract_pending(const std::string& reason) {
  std::vector<int> ids = queue_;
  ids.insert(ids.end(), retry_queue_.begin(), retry_queue_.end());
  std::vector<MigratedJob> out;
  out.reserve(ids.size());
  for (const int id : ids) {
    auto migrated = extract_job(id, reason);
    if (migrated.has_value()) out.push_back(std::move(*migrated));
  }
  return out;
}

void Qrm::push_dead_letter(const QuantumJobRecord& record, QuantumJob job) {
  DeadLetterRecord letter;
  letter.id = record.id;
  letter.name = record.name;
  letter.attempts = record.attempts;
  letter.reason = record.failure_reason;
  letter.failed_at = now_;
  letter.trace = record.trace;
  letter.job = std::move(job);
  dead_letters_.push_back(std::move(letter));
  if (dead_letters_.size() > config_.admission.dead_letter_capacity) {
    // Oldest-first overflow: the DLQ is an audit window, not unbounded
    // storage; the drop is counted so nothing vanishes unaccounted.
    const int dropped = dead_letters_.front().id;
    dead_letters_.erase(dead_letters_.begin());
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kDlqDropped;
      event.id = dropped;
      emit(event);
    }
    m_dead_letters_dropped_->inc();
  }
}

bool Qrm::dead_letter_job(int id, const std::string& reason) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  QuantumJobRecord& record = it->second;
  if (record.state != QuantumJobState::kQueued &&
      record.state != QuantumJobState::kRetrying)
    return false;
  track_dequeue(id, record.state == QuantumJobState::kRetrying);
  std::erase(queue_, id);
  std::erase(retry_queue_, id);
  record.state = QuantumJobState::kFailed;
  record.end_time = now_;
  record.next_retry_at = -1.0;
  record.failure_reason = reason;
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kDeadLettered;
    event.id = id;
    event.record = &record;
    event.reason = reason;
    emit(event);
  }
  push_dead_letter(record, std::move(pending_jobs_.at(id).job));
  pending_jobs_.erase(id);
  m_failed_->inc();
  note_queue_gauge();
  if (tracer_ != nullptr) {
    JobSpans& spans = job_spans_.at(id);
    const obs::SpanHandle stage =
        spans.queue != obs::kNoSpan ? spans.queue : spans.backoff;
    if (stage != obs::kNoSpan) {
      tracer_->add_event(stage, now_, "dead-lettered", reason);
      tracer_->end_span(stage, now_, obs::SpanStatus::kError);
    }
    close_root(id, obs::SpanStatus::kError);
    tracer_->record_failure(record.trace.trace_id, "dead-letter: " + reason,
                            now_);
  }
  if (log_)
    log_->error(now_, "qrm",
                "job '" + record.name + "' dead-lettered: " + reason);
  return true;
}

std::vector<DeadLetterRecord> Qrm::drain_dead_letters() {
  std::vector<DeadLetterRecord> out;
  out.swap(dead_letters_);
  for (DeadLetterRecord& letter : out) {
    if (!letter.job.trace.valid() && letter.trace.valid())
      letter.job.trace = letter.trace;
  }
  if (journal_ != nullptr && !out.empty()) {
    JobEvent event;
    event.kind = JobEvent::Kind::kDlqDrained;
    event.count = out.size();
    emit(event);
  }
  m_dead_letters_drained_->inc(static_cast<double>(out.size()));
  if (log_ && !out.empty())
    log_->info(now_, "qrm",
               "drained " + std::to_string(out.size()) +
                   " dead letters for replay");
  return out;
}

void Qrm::set_offline(const std::string& reason) {
  online_ = false;
  status_ = qdmi::DeviceStatus::kOffline;
  // An outage aborts whatever was in flight; the job returns to the queue
  // head (the "more robust job restart tools after system outages" users
  // asked for in §4 exist because of exactly this path). The interruption
  // is recorded but no retry attempt is charged: the outage is the
  // facility's fault, not the job's.
  if (phase_ == Phase::kJob && active_job_ >= 0) {
    auto& record = records_.at(active_job_);
    record.state = QuantumJobState::kQueued;
    record.start_time = -1.0;
    record.end_time = -1.0;
    if (record.attempts > 0) record.attempts -= 1;
    record.interruptions += 1;
    record.failure_reason = "interrupted by outage: " + reason;
    queue_.insert(queue_.begin(), active_job_);
    track_enqueue(active_job_, /*retry=*/false);
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kInterrupted;
      event.id = active_job_;
      event.record = &record;
      event.reason = reason;
      emit(event);
    }
    note_queue_gauge();
    if (tracer_ != nullptr) {
      JobSpans& spans = job_spans_.at(active_job_);
      tracer_->add_event(spans.execute, now_, "interrupted",
                         "outage: " + reason);
      tracer_->end_span(spans.execute, now_, obs::SpanStatus::kError);
      tracer_->end_span(spans.attempt, now_, obs::SpanStatus::kError);
      spans.execute = obs::kNoSpan;
      spans.attempt = obs::kNoSpan;
      open_queue_span(active_job_, "requeued after outage");
    }
    if (log_)
      log_->warning(now_, "qrm",
                    "job '" + record.name + "' requeued (outage mid-run)");
  }
  // A recovery/forced calibration that was interrupted must not be lost:
  // re-arm it so it runs first when the QPU returns to service.
  if (phase_ == Phase::kCalibration && active_calibration_.has_value()) {
    if (!forced_calibration_.has_value() ||
        *active_calibration_ == calibration::CalibrationKind::kFull)
      forced_calibration_ = *active_calibration_;
    if (log_)
      log_->warning(now_, "qrm", "calibration aborted by outage; re-armed");
  }
  if (tracer_ != nullptr && phase_span_ != obs::kNoSpan) {
    tracer_->add_event(phase_span_, now_, "aborted", "outage: " + reason);
    tracer_->end_span(phase_span_, now_, obs::SpanStatus::kError);
    phase_span_ = obs::kNoSpan;
  }
  phase_ = Phase::kIdle;
  active_job_ = -1;
  active_job_faulted_ = false;
  active_calibration_.reset();
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kOffline;
    event.reason = reason;
    emit(event);
  }
  if (log_) log_->warning(now_, "qrm", "QPU offline: " + reason);
}

void Qrm::set_online() {
  online_ = true;
  status_ = qdmi::DeviceStatus::kIdle;
  if (journal_ != nullptr) {
    JobEvent event;
    event.kind = JobEvent::Kind::kOnline;
    emit(event);
  }
  if (log_) log_->info(now_, "qrm", "QPU back in service");
}

void Qrm::request_calibration(calibration::CalibrationKind kind) {
  // A full request supersedes a pending quick one, never the reverse.
  if (!forced_calibration_.has_value() ||
      kind == calibration::CalibrationKind::kFull)
    forced_calibration_ = kind;
}

void Qrm::apply_drift_until(Seconds t) {
  if (t > drifted_until_) {
    device_->drift(t - drifted_until_, *rng_);
    drifted_until_ = t;
  }
}

void Qrm::promote_due_retries() {
  // Due retries re-enter at the queue head, preserving their backoff order,
  // so a recovered job does not start over behind a day of fresh arrivals.
  std::vector<int> due;
  for (const int id : retry_queue_)
    if (records_.at(id).next_retry_at <= now_) due.push_back(id);
  if (due.empty()) return;
  for (auto it = due.rbegin(); it != due.rend(); ++it) {
    queue_.insert(queue_.begin(), *it);
    // Emitted per insertion (reverse order) so a replay that applies
    // "insert at head" per event reproduces the final queue order exactly.
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kRetryRequeued;
      event.id = *it;
      emit(event);
    }
  }
  for (const int id : due) {
    track_dequeue(id, /*retry=*/true);
    track_enqueue(id, /*retry=*/false);
    std::erase(retry_queue_, id);
    auto& record = records_.at(id);
    record.state = QuantumJobState::kQueued;
    record.next_retry_at = -1.0;
    if (tracer_ != nullptr) {
      JobSpans& spans = job_spans_.at(id);
      tracer_->end_span(spans.backoff, now_, obs::SpanStatus::kOk);
      spans.backoff = obs::kNoSpan;
      open_queue_span(id, "retry requeued");
    }
  }
  note_queue_gauge();
}

void Qrm::fail_active_job() {
  auto& record = records_.at(active_job_);
  const QuantumJob& job = pending_jobs_.at(active_job_).job;
  m_execution_faults_->inc();
  // Retries are metered: the failed attempt occupied the machine for its
  // full wall time, and the project pays for it (shots yield nothing).
  if (accounting_ != nullptr && !job.project.empty())
    accounting_->charge(job.project, record.result.wall_time, 0);
  m_busy_time_->inc(now_ - record.start_time);

  if (tracer_ != nullptr) {
    JobSpans& spans = job_spans_.at(active_job_);
    tracer_->add_event(spans.execute, now_, "execution-fault",
                       "injected device fault");
    tracer_->end_span(spans.execute, now_, obs::SpanStatus::kError);
    tracer_->end_span(spans.attempt, now_, obs::SpanStatus::kError);
    spans.execute = obs::kNoSpan;
    spans.attempt = obs::kNoSpan;
  }

  if (record.attempts >= config_.retry.max_attempts) {
    record.state = QuantumJobState::kFailed;
    record.end_time = now_;
    record.failure_reason = "execution fault; retry budget exhausted after " +
                            std::to_string(record.attempts) + " attempts";
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kDeadLettered;
      event.id = active_job_;
      event.record = &record;
      event.reason = record.failure_reason;
      emit(event);
    }
    push_dead_letter(record, std::move(pending_jobs_.at(active_job_).job));
    m_failed_->inc();
    pending_jobs_.erase(active_job_);
    if (tracer_ != nullptr) {
      close_root(active_job_, obs::SpanStatus::kError);
      tracer_->record_failure(record.trace.trace_id,
                              "dead-letter: " + record.failure_reason, now_);
    }
    if (log_)
      log_->error(now_, "qrm",
                  "job '" + record.name + "' dead-lettered after " +
                      std::to_string(record.attempts) + " attempts");
  } else {
    record.state = QuantumJobState::kRetrying;
    record.failure_reason = "execution fault (attempt " +
                            std::to_string(record.attempts) + ")";
    record.next_retry_at = now_ + config_.retry.backoff(record.attempts);
    retry_queue_.push_back(active_job_);
    track_enqueue(active_job_, /*retry=*/true);
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kRetrying;
      event.id = active_job_;
      event.record = &record;
      event.reason = record.failure_reason;
      emit(event);
    }
    m_retries_->inc();
    if (tracer_ != nullptr) {
      JobSpans& spans = job_spans_.at(active_job_);
      spans.backoff = tracer_->begin_span("retry-backoff", now_,
                                          tracer_->context(spans.root));
      tracer_->set_attribute(spans.backoff, "attempt",
                             std::to_string(record.attempts));
      tracer_->set_attribute(
          spans.backoff, "backoff_s",
          std::to_string(record.next_retry_at - now_));
    }
    if (log_)
      log_->warning(now_, "qrm",
                    "job '" + record.name + "' failed attempt " +
                        std::to_string(record.attempts) + "; retry in " +
                        std::to_string(record.next_retry_at - now_) + " s");
  }
  active_job_ = -1;
  active_job_faulted_ = false;
}

void Qrm::finish_phase(Rng& rng) {
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kJob: {
      if (active_job_faulted_) {
        fail_active_job();
        break;
      }
      auto& record = records_.at(active_job_);
      record.state = QuantumJobState::kCompleted;
      record.end_time = now_;
      if (journal_ != nullptr) {
        JobEvent event;
        event.kind = JobEvent::Kind::kCompleted;
        event.id = active_job_;
        event.record = &record;
        emit(event);
      }
      m_completed_->inc();
      m_total_shots_->inc(static_cast<double>(record.shots));
      m_good_shots_->inc(static_cast<double>(record.shots) *
                         record.result.estimated_fidelity);
      const Seconds busy = now_ - record.start_time;
      m_busy_time_->inc(busy);
      m_execute_->observe(busy);
      if (busy > 0.0)
        m_shots_per_s_->observe(static_cast<double>(record.shots) / busy);
      if (tracer_ != nullptr) {
        JobSpans& spans = job_spans_.at(active_job_);
        tracer_->set_attribute(
            spans.execute, "estimated_fidelity",
            std::to_string(record.result.estimated_fidelity));
        tracer_->end_span(spans.execute, now_, obs::SpanStatus::kOk);
        tracer_->end_span(spans.attempt, now_, obs::SpanStatus::kOk);
        close_root(active_job_, obs::SpanStatus::kOk);
      }
      if (log_)
        log_->debug(now_, "qrm",
                    "job '" + record.name + "' completed (est. fidelity " +
                        std::to_string(record.result.estimated_fidelity) + ")");
      const QuantumJob& job = pending_jobs_.at(active_job_).job;
      if (accounting_ != nullptr && !job.project.empty())
        accounting_->charge(job.project, record.result.wall_time,
                            record.shots);
      pending_jobs_.erase(active_job_);
      active_job_ = -1;
      // A completed job shrinks the backlog; let brownout clear as soon as
      // the estimated wait is back under the exit threshold.
      update_brownout();
      break;
    }
    case Phase::kBenchmark: {
      const auto result = benchmark_.run(*device_, now_, rng);
      controller_.note_benchmark(result);
      m_benchmark_time_->inc(config_.benchmark_overhead);
      if (tracer_ != nullptr && phase_span_ != obs::kNoSpan) {
        tracer_->set_attribute(phase_span_, "ghz_success",
                               std::to_string(result.ghz_success));
        tracer_->end_span(phase_span_, now_, obs::SpanStatus::kOk);
        phase_span_ = obs::kNoSpan;
      }
      if (log_)
        log_->debug(now_, "qrm",
                    "health benchmark: ghz_success=" +
                        std::to_string(result.ghz_success));
      break;
    }
    case Phase::kCalibration: {
      // An injected calibration fault makes the run not converge: the
      // device keeps its drifted state and the slot is re-armed so the
      // calibration retries once the window passes.
      if (injector_ != nullptr &&
          injector_->active(fault::FaultSite::kCalibration, phase_start_)) {
        m_calibrations_failed_->inc();
        m_calibration_time_->inc(now_ - phase_start_);
        if (!forced_calibration_.has_value() ||
            *active_calibration_ == calibration::CalibrationKind::kFull)
          forced_calibration_ = *active_calibration_;
        if (tracer_ != nullptr && phase_span_ != obs::kNoSpan) {
          tracer_->add_event(phase_span_, now_, "calibration-fault",
                             "failed to converge (injected fault); re-armed");
          tracer_->end_span(phase_span_, now_, obs::SpanStatus::kError);
          phase_span_ = obs::kNoSpan;
        }
        if (log_)
          log_->error(now_, "qrm",
                      std::string("calibration (") +
                          to_string(*active_calibration_) +
                          ") failed to converge (injected fault); re-armed");
        active_calibration_.reset();
        break;
      }
      const auto outcome =
          engine_.run(*device_, *active_calibration_, phase_start_, rng);
      controller_.note_calibration(outcome);
      m_calibration_time_->inc(outcome.duration);
      if (tracer_ != nullptr && phase_span_ != obs::kNoSpan) {
        tracer_->set_attribute(
            phase_span_, "median_1q_after",
            std::to_string(outcome.median_fidelity_1q_after));
        tracer_->end_span(phase_span_, now_, obs::SpanStatus::kOk);
        phase_span_ = obs::kNoSpan;
      }
      if (log_)
        log_->info(now_, "qrm",
                   std::string("calibration (") + to_string(outcome.kind) +
                       ") done: median 1q=" +
                       std::to_string(outcome.median_fidelity_1q_after) +
                       " cz=" +
                       std::to_string(outcome.median_fidelity_cz_after));
      active_calibration_.reset();
      break;
    }
  }
  phase_ = Phase::kIdle;
  status_ = qdmi::DeviceStatus::kIdle;
}

void Qrm::begin_next_work() {
  promote_due_retries();

  // 1. Forced calibrations (recovery procedures) run first.
  if (forced_calibration_.has_value()) {
    active_calibration_ = *forced_calibration_;
    forced_calibration_.reset();
    const auto procedure =
        *active_calibration_ == calibration::CalibrationKind::kQuick
            ? calibration::quick_procedure()
            : calibration::full_procedure();
    phase_ = Phase::kCalibration;
    phase_start_ = now_;
    phase_end_ = now_ + procedure.total_duration();
    status_ = qdmi::DeviceStatus::kCalibrating;
    if (tracer_ != nullptr) {
      phase_span_ = tracer_->begin_span("calibration", now_);
      tracer_->set_attribute(phase_span_, "kind",
                             to_string(*active_calibration_));
      tracer_->set_attribute(phase_span_, "forced", "true");
    }
    return;
  }

  // 2. Periodic health benchmark.
  if (controller_.benchmark_due(now_)) {
    const auto ghz = calibration::GhzBenchmark::chain_circuit(
        *device_, benchmark_.params().qubits == 0
                      ? device_->num_qubits()
                      : benchmark_.params().qubits);
    phase_ = Phase::kBenchmark;
    phase_start_ = now_;
    phase_end_ = now_ + config_.benchmark_overhead +
                 static_cast<double>(benchmark_.params().shots) *
                     device_->shot_duration(ghz);
    status_ = qdmi::DeviceStatus::kExecuting;
    if (tracer_ != nullptr)
      phase_span_ = tracer_->begin_span("health-benchmark", now_);
    return;
  }

  // 3. Controller-driven calibration. A scheduler-controlled policy waits
  //    for an empty queue, but is forced past the defer bound. A closed
  //    fleet gate defers the slot to a later pass (at most K devices
  //    calibrate concurrently; forced recovery calibrations above bypass
  //    the gate — an outage already serialized that device).
  if (calibration_gate_ == nullptr || calibration_gate_()) {
    const Seconds age = now_ - device_->calibration().calibrated_at;
    const bool defer_expired =
        age >
        config_.max_defer_factor * config_.controller.max_calibration_age;
    const auto request =
        controller_.decide(now_, *device_, queue_.empty() || defer_expired);
    if (request.has_value()) {
      active_calibration_ = request->kind;
      const auto procedure =
          request->kind == calibration::CalibrationKind::kQuick
              ? calibration::quick_procedure()
              : calibration::full_procedure();
      phase_ = Phase::kCalibration;
      phase_start_ = now_;
      phase_end_ = now_ + procedure.total_duration();
      status_ = qdmi::DeviceStatus::kCalibrating;
      if (tracer_ != nullptr) {
        phase_span_ = tracer_->begin_span("calibration", now_);
        tracer_->set_attribute(phase_span_, "kind", to_string(request->kind));
        tracer_->set_attribute(phase_span_, "reason", request->reason);
      }
      if (log_)
        log_->info(now_, "qrm",
                   std::string("starting ") + to_string(request->kind) +
                       " calibration: " + request->reason);
      return;
    }
  }

  // 4. User jobs. On a degraded device, jobs whose compiled circuits touch
  //    currently-masked hardware are held in place (they run once the
  //    supervisor unmasks after targeted recalibration); the first runnable
  //    job is picked instead, so healthy capacity keeps flowing.
  if (!queue_.empty()) {
    // Warm the structure cache for the queued parametric jobs before
    // picking: one farm task per distinct structure not yet cached (or in
    // flight) under the current epoch and mask, so distinct shapes compile
    // concurrently. wait_idle() brackets the farm work inside this
    // scheduler pass, so later device mutation (drift, recalibration)
    // never races an in-flight compile.
    if (prefetch_structures(queue_))
      compile_service_->compile_farm()->wait_idle();
    std::size_t pick = 0;
    if (!device_->health().all_healthy()) {
      const int capacity = static_cast<int>(
          device_->health().largest_component(device_->topology()).size());
      pick = queue_.size();
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const QuantumJob& candidate = pending_jobs_.at(queue_[i]).job;
        // A parametric job recompiles against the masked topology at
        // dispatch, so it is runnable whenever its logical width fits the
        // healthy component; a pre-compiled job must be legal as-is.
        const bool runnable =
            candidate.parametric != nullptr
                ? circuit_width(candidate.circuit) <= capacity
                : device_->health().circuit_legal(device_->topology(),
                                                  candidate.circuit);
        if (runnable) {
          pick = i;
          break;
        }
        m_degraded_holds_->inc();
        if (tracer_ != nullptr) {
          // One event per hold *stretch*, not per scheduler pass — a job
          // parked across a long repair would otherwise flood its span.
          JobSpans& spans = job_spans_.at(queue_[i]);
          if (!spans.held)
            tracer_->add_event(spans.queue, now_, "degraded-hold",
                               "circuit touches masked hardware");
          spans.held = true;
          spans.held_scans += 1;
        }
      }
      if (pick == queue_.size()) return;  // everything queued is held
    }
    const int id = queue_[pick];
    track_dequeue(id, /*retry=*/false);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    note_queue_gauge();
    auto& record = records_.at(id);
    const PendingJob& pending = pending_jobs_.at(id);
    const QuantumJob& job = pending.job;
    record.state = QuantumJobState::kRunning;
    record.start_time = now_;
    record.attempts += 1;
    // Write-ahead of the attempt itself: the journal shows the dispatch
    // before any device side effect, so a crash mid-execution recovers the
    // job as in-flight (requeued at head) rather than silently lost.
    if (journal_ != nullptr) {
      JobEvent event;
      event.kind = JobEvent::Kind::kDispatched;
      event.id = id;
      event.record = &record;
      emit(event);
    }
    m_queue_wait_->observe(now_ - record.submit_time);
    m_overhead_->observe(config_.job_overhead);

    device::ExecObserver* observer = nullptr;
    BatchEventObserver batch_events;
    if (tracer_ != nullptr) {
      JobSpans& spans = job_spans_.at(id);
      if (spans.held_scans > 0) {
        tracer_->set_attribute(spans.queue, "degraded_hold_scans",
                               std::to_string(spans.held_scans));
        spans.held = false;
        spans.held_scans = 0;
      }
      tracer_->end_span(spans.queue, now_, obs::SpanStatus::kOk);
      spans.queue = obs::kNoSpan;
      spans.attempt =
          tracer_->begin_span("attempt-" + std::to_string(record.attempts),
                              now_, tracer_->context(spans.root));
      spans.execute = tracer_->begin_span("execute", now_,
                                          tracer_->context(spans.attempt));
      batch_events.tracer = tracer_;
      batch_events.span = spans.execute;
      batch_events.base = now_ + config_.job_overhead;
      observer = &batch_events;
    }
    if (job.parametric != nullptr) {
      // Two-phase path: structure from the shared cache (warmed by the
      // prefetch above, keyed by the admission-time hash), angles patched
      // in, and the device-level program rebound instead of recompiled
      // when the shape repeats.
      const mqss::CompiledProgram program =
          compile_service_
              ->compile_structure(*job.parametric, pending.structure)
              ->bind(job.binding);
      record.result =
          device_->execute(program.native_circuit, job.shots, *rng_,
                           config_.execution_mode, observer, &prepared_);
    } else {
      record.result = device_->execute(job.circuit, job.shots, *rng_,
                                       config_.execution_mode, observer);
    }
    // The attempt occupies the machine for its full wall time either way;
    // whether it comes back with results or an abort is decided by the
    // fault window covering its start.
    active_job_faulted_ =
        injector_ != nullptr &&
        injector_->active(fault::FaultSite::kDeviceExecution, now_);
    phase_ = Phase::kJob;
    phase_start_ = now_;
    phase_end_ = now_ + config_.job_overhead + record.result.wall_time;
    active_job_ = id;
    status_ = qdmi::DeviceStatus::kExecuting;
    return;
  }
}

void Qrm::advance_to(Seconds t) {
  expects(t >= now_, "Qrm::advance_to: time cannot go backwards");
  // Compiles that submit_batch() left on the farm read the live device;
  // they finish before this call drifts or recalibrates it.
  if (compile_service_ != nullptr &&
      compile_service_->compile_farm() != nullptr)
    compile_service_->compile_farm()->wait_idle();
  while (true) {
    if (!online_) {
      apply_drift_until(t);
      now_ = t;
      return;
    }
    if (phase_ != Phase::kIdle) {
      if (phase_end_ <= t) {
        apply_drift_until(phase_end_);
        now_ = phase_end_;
        finish_phase(*rng_);
        continue;
      }
      apply_drift_until(t);
      now_ = t;
      return;
    }
    begin_next_work();
    if (phase_ != Phase::kIdle) continue;

    // Nothing to do now; wake at the next benchmark due time or retry
    // release if one falls inside the window.
    Seconds wake = t;
    if (!controller_.benchmark_history().empty()) {
      const Seconds due = controller_.benchmark_history().back().run_at +
                          config_.controller.benchmark_period;
      if (due > now_ && due < wake) wake = due;
    }
    for (const int id : retry_queue_) {
      const Seconds due = records_.at(id).next_retry_at;
      if (due > now_ && due < wake) wake = due;
    }
    apply_drift_until(wake);
    now_ = wake;
    if (wake >= t) return;
  }
}

void Qrm::drain() {
  int safety = 0;
  while (phase_ != Phase::kIdle || !queue_.empty() || !retry_queue_.empty() ||
         forced_calibration_.has_value()) {
    advance_to(now_ + hours(1.0));
    expects(++safety < 100000, "Qrm::drain: runaway event loop");
  }
}

const QuantumJobRecord& Qrm::record(int id) const {
  const auto it = records_.find(id);
  if (it == records_.end())
    throw NotFoundError("Qrm: unknown job id " + std::to_string(id));
  return it->second;
}

QrmMetrics Qrm::metrics() const {
  QrmMetrics metrics;
  metrics.jobs_completed = m_completed_->count();
  metrics.total_shots = m_total_shots_->count();
  metrics.good_shots = m_good_shots_->value();
  metrics.busy_time = m_busy_time_->value();
  metrics.calibration_time = m_calibration_time_->value();
  metrics.benchmark_time = m_benchmark_time_->value();
  metrics.jobs_failed = m_failed_->count();
  metrics.jobs_cancelled = m_cancelled_->count();
  metrics.retries = m_retries_->count();
  metrics.execution_faults = m_execution_faults_->count();
  metrics.calibrations_failed = m_calibrations_failed_->count();
  metrics.jobs_rejected_overload = m_rejected_overload_->count();
  metrics.jobs_rejected_too_wide = m_rejected_too_wide_->count();
  metrics.jobs_shed = m_shed_->count();
  metrics.degraded_holds = m_degraded_holds_->count();
  metrics.dead_letters_dropped = m_dead_letters_dropped_->count();
  metrics.jobs_migrated_out = m_migrated_out_->count();
  metrics.jobs_migrated_in = m_migrated_in_->count();
  metrics.dead_letters_drained = m_dead_letters_drained_->count();
  Seconds total_wait = 0.0;
  std::size_t n = 0;
  for (const auto& [id, record] : records_) {
    if (record.state == QuantumJobState::kCompleted) {
      total_wait += record.wait_time();
      ++n;
    }
  }
  metrics.mean_wait = n == 0 ? 0.0 : total_wait / static_cast<double>(n);
  return metrics;
}

}  // namespace hpcqc::sched
