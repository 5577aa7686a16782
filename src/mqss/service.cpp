#include "hpcqc/mqss/service.hpp"

#include <algorithm>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/common/hash.hpp"

namespace hpcqc::mqss {

QpuService::QpuService(device::DeviceModel& device,
                       const qdmi::DeviceInterface& qdmi, Rng& rng,
                       CompilerOptions options)
    : device_(&device), qdmi_(&qdmi), rng_(&rng), options_(options) {}

void QpuService::set_fault_context(const fault::FaultInjector* injector,
                                   const SimClock* clock) {
  injector_ = injector;
  clock_ = clock;
}

void QpuService::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_runs_ = m_runs_emulated_ = m_cache_hits_ = m_cache_misses_ = nullptr;
    m_cache_evictions_ = m_structure_hits_ = m_structure_misses_ = nullptr;
    m_cache_hit_rate_ = m_structure_size_ = nullptr;
    return;
  }
  m_runs_ = &registry->counter("mqss.runs");
  m_runs_emulated_ = &registry->counter("mqss.runs_emulated");
  m_cache_hits_ = &registry->counter("mqss.compile_cache_hits");
  m_cache_misses_ = &registry->counter("mqss.compile_cache_misses");
  m_cache_evictions_ = &registry->counter("mqss.compile_cache_evictions");
  m_structure_hits_ = &registry->counter("mqss.structure_cache_hits");
  m_structure_misses_ = &registry->counter("mqss.structure_cache_misses");
  m_cache_hit_rate_ = &registry->gauge("mqss.compile_cache_hit_rate");
  m_structure_size_ = &registry->gauge("mqss.structure_cache_size");
}

namespace {

/// Forwards device batch progress into instant events on the execute span.
struct ExecSpanObserver final : device::ExecObserver {
  obs::Span* span = nullptr;

  void on_shot_batch(std::size_t batch_index, std::size_t first_shot,
                     std::size_t shots_in_batch, std::size_t errored_shots,
                     Seconds /*elapsed*/) override {
    span->add_event("shot-batch-" + std::to_string(batch_index),
                    "shots " + std::to_string(first_shot) + "+" +
                        std::to_string(shots_in_batch) + ", " +
                        std::to_string(errored_shots) + " errored");
  }
};

/// Hash (hash_mix) of the QDMI view's per-qubit / per-coupler kOperational
/// bits. This is what keys masked-topology state into the compile cache:
/// a view that masks qubits without bumping the device's calibration epoch
/// (telemetry-driven sensors, health overlays) still changes the
/// fingerprint, so stale placements can never be served after a mask flip.
std::uint64_t health_fingerprint(const qdmi::DeviceInterface& device) {
  std::uint64_t hash = kHashBasis;
  const int num_qubits = device.num_qubits();
  for (int q = 0; q < num_qubits; ++q)
    hash_mix(hash,
             device.qubit_property(qdmi::QubitProperty::kOperational, q) >= 0.5
                 ? 0x71ULL
                 : 0x70ULL);
  for (const auto& [a, b] : device.coupling_map())
    hash_mix(hash, device.coupler_property(qdmi::CouplerProperty::kOperational,
                                           a, b) >= 0.5
                       ? 0x63ULL
                       : 0x62ULL);
  return hash;
}

}  // namespace

bool QpuService::fault_active(fault::FaultSite site) const {
  return injector_ != nullptr && clock_ != nullptr &&
         injector_->active(site, clock_->now());
}

std::uint64_t QpuService::cache_key(std::uint64_t structural_hash,
                                    std::uint64_t health) const {
  std::uint64_t hash = kHashBasis;
  hash_mix(hash, structural_hash);
  // A recalibration bumps the device's epoch counter; entries keyed under
  // the old epoch were compiled against metrics the JIT must no longer
  // trust. (The counter — not the calibration timestamp — is keyed: two
  // calibrations can land at the same simulated instant.)
  hash_mix(hash, device_->calibration_epoch());
  hash_mix(hash, health);
  hash_mix(hash, static_cast<std::uint64_t>(options_.placement) + 1);
  hash_mix(hash, options_.optimize ? 0x6f7074ULL : 0x726177ULL);
  hash_mix(hash, options_.fidelity_aware_routing ? 0x666964ULL : 0x686f70ULL);
  // Device identity: two fleet devices with identical registers, epochs,
  // and masks still key disjoint entries.
  hash_mix(hash, identity_salt_);
  return hash;
}

void QpuService::set_device_identity(const std::string& name) {
  device_identity_ = name;
  std::uint64_t hash = kHashBasis;
  for (const unsigned char c : name) hash_mix(hash, c);
  identity_salt_ = hash;
}

void QpuService::mirror_cache_metrics(bool hit, bool structure) const {
  const StructureCacheStats stats = cache_.stats();
  if (structure) {
    if (hit && m_structure_hits_ != nullptr) m_structure_hits_->inc();
    if (!hit && m_structure_misses_ != nullptr) m_structure_misses_->inc();
  } else {
    if (hit && m_cache_hits_ != nullptr) m_cache_hits_->inc();
    if (!hit && m_cache_misses_ != nullptr) m_cache_misses_->inc();
  }
  if (m_cache_evictions_ != nullptr && stats.evictions > mirrored_evictions_)
    m_cache_evictions_->inc(
        static_cast<double>(stats.evictions - mirrored_evictions_));
  mirrored_evictions_ = stats.evictions;
  if (m_cache_hit_rate_ != nullptr) m_cache_hit_rate_->set(stats.hit_rate());
  if (m_structure_size_ != nullptr)
    m_structure_size_->set(static_cast<double>(stats.size));
}

StructureCache::Lookup QpuService::lookup_concrete(
    const circuit::Circuit& circuit) const {
  const std::uint64_t key =
      cache_key(circuit.structural_hash(), health_fingerprint(*qdmi_));
  auto lookup = cache_.get_or_compile(key, [this, &circuit] {
    return std::make_shared<const CompiledTemplate>(
        as_template(compile(circuit, *qdmi_, options_)));
  });
  mirror_cache_metrics(lookup.hit, /*structure=*/false);
  return lookup;
}

StructureCache::Lookup QpuService::lookup_structure(
    const circuit::ParametricCircuit& circuit,
    std::uint64_t structural_hash) const {
  const std::uint64_t key =
      cache_key(structural_hash, health_fingerprint(*qdmi_));
  auto lookup = cache_.get_or_compile(key, [this, &circuit] {
    return std::make_shared<const CompiledTemplate>(
        compile_template(circuit, *qdmi_, options_));
  });
  mirror_cache_metrics(lookup.hit, /*structure=*/true);
  return lookup;
}

RunResult QpuService::run(const circuit::Circuit& circuit, std::size_t shots,
                          obs::TraceContext parent) {
  expects(shots > 0, "QpuService::run: need at least one shot");
  if (m_runs_ != nullptr) m_runs_->inc();
  obs::Span span;  // inert without a tracer
  if (tracer_ != nullptr) {
    span = tracer_->span("qpu.run", parent);
    span.set_attribute("shots", std::to_string(shots));
  }
  try {
    if (fault_active(fault::FaultSite::kQdmiQuery))
      throw TransientError("QpuService::run: QDMI metric query timed out",
                           ErrorCode::kTimeout);
    const auto status = qdmi_->status();
    if (status == qdmi::DeviceStatus::kOffline ||
        status == qdmi::DeviceStatus::kMaintenance)
      throw TransientError(std::string("QpuService::run: QPU unavailable (") +
                               qdmi::to_string(status) + ")",
                           ErrorCode::kDeviceUnavailable);
    const CompiledProgram program = compile_traced(circuit, span);
    return finish_run(program, shots, span);
  } catch (const Error& error) {
    if (span) {
      span.add_event("error", error.what());
      span.set_status(obs::SpanStatus::kError);
    }
    throw;  // the Span destructor ends the span with the error status
  }
}

RunResult QpuService::run_parametric(const circuit::ParametricCircuit& circuit,
                                     const std::map<std::string, double>& binding,
                                     std::size_t shots,
                                     obs::TraceContext parent) {
  expects(shots > 0, "QpuService::run_parametric: need at least one shot");
  if (m_runs_ != nullptr) m_runs_->inc();
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->span("qpu.run", parent);
    span.set_attribute("shots", std::to_string(shots));
    span.set_attribute("parametric", "true");
  }
  try {
    if (fault_active(fault::FaultSite::kQdmiQuery))
      throw TransientError(
          "QpuService::run_parametric: QDMI metric query timed out",
          ErrorCode::kTimeout);
    const auto status = qdmi_->status();
    if (status == qdmi::DeviceStatus::kOffline ||
        status == qdmi::DeviceStatus::kMaintenance)
      throw TransientError(
          std::string("QpuService::run_parametric: QPU unavailable (") +
              qdmi::to_string(status) + ")",
          ErrorCode::kDeviceUnavailable);
    const CompiledProgram program =
        compile_parametric_traced(circuit, binding, span);
    return finish_run(program, shots, span);
  } catch (const Error& error) {
    if (span) {
      span.add_event("error", error.what());
      span.set_status(obs::SpanStatus::kError);
    }
    throw;
  }
}

RunResult QpuService::finish_run(const CompiledProgram& program,
                                 std::size_t shots, obs::Span& span) {
  if (fault_active(fault::FaultSite::kDeviceExecution))
    throw TransientError("QpuService::run: QPU aborted the job",
                         ErrorCode::kDeviceUnavailable);
  obs::Span exec_span;
  ExecSpanObserver batch_events;
  device::ExecObserver* observer = nullptr;
  if (span) {
    exec_span = span.child("execute");
    batch_events.span = &exec_span;
    observer = &batch_events;
  }
  const auto exec = device_->execute(program.native_circuit, shots, *rng_,
                                     device::ExecutionMode::kAuto, observer);
  if (exec_span) {
    exec_span.set_attribute("estimated_fidelity",
                            std::to_string(exec.estimated_fidelity));
    exec_span.set_attribute("qpu_time_s", std::to_string(exec.wall_time));
    exec_span.end();
  }
  if (fault_active(fault::FaultSite::kNetworkTransfer))
    throw TransientError("QpuService::run: result transfer corrupted",
                         ErrorCode::kNetwork);
  if (span) span.add_event("result-transferred");
  RunResult result;
  result.counts = exec.counts;
  result.estimated_fidelity = exec.estimated_fidelity;
  result.qpu_time = exec.wall_time;
  result.native_gate_count = program.native_gate_count;
  result.swap_count = program.swap_count;
  result.initial_layout = program.initial_layout;
  return result;
}

void QpuService::annotate_cache_stats(obs::Span& span) const {
  const StructureCacheStats stats = cache_.stats();
  span.set_attribute("cache_hits", std::to_string(stats.hits));
  span.set_attribute("cache_misses", std::to_string(stats.misses));
  span.set_attribute("cache_evictions", std::to_string(stats.evictions));
  span.set_attribute("cache_size", std::to_string(stats.size));
}

CompiledProgram QpuService::compile_traced(const circuit::Circuit& circuit,
                                           obs::Span& parent) {
  if (!parent) return compile_only(circuit);
  obs::Span compile_span = parent.child("compile");
  CompiledProgram program;
  bool hit = false;
  if (cache_enabled_) {
    auto lookup = lookup_concrete(circuit);
    program = lookup.value->base;
    hit = lookup.hit;
  } else {
    program = compile(circuit, *qdmi_, options_);
  }
  compile_span.set_attribute("cache", hit ? "hit" : "miss");
  compile_span.set_attribute("calibration_epoch",
                             std::to_string(device_->calibration_epoch()));
  if (!hit) {
    // Per-pass child spans reconstructed from the pass trace (zero duration
    // on the simulated clock: JIT compilation is modeled as instantaneous,
    // its cost lives in the QRM's job_overhead).
    for (std::size_t i = 0; i < program.pass_trace.size(); ++i) {
      obs::Span pass_span = compile_span.child("pass:" +
                                               program.pass_trace[i]);
      if (i < program.pass_gate_counts.size())
        pass_span.set_attribute(
            "gates", std::to_string(program.pass_gate_counts[i]));
    }
  }
  compile_span.set_attribute("native_gates",
                             std::to_string(program.native_gate_count));
  compile_span.set_attribute("swaps", std::to_string(program.swap_count));
  annotate_cache_stats(compile_span);
  return program;
}

CompiledProgram QpuService::compile_parametric_traced(
    const circuit::ParametricCircuit& circuit,
    const std::map<std::string, double>& binding, obs::Span& parent) {
  if (!parent) return compile_parametric(circuit, binding);
  obs::Span compile_span = parent.child("compile");
  std::shared_ptr<const CompiledTemplate> tmpl;
  bool hit = false;
  {
    obs::Span structure_span = compile_span.child("compile.structure");
    if (cache_enabled_) {
      auto lookup = lookup_structure(circuit, circuit.structural_hash());
      tmpl = lookup.value;
      hit = lookup.hit;
    } else {
      tmpl = std::make_shared<const CompiledTemplate>(
          compile_template(circuit, *qdmi_, options_));
    }
    structure_span.set_attribute("cache", hit ? "hit" : "miss");
    structure_span.set_attribute("calibration_epoch",
                                 std::to_string(device_->calibration_epoch()));
    if (!hit) {
      for (std::size_t i = 0; i < tmpl->base.pass_trace.size(); ++i) {
        obs::Span pass_span =
            structure_span.child("pass:" + tmpl->base.pass_trace[i]);
        if (i < tmpl->base.pass_gate_counts.size())
          pass_span.set_attribute(
              "gates", std::to_string(tmpl->base.pass_gate_counts[i]));
      }
    }
  }
  CompiledProgram program;
  {
    obs::Span bind_span = compile_span.child("compile.bind");
    program = tmpl->bind(binding);
    bind_span.set_attribute("slots", std::to_string(tmpl->slots.size()));
    bind_span.set_attribute("parameters",
                            std::to_string(tmpl->parameters.size()));
  }
  compile_span.set_attribute("cache", hit ? "hit" : "miss");
  compile_span.set_attribute("native_gates",
                             std::to_string(program.native_gate_count));
  compile_span.set_attribute("swaps", std::to_string(program.swap_count));
  annotate_cache_stats(compile_span);
  return program;
}

RunResult QpuService::run_emulated(const circuit::Circuit& circuit,
                                   std::size_t shots,
                                   obs::TraceContext parent) {
  expects(shots > 0, "QpuService::run_emulated: need at least one shot");
  if (m_runs_emulated_ != nullptr) m_runs_emulated_->inc();
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->span("qpu.run_emulated", parent);
    span.set_attribute("shots", std::to_string(shots));
  }
  // Compilation reuses the cache and the twin's last-known metrics — the
  // emulator keeps serving even while the physical machine (and its live
  // QDMI feed) is down.
  const CompiledProgram program = compile_traced(circuit, span);
  RunResult result;
  result.counts = circuit::run_ideal(program.native_circuit, shots, *rng_);
  result.estimated_fidelity = 1.0;  // noiseless by construction
  result.qpu_time = 0.0;            // no QPU seconds consumed
  result.native_gate_count = program.native_gate_count;
  result.swap_count = program.swap_count;
  result.initial_layout = program.initial_layout;
  result.emulated = true;
  return result;
}

CompiledProgram QpuService::compile_only(const circuit::Circuit& circuit) const {
  if (!cache_enabled_) return compile(circuit, *qdmi_, options_);
  return lookup_concrete(circuit).value->base;
}

std::shared_ptr<const CompiledTemplate> QpuService::compile_structure(
    const circuit::ParametricCircuit& circuit) const {
  return compile_structure(circuit, circuit.structural_hash());
}

std::shared_ptr<const CompiledTemplate> QpuService::compile_structure(
    const circuit::ParametricCircuit& circuit,
    std::uint64_t structural_hash) const {
  if (!cache_enabled_)
    return std::make_shared<const CompiledTemplate>(
        compile_template(circuit, *qdmi_, options_));
  return lookup_structure(circuit, structural_hash).value;
}

CompiledProgram QpuService::compile_parametric(
    const circuit::ParametricCircuit& circuit,
    const std::map<std::string, double>& binding) const {
  return compile_structure(circuit)->bind(binding);
}

void QpuService::prefetch_structures(std::span<const StructureRef> batch) const {
  if (farm_ == nullptr || !cache_enabled_ || batch.empty()) return;
  // Keys and their QDMI health queries are computed here, on the
  // orchestration thread — workers only run the pure compile. A queue
  // holds a handful of shapes, so a linear scan finds repeats.
  const std::uint64_t health = health_fingerprint(*qdmi_);
  std::vector<std::uint64_t> seen;
  for (const StructureRef& ref : batch) {
    if (std::find(seen.begin(), seen.end(), ref.structural_hash) != seen.end())
      continue;
    seen.push_back(ref.structural_hash);
    const std::uint64_t key = cache_key(ref.structural_hash, health);
    // A resident key's task would return without compiling; skip it.
    if (cache_.resident(key)) continue;
    StructureCache* cache = &cache_;
    const qdmi::DeviceInterface* qdmi = qdmi_;
    const CompilerOptions options = options_;
    farm_->enqueue([cache, key, qdmi, options, circuit = ref.circuit] {
      cache->prefetch(key, [&] {
        return std::make_shared<const CompiledTemplate>(
            compile_template(*circuit, *qdmi, options));
      });
    });
  }
}

void QpuService::set_compile_cache_enabled(bool enabled) {
  cache_enabled_ = enabled;
  if (!enabled) cache_.clear();
}

void QpuService::set_compile_cache_capacity(std::size_t capacity) {
  expects(capacity > 0, "compile cache capacity must be positive");
  cache_.set_capacity(capacity);
}

net::Payload QpuService::serialize(const RunResult& result,
                                   net::ResultFormat format) const {
  switch (format) {
    case net::ResultFormat::kHistogram:
      return net::encode_histogram(result.counts);
    case net::ResultFormat::kBitstringsPerShot: {
      // Expand the histogram back into per-shot records (order is not
      // semantically meaningful for terminal measurements).
      std::vector<std::uint64_t> samples;
      samples.reserve(result.counts.total_shots());
      for (const auto& [outcome, count] : result.counts.raw())
        samples.insert(samples.end(), count, outcome);
      return net::encode_bitstrings(samples, result.counts.num_qubits());
    }
    case net::ResultFormat::kRawIq: {
      // Synthesize IQ-plane points consistent with the classified bits:
      // |0> clusters near (+1, 0), |1> near (-1, 0), with spread.
      std::vector<float> iq;
      const int nq = result.counts.num_qubits();
      iq.reserve(2 * static_cast<std::size_t>(nq) *
                 result.counts.total_shots());
      for (const auto& [outcome, count] : result.counts.raw()) {
        for (std::uint64_t s = 0; s < count; ++s) {
          for (int q = 0; q < nq; ++q) {
            const double center = (outcome >> q) & 1 ? -1.0 : 1.0;
            iq.push_back(static_cast<float>(center + 0.2 * rng_->normal()));
            iq.push_back(static_cast<float>(0.2 * rng_->normal()));
          }
        }
      }
      return net::encode_raw_iq(iq, nq, result.counts.total_shots());
    }
  }
  throw PermanentError("QpuService::serialize: unhandled format",
                       ErrorCode::kInternal);
}

}  // namespace hpcqc::mqss
