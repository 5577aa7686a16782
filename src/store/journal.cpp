#include "hpcqc/store/journal.hpp"

#include <algorithm>
#include <memory>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/store/codec.hpp"

namespace hpcqc::store {

namespace {

void encode_trace(ByteWriter& out, const obs::TraceContext& trace) {
  out.u64(trace.trace_id);
  out.u64(trace.span);
}

obs::TraceContext decode_trace(ByteReader& in) {
  obs::TraceContext trace;
  trace.trace_id = in.u64();
  trace.span = in.u64();
  return trace;
}

void encode_param(ByteWriter& out, const circuit::ParamExpr& expr) {
  out.boolean(expr.is_literal());
  if (expr.is_literal()) {
    out.f64(expr.coefficient());
  } else {
    out.str(expr.name());
    out.f64(expr.coefficient());
    out.f64(expr.offset());
  }
}

circuit::ParamExpr decode_param(ByteReader& in) {
  if (in.boolean()) return circuit::ParamExpr::literal(in.f64());
  std::string name = in.str();
  const double coefficient = in.f64();
  const double offset = in.f64();
  return circuit::ParamExpr::symbol(std::move(name), coefficient, offset);
}

// Circuits are written op by op: a u8 kind, a u32-counted list of i32
// qubits, then the u32-counted params (raw f64 for concrete circuits,
// ParamExpr for parametric ones). Decoding rebuilds through `append`, so a
// payload with a bad kind, operand count or qubit index throws.
void encode_qubits(ByteWriter& out, const std::vector<int>& qubits) {
  out.u32(static_cast<std::uint32_t>(qubits.size()));
  for (const int q : qubits) out.i32(q);
}

std::vector<int> decode_qubits(ByteReader& in) {
  const std::uint32_t n = in.u32();
  std::vector<int> qubits;
  // A corrupt count must not reserve more than the payload could hold.
  qubits.reserve(std::min<std::size_t>(n, in.remaining() / 4));
  for (std::uint32_t q = 0; q < n; ++q) qubits.push_back(in.i32());
  return qubits;
}

void encode_circuit(ByteWriter& out, const circuit::Circuit& circuit) {
  out.i32(circuit.num_qubits());
  out.u32(static_cast<std::uint32_t>(circuit.ops().size()));
  for (const circuit::Operation& op : circuit.ops()) {
    out.u8(static_cast<std::uint8_t>(op.kind));
    encode_qubits(out, op.qubits);
    out.u32(static_cast<std::uint32_t>(op.params.size()));
    for (const double p : op.params) out.f64(p);
  }
}

circuit::Circuit decode_circuit(ByteReader& in) {
  circuit::Circuit circuit(in.i32());
  const std::uint32_t nops = in.u32();
  for (std::uint32_t i = 0; i < nops; ++i) {
    circuit::Operation op;
    op.kind = static_cast<circuit::OpKind>(in.u8());
    op.qubits = decode_qubits(in);
    const std::uint32_t np = in.u32();
    op.params.reserve(std::min<std::size_t>(np, in.remaining() / 8));
    for (std::uint32_t p = 0; p < np; ++p) op.params.push_back(in.f64());
    circuit.append(std::move(op));
  }
  return circuit;
}

void encode_parametric(ByteWriter& out,
                       const circuit::ParametricCircuit& circuit) {
  out.i32(circuit.num_qubits());
  out.u32(static_cast<std::uint32_t>(circuit.ops().size()));
  for (const circuit::ParametricOperation& op : circuit.ops()) {
    out.u8(static_cast<std::uint8_t>(op.kind));
    encode_qubits(out, op.qubits);
    out.u32(static_cast<std::uint32_t>(op.params.size()));
    for (const circuit::ParamExpr& p : op.params) encode_param(out, p);
  }
}

circuit::ParametricCircuit decode_parametric(ByteReader& in) {
  circuit::ParametricCircuit circuit(in.i32());
  const std::uint32_t nops = in.u32();
  for (std::uint32_t i = 0; i < nops; ++i) {
    circuit::ParametricOperation op;
    op.kind = static_cast<circuit::OpKind>(in.u8());
    op.qubits = decode_qubits(in);
    const std::uint32_t np = in.u32();
    for (std::uint32_t p = 0; p < np; ++p) op.params.push_back(decode_param(in));
    circuit.append(std::move(op));
  }
  return circuit;
}

}  // namespace

void encode_job(ByteWriter& out, const sched::QuantumJob& job) {
  out.str(job.name);
  out.u64(job.shots);
  out.str(job.project);
  out.u8(static_cast<std::uint8_t>(job.priority));
  encode_trace(out, job.trace);
  out.u64(job.migrations);
  out.boolean(job.migrated_in);
  out.boolean(job.parametric != nullptr);
  if (job.parametric != nullptr) {
    encode_parametric(out, *job.parametric);
    out.u32(static_cast<std::uint32_t>(job.binding.size()));
    for (const auto& [name, value] : job.binding) {
      out.str(name);
      out.f64(value);
    }
  } else {
    encode_circuit(out, job.circuit);
  }
}

sched::QuantumJob decode_job(ByteReader& in) {
  sched::QuantumJob job;
  job.name = in.str();
  job.shots = in.u64();
  job.project = in.str();
  job.priority = static_cast<sched::JobPriority>(in.u8());
  job.trace = decode_trace(in);
  job.migrations = in.u64();
  job.migrated_in = in.boolean();
  if (in.boolean()) {
    auto parametric =
        std::make_shared<circuit::ParametricCircuit>(decode_parametric(in));
    const std::uint32_t n = in.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = in.str();
      job.binding.emplace(std::move(name), in.f64());
    }
    // The concrete circuit is derived state: re-bind exactly like
    // Qrm::submit does, so width checks and estimates see real gates.
    job.circuit = parametric->bind(job.binding);
    job.parametric = std::move(parametric);
  } else {
    job.circuit = decode_circuit(in);
  }
  return job;
}

void encode_record(ByteWriter& out, const sched::QuantumJobRecord& rec) {
  out.i32(rec.id);
  out.str(rec.name);
  out.u64(rec.shots);
  out.u8(static_cast<std::uint8_t>(rec.state));
  out.f64(rec.submit_time);
  out.f64(rec.start_time);
  out.f64(rec.end_time);
  // ExecutionResult minus the counts: the journal is an audit trail, not a
  // result store — measurement histograms stay with the caller.
  out.f64(rec.result.wall_time);
  out.f64(rec.result.estimated_fidelity);
  out.u64(rec.result.shots);
  out.u64(rec.attempts);
  out.u64(rec.interruptions);
  out.u64(rec.migrations);
  out.f64(rec.estimated_cost);
  out.f64(rec.next_retry_at);
  out.str(rec.failure_reason);
  out.u8(static_cast<std::uint8_t>(rec.priority));
  encode_trace(out, rec.trace);
}

sched::QuantumJobRecord decode_record(ByteReader& in) {
  sched::QuantumJobRecord rec;
  rec.id = in.i32();
  rec.name = in.str();
  rec.shots = in.u64();
  rec.state = static_cast<sched::QuantumJobState>(in.u8());
  rec.submit_time = in.f64();
  rec.start_time = in.f64();
  rec.end_time = in.f64();
  rec.result.wall_time = in.f64();
  rec.result.estimated_fidelity = in.f64();
  rec.result.shots = in.u64();
  rec.attempts = in.u64();
  rec.interruptions = in.u64();
  rec.migrations = in.u64();
  rec.estimated_cost = in.f64();
  rec.next_retry_at = in.f64();
  rec.failure_reason = in.str();
  rec.priority = static_cast<sched::JobPriority>(in.u8());
  rec.trace = decode_trace(in);
  return rec;
}

std::vector<std::uint8_t> encode_job_event(const sched::JobEvent& event) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(event.kind));
  out.i32(event.device);
  out.i32(event.id);
  out.f64(event.at);
  out.boolean(event.job != nullptr);
  if (event.job != nullptr) encode_job(out, *event.job);
  out.boolean(event.record != nullptr);
  if (event.record != nullptr) encode_record(out, *event.record);
  out.str(event.reason);
  out.u64(event.count);
  out.u8(static_cast<std::uint8_t>(event.priority));
  out.f64(event.bucket_tokens);
  out.f64(event.bucket_refill);
  out.str(event.project);
  return out.take();
}

JobEventRecord decode_job_event(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  JobEventRecord event;
  event.kind = static_cast<sched::JobEvent::Kind>(in.u8());
  event.device = in.i32();
  event.id = in.i32();
  event.at = in.f64();
  event.has_job = in.boolean();
  if (event.has_job) event.job = decode_job(in);
  event.has_record = in.boolean();
  if (event.has_record) event.record = decode_record(in);
  event.reason = in.str();
  event.count = in.u64();
  event.priority = static_cast<sched::JobPriority>(in.u8());
  event.bucket_tokens = in.f64();
  event.bucket_refill = in.f64();
  event.project = in.str();
  return event;
}

std::vector<std::uint8_t> encode_fleet_event(const sched::FleetEvent& event) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(event.kind));
  out.i32(event.id);
  out.f64(event.at);
  out.str(event.name);
  out.i32(event.device);
  out.i32(event.local_id);
  out.i32(event.width);
  out.u8(static_cast<std::uint8_t>(event.priority));
  out.u8(static_cast<std::uint8_t>(event.refused_state));
  out.str(event.reason);
  out.i32(event.from);
  return out.take();
}

FleetEventRecord decode_fleet_event(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  FleetEventRecord event;
  event.kind = static_cast<sched::FleetEvent::Kind>(in.u8());
  event.id = in.i32();
  event.at = in.f64();
  event.name = in.str();
  event.device = in.i32();
  event.local_id = in.i32();
  event.width = in.i32();
  event.priority = static_cast<sched::JobPriority>(in.u8());
  event.refused_state = static_cast<sched::QuantumJobState>(in.u8());
  event.reason = in.str();
  event.from = in.i32();
  return event;
}

}  // namespace hpcqc::store
