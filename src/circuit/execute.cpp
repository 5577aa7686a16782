#include "hpcqc/circuit/execute.hpp"

#include "hpcqc/common/error.hpp"
#include "hpcqc/qsim/gates.hpp"

namespace hpcqc::circuit {

qsim::Matrix2 gate_matrix_1q(const Operation& op) {
  static const qsim::Matrix2 kX = qsim::gate_x();
  static const qsim::Matrix2 kY = qsim::gate_y();
  static const qsim::Matrix2 kZ = qsim::gate_z();
  static const qsim::Matrix2 kH = qsim::gate_h();
  static const qsim::Matrix2 kS = qsim::gate_s();
  static const qsim::Matrix2 kSdg = qsim::gate_sdg();
  static const qsim::Matrix2 kT = qsim::gate_t();
  static const qsim::Matrix2 kTdg = qsim::gate_tdg();
  static const qsim::Matrix2 kSx = qsim::gate_sx();
  switch (op.kind) {
    case OpKind::kX: return kX;
    case OpKind::kY: return kY;
    case OpKind::kZ: return kZ;
    case OpKind::kH: return kH;
    case OpKind::kS: return kS;
    case OpKind::kSdg: return kSdg;
    case OpKind::kT: return kT;
    case OpKind::kTdg: return kTdg;
    case OpKind::kSx: return kSx;
    case OpKind::kRx: return qsim::gate_rx(op.params[0]);
    case OpKind::kRy: return qsim::gate_ry(op.params[0]);
    case OpKind::kRz: return qsim::gate_rz(op.params[0]);
    case OpKind::kU:
      return qsim::gate_u(op.params[0], op.params[1], op.params[2]);
    case OpKind::kPrx: return qsim::gate_prx(op.params[0], op.params[1]);
    default: throw Error("gate_matrix_1q: op is not a single-qubit gate");
  }
}

const qsim::Matrix4& gate_matrix_2q(OpKind kind) {
  static const qsim::Matrix4 kCx = qsim::gate_cx();
  static const qsim::Matrix4 kSwap = qsim::gate_swap();
  static const qsim::Matrix4 kIswap = qsim::gate_iswap();
  switch (kind) {
    case OpKind::kCx: return kCx;
    case OpKind::kSwap: return kSwap;
    case OpKind::kIswap: return kIswap;
    default: throw Error("gate_matrix_2q: op is not a dense two-qubit gate");
  }
}

// The noiseless paths (run_ideal, ideal_distribution, the emulated
// fallback, exact VQE energies, equivalence checks) apply gates here. Noisy
// device execution goes through device::CompiledProgram, which takes its
// matrices from the same two tables.
void apply_op(qsim::StateVector& state, const Operation& op) {
  switch (op.kind) {
    case OpKind::kBarrier:
    case OpKind::kI:
      return;
    case OpKind::kMeasure:
      throw PreconditionError(
          "apply_op: measurements are handled by run_ideal, not apply_op");
    case OpKind::kCz:
      state.apply_cphase(M_PI, op.qubits[0], op.qubits[1]);
      return;
    case OpKind::kCphase:
      state.apply_cphase(op.params[0], op.qubits[0], op.qubits[1]);
      return;
    case OpKind::kCx:
    case OpKind::kSwap:
    case OpKind::kIswap:
      state.apply_2q(gate_matrix_2q(op.kind), op.qubits[0], op.qubits[1]);
      return;
    default:
      state.apply_1q(gate_matrix_1q(op), op.qubits[0]);
      return;
  }
}

void apply_gates(qsim::StateVector& state, const Circuit& circuit) {
  expects(state.num_qubits() == circuit.num_qubits(),
          "apply_gates: register size mismatch");
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::kMeasure) continue;
    apply_op(state, op);
  }
}

std::uint64_t compact_outcome(std::uint64_t full,
                              std::span<const int> qubits) {
  std::uint64_t compact = 0;
  for (std::size_t i = 0; i < qubits.size(); ++i)
    if (full & (std::uint64_t{1} << qubits[i]))
      compact |= std::uint64_t{1} << i;
  return compact;
}

qsim::Counts run_ideal(const Circuit& circuit, std::size_t shots, Rng& rng) {
  qsim::StateVector state(circuit.num_qubits());
  apply_gates(state, circuit);
  const std::vector<int> measured = circuit.measured_qubits();
  auto samples = state.sample(shots, rng);
  qsim::Counts counts;
  counts.set_num_qubits(static_cast<int>(measured.size()));
  for (std::uint64_t s : samples) counts.add(compact_outcome(s, measured));
  return counts;
}

std::vector<double> ideal_distribution(const Circuit& circuit) {
  qsim::StateVector state(circuit.num_qubits());
  apply_gates(state, circuit);
  const std::vector<int> measured = circuit.measured_qubits();
  const auto full = state.probabilities();
  std::vector<double> marginal(std::size_t{1} << measured.size(), 0.0);
  for (std::uint64_t i = 0; i < full.size(); ++i)
    marginal[compact_outcome(i, measured)] += full[i];
  return marginal;
}

}  // namespace hpcqc::circuit
