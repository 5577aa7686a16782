#pragma once

#include <cstdint>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/qsim/counts.hpp"
#include "hpcqc/qsim/gates.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::circuit {

/// Matrix of a one-qubit gate operation. Fixed gates come from
/// function-local statics built once per process; rotations are built from
/// the op's angles. Throws for any op that is not a one-qubit gate.
qsim::Matrix2 gate_matrix_1q(const Operation& op);

/// Matrix of a dense two-qubit gate (CX, SWAP or iSWAP), built once per
/// process. Throws for any other kind (CZ and CPHASE take the diagonal
/// apply_cphase path instead).
const qsim::Matrix4& gate_matrix_2q(OpKind kind);

/// Applies one gate operation to a state vector (barriers are no-ops;
/// measurements are rejected — use run_ideal for measured circuits).
void apply_op(qsim::StateVector& state, const Operation& op);

/// Applies every gate of the circuit, skipping barriers and measurements.
/// This yields the ideal (noiseless) final state.
void apply_gates(qsim::StateVector& state, const Circuit& circuit);

/// Ideal execution: evolves |0..0> through the circuit and samples `shots`
/// outcomes of the measured qubits (compacted in ascending qubit order).
qsim::Counts run_ideal(const Circuit& circuit, std::size_t shots, Rng& rng);

/// Exact outcome distribution of the measured qubits (marginalized).
std::vector<double> ideal_distribution(const Circuit& circuit);

/// Compacts a full-register outcome to the bits of `qubits`
/// (qubits[i] becomes bit i of the result).
std::uint64_t compact_outcome(std::uint64_t full, std::span<const int> qubits);

}  // namespace hpcqc::circuit
