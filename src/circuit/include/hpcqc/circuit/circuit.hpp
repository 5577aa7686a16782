#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hpcqc/circuit/op.hpp"
#include "hpcqc/common/rng.hpp"

namespace hpcqc::circuit {

/// Gate-level quantum circuit: an ordered operation list over a fixed
/// register. This is the exchange format between the frontend adapters,
/// the compiler passes and the QPU executor (the "shared IR" role that QIR
/// plays in the paper's MQSS diagram).
class Circuit {
public:
  explicit Circuit(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  const std::vector<Operation>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Appends a validated operation (qubits in range and distinct — for
  /// two-qubit gates and measure lists alike; parameter arity matches the
  /// op kind).
  void append(Operation op);

  // ---- Builder convenience -------------------------------------------------
  Circuit& i(int q) { return add0(OpKind::kI, q); }
  Circuit& x(int q) { return add0(OpKind::kX, q); }
  Circuit& y(int q) { return add0(OpKind::kY, q); }
  Circuit& z(int q) { return add0(OpKind::kZ, q); }
  Circuit& h(int q) { return add0(OpKind::kH, q); }
  Circuit& s(int q) { return add0(OpKind::kS, q); }
  Circuit& sdg(int q) { return add0(OpKind::kSdg, q); }
  Circuit& t(int q) { return add0(OpKind::kT, q); }
  Circuit& tdg(int q) { return add0(OpKind::kTdg, q); }
  Circuit& sx(int q) { return add0(OpKind::kSx, q); }
  Circuit& rx(double theta, int q);
  Circuit& ry(double theta, int q);
  Circuit& rz(double theta, int q);
  Circuit& u(double theta, double phi, double lambda, int q);
  Circuit& prx(double theta, double phi, int q);
  Circuit& cz(int q0, int q1);
  Circuit& cx(int control, int target);
  Circuit& swap(int q0, int q1);
  Circuit& iswap(int q0, int q1);
  Circuit& cphase(double theta, int q0, int q1);
  Circuit& barrier();
  /// Terminal measurement of the listed qubits (empty = all).
  Circuit& measure(std::vector<int> qubits = {});

  // ---- Queries --------------------------------------------------------------
  /// Count of non-measurement, non-barrier gate operations.
  std::size_t gate_count() const;
  std::size_t two_qubit_gate_count() const;

  /// Circuit depth: longest chain of gates over shared qubits (barriers
  /// synchronize all qubits; measurements are excluded).
  std::size_t depth() const;

  /// Qubits measured by the terminal measure op, in the declared order
  /// (bit i of an outcome corresponds to entry i — compiled circuits rely
  /// on this to keep virtual bit order); all qubits, ascending, if the
  /// circuit measures implicitly (no measure op present).
  std::vector<int> measured_qubits() const;

  /// True when every gate is in the native set (PRX / CZ).
  bool is_native() const;

  /// Returns a copy with all qubit indices remapped through `layout`
  /// (layout[virtual] = physical). The result register has `new_num_qubits`
  /// qubits (>= max mapped index + 1).
  Circuit remapped(std::span<const int> layout, int new_num_qubits) const;

  bool operator==(const Circuit&) const = default;

  /// Structural hash over ops (kind, operands, parameter bits), one
  /// hash_mix word-wise step per field (common/hash.hpp).
  /// Equal circuits hash equal; used as a compile-cache key.
  std::uint64_t structural_hash() const;

  /// Like structural_hash() but with all parameter values abstracted out:
  /// two circuits that differ only in rotation angles hash equal. This is
  /// the shape a parameter rebind preserves, so prepared executables
  /// validate against it before patching angles in place.
  std::uint64_t shape_hash() const;

  /// Overwrites one parameter of one op in place (the parameter-binding
  /// phase of two-phase compilation: angles are patched into a compiled
  /// program without re-running any pass). Throws on out-of-range indices.
  void set_param(std::size_t op_index, std::size_t param_index, double value);

  // ---- Standard preparation circuits ----------------------------------------
  /// GHZ state preparation on `num_qubits` qubits plus terminal measurement —
  /// the standardized live-performance benchmark the paper runs regularly
  /// on the QPU (§3.2). The chain order allows nearest-neighbour CX.
  static Circuit ghz(int num_qubits);

  /// Bell pair on 2 qubits, measured.
  static Circuit bell();

  /// Quantum Fourier transform on `num_qubits` qubits (no measurement).
  static Circuit qft(int num_qubits);

  /// Random circuit of `depth` layers (each layer: PRX on every qubit,
  /// CZ on a random disjoint pairing), useful for property tests.
  static Circuit random(int num_qubits, int depth, Rng& rng);

  /// The adjoint circuit: gates reversed and individually inverted
  /// (global-phase-exact is not guaranteed, unitary action is). Rejects
  /// circuits containing measurements; barriers are preserved.
  Circuit inverse() const;

  /// Unitary folding for zero-noise extrapolation: G -> G (G† G)^k, i.e.
  /// noise scale = 2k + 1. Terminal measurements are re-appended after the
  /// folded body. `scale` must be an odd positive integer.
  Circuit folded(int scale) const;

private:
  Circuit& add0(OpKind kind, int q);

  int num_qubits_;
  std::vector<Operation> ops_;
};

}  // namespace hpcqc::circuit
