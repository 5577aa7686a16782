#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"

namespace hpcqc::circuit {

/// An angle expression: either a literal or `coefficient * symbol + offset`.
/// This is the deferred-binding mechanism variational frontends rely on —
/// the circuit template is compiled/validated once and rebound with new
/// parameter values every optimizer iteration.
class ParamExpr {
public:
  /// A fixed angle.
  static ParamExpr literal(double value);
  /// A named parameter, scaled and shifted: coefficient * symbol + offset.
  static ParamExpr symbol(std::string name, double coefficient = 1.0,
                          double offset = 0.0);

  bool is_literal() const { return name_.empty(); }
  const std::string& name() const { return name_; }
  double coefficient() const { return coefficient_; }
  double offset() const { return offset_; }

  /// Evaluates against a binding; throws NotFoundError for unbound symbols.
  double evaluate(const std::map<std::string, double>& binding) const;

private:
  std::string name_;          // empty = literal
  double coefficient_ = 0.0;  // literal value when name_ is empty
  double offset_ = 0.0;
};

/// One templated instruction.
struct ParametricOperation {
  OpKind kind = OpKind::kI;
  std::vector<int> qubits;
  std::vector<ParamExpr> params;
};

/// A circuit template over named parameters. Structure (op kinds, qubit
/// operands, arity) is validated at append time; angles are bound later.
class ParametricCircuit {
public:
  explicit ParametricCircuit(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<ParametricOperation>& ops() const { return ops_; }

  void append(ParametricOperation op);

  // Builder conveniences for the common parameterized gates; literal-only
  // gates route through the same append.
  ParametricCircuit& rx(ParamExpr theta, int qubit);
  ParametricCircuit& ry(ParamExpr theta, int qubit);
  ParametricCircuit& rz(ParamExpr theta, int qubit);
  ParametricCircuit& prx(ParamExpr theta, ParamExpr phi, int qubit);
  ParametricCircuit& cphase(ParamExpr theta, int qubit0, int qubit1);
  ParametricCircuit& h(int qubit);
  ParametricCircuit& x(int qubit);
  ParametricCircuit& cz(int qubit0, int qubit1);
  ParametricCircuit& cx(int control, int target);
  ParametricCircuit& barrier();
  ParametricCircuit& measure(std::vector<int> qubits = {});

  /// The distinct symbol names, sorted.
  std::vector<std::string> parameters() const;

  /// Instantiates a concrete circuit. Every symbol must be bound; extra
  /// entries in the binding are rejected to catch typos.
  Circuit bind(const std::map<std::string, double>& binding) const;

  /// Word-wise hash (hash_mix) of the template's structure with parameter
  /// *values* abstracted out: op kinds, operands, literal angle bits, and —
  /// for symbolic angles — the symbol's index in parameters() plus its
  /// affine (coefficient, offset). Two templates hash equal exactly when every
  /// binding produces structurally-identical circuits; the structure-phase
  /// compile cache keys on this.
  std::uint64_t structural_hash() const;

private:
  int num_qubits_;
  std::vector<ParametricOperation> ops_;
};

}  // namespace hpcqc::circuit
