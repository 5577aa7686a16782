#pragma once

// Native lowering for hpcqc_mqss (internal; not installed). This is the only
// implementation of the ZYZ table, the non-native two-qubit expansion,
// virtual-Z frame tracking, the 2-pi identity test and the peephole rules.
// Angles are affine forms over template parameters; a concrete circuit is
// the zero-symbol case, so NativeDecompositionPass, PeepholePass and
// compile_template all run the same code.

#include <cstdint>
#include <utility>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/mqss/compiler.hpp"
#include "hpcqc/mqss/template.hpp"

namespace hpcqc::mqss::lowering {

/// An angle as an affine form over the template's canonical parameters:
/// constant + sum(coefficient_i * theta_i). Terms are kept sorted by
/// parameter index with exact-zero coefficients dropped, so symbolic() is
/// a syntactic check: a form with no terms is binding-independent.
struct Affine {
  double constant = 0.0;
  std::vector<std::pair<std::uint32_t, double>> terms;

  bool symbolic() const { return !terms.empty(); }
};

/// Adds coefficient * theta[index] to `a`, keeping the terms canonical.
void add_term(Affine& a, std::uint32_t index, double coefficient);

/// One instruction with affine angles.
struct AffineOp {
  circuit::OpKind kind = circuit::OpKind::kI;
  std::vector<int> qubits;
  std::vector<Affine> params;
};

/// Lifts a concrete circuit: every angle becomes a literal form.
std::vector<AffineOp> lift(const circuit::Circuit& circuit);

/// Native decomposition: expands non-native two-qubit gates into 1q gates
/// and CZ, then lowers every 1q gate to PRX with virtual-Z frame tracking.
/// A rotation whose angle is symbol-dependent is always emitted: it is an
/// identity only at isolated bindings, never for all of them.
std::vector<AffineOp> decompose_native(const std::vector<AffineOp>& ops,
                                       int num_qubits);

/// Peephole on the native dialect: drops identity PRX, fuses same-axis PRX
/// chains and cancels adjacent CZ pairs. Every rewrite condition is
/// binding-independent (a literal 2-pi multiple), so the result is correct
/// for all bindings.
std::vector<AffineOp> peephole(std::vector<AffineOp> ops, int num_qubits);

/// Gates in `ops`, counted like circuit::Circuit::gate_count.
std::size_t gate_count(const std::vector<AffineOp>& ops);

/// The concrete circuit with every angle at its affine constant. When
/// `slots` is given, each symbol-dependent angle is recorded there for the
/// bind phase to patch.
circuit::Circuit emit(const std::vector<AffineOp>& ops, int num_qubits,
                      std::vector<ParamSlot>* slots = nullptr);

/// Packages a fully lowered unit as the final artifact; the one place a
/// CompilationUnit becomes a CompiledProgram.
CompiledProgram to_program(CompilationUnit unit);

}  // namespace hpcqc::mqss::lowering
