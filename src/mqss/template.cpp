#include "hpcqc/mqss/template.hpp"

#include <algorithm>
#include <memory>

#include "hpcqc/common/error.hpp"
#include "lowering.hpp"

namespace hpcqc::mqss {

using circuit::OpKind;
using circuit::ParamExpr;
using circuit::ParametricCircuit;

namespace {

/// Lifts a ParamExpr to an affine form over the canonical parameter order.
lowering::Affine lift(const ParamExpr& expr,
                      const std::map<std::string, std::uint32_t>& index) {
  if (expr.is_literal()) return {expr.coefficient(), {}};
  lowering::Affine out{expr.offset(), {}};
  lowering::add_term(out, index.at(expr.name()), expr.coefficient());
  return out;
}

}  // namespace

CompiledTemplate compile_template(const ParametricCircuit& circuit,
                                  const qdmi::DeviceInterface& device,
                                  const CompilerOptions& options) {
  expects(circuit.num_qubits() <= device.num_qubits(),
          "compile_template: circuit does not fit the device");

  const std::vector<std::string> names = circuit.parameters();
  std::map<std::string, std::uint32_t> index;
  for (std::size_t i = 0; i < names.size(); ++i)
    index[names[i]] = static_cast<std::uint32_t>(i);

  // Placement and routing never read angles, so they run on the all-zeros
  // skeleton; the affine forms are re-attached to the routed stream below.
  std::map<std::string, double> zeros;
  for (const auto& name : names) zeros[name] = 0.0;

  CompilationUnit unit;
  unit.circuit = circuit.bind(zeros);
  unit.dialect = Dialect::kCore;
  PassManager front;
  front.add(std::make_unique<PlacementPass>(options.placement));
  front.add(std::make_unique<RoutingPass>(options.fidelity_aware_routing));
  front.run(unit, device);

  // Re-attach: routing preserves every source op (kind unchanged, qubits
  // remapped) in order and only ever *inserts* parameter-free kSwap ops, so
  // source angles map onto the routed stream positionally.
  std::vector<lowering::AffineOp> routed;
  routed.reserve(unit.circuit.size());
  std::size_t cursor = 0;
  const auto& source_ops = circuit.ops();
  for (const auto& op : unit.circuit.ops()) {
    lowering::AffineOp affine_op{op.kind, op.qubits, {}};
    if (cursor < source_ops.size() && source_ops[cursor].kind == op.kind) {
      for (const auto& expr : source_ops[cursor].params)
        affine_op.params.push_back(lift(expr, index));
      ++cursor;
    } else {
      ensure_state(op.kind == OpKind::kSwap && op.params.empty(),
                   "compile_template: routed stream diverged from source");
    }
    ensure_state(affine_op.params.size() == op.params.size(),
                 "compile_template: parameter arity diverged in routing");
    routed.push_back(std::move(affine_op));
  }
  ensure_state(cursor == source_ops.size(),
               "compile_template: routing dropped a source op");

  const int n = unit.circuit.num_qubits();
  std::vector<lowering::AffineOp> native =
      lowering::decompose_native(routed, n);
  unit.trace.push_back(NativeDecompositionPass().name());
  unit.trace_gate_counts.push_back(lowering::gate_count(native));
  if (options.optimize) {
    native = lowering::peephole(std::move(native), n);
    unit.trace.push_back(PeepholePass().name());
    unit.trace_gate_counts.push_back(lowering::gate_count(native));
  }

  // base carries every angle at its affine constant; slots record the
  // symbol-dependent ones for the bind phase to patch.
  CompiledTemplate result;
  unit.circuit = lowering::emit(native, n, &result.slots);
  result.base = lowering::to_program(std::move(unit));
  result.parameters = names;
  return result;
}

CompiledProgram CompiledTemplate::bind(
    const std::map<std::string, double>& binding) const {
  for (const auto& [name, value] : binding) {
    (void)value;
    expects(std::binary_search(parameters.begin(), parameters.end(), name),
            "CompiledTemplate::bind: unknown parameter '" + name + "'");
  }
  std::vector<double> values(parameters.size());
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const auto it = binding.find(parameters[i]);
    if (it == binding.end())
      throw NotFoundError("CompiledTemplate::bind: unbound parameter '" +
                          parameters[i] + "'");
    values[i] = it->second;
  }
  CompiledProgram program = base;
  for (const auto& slot : slots) {
    double value = slot.constant;
    for (const auto& [param, coefficient] : slot.terms)
      value += coefficient * values[param];
    program.native_circuit.set_param(slot.op_index, slot.param_index, value);
  }
  return program;
}

CompiledTemplate as_template(CompiledProgram program) {
  CompiledTemplate result;
  result.base = std::move(program);
  return result;
}

}  // namespace hpcqc::mqss
