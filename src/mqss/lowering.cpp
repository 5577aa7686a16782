#include "lowering.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"

namespace hpcqc::mqss::lowering {

using circuit::OpKind;
using circuit::Operation;

namespace {

constexpr double kPi = M_PI;
constexpr double kHalfPi = M_PI / 2.0;

Affine literal(double value) { return {value, {}}; }

Affine add(const Affine& a, const Affine& b) {
  Affine out = a;
  out.constant = a.constant + b.constant;
  for (const auto& [index, coefficient] : b.terms)
    add_term(out, index, coefficient);
  return out;
}

Affine neg(const Affine& a) {
  Affine out;
  out.constant = -a.constant;
  out.terms.reserve(a.terms.size());
  for (const auto& [index, coefficient] : a.terms)
    out.terms.emplace_back(index, -coefficient);
  return out;
}

Affine sub(const Affine& a, const Affine& b) { return add(a, neg(b)); }

Affine scale(const Affine& a, double factor) {
  Affine out;
  out.constant = a.constant * factor;
  for (const auto& [index, coefficient] : a.terms)
    add_term(out, index, coefficient * factor);
  return out;
}

/// The identity test usable without a binding: literal AND a 2-pi
/// multiple. Symbol-dependent angles are never identities "for all theta".
bool is_multiple_of_two_pi(const Affine& angle) {
  return !angle.symbolic() &&
         std::abs(std::remainder(angle.constant, 2.0 * kPi)) < 1e-12;
}

/// ZYZ parameters (theta, phi, lambda) with U = RZ(phi) RY(theta) RZ(lambda)
/// up to global phase.
struct U3 {
  Affine theta;
  Affine phi;
  Affine lambda;
};

U3 u3_of(const AffineOp& op) {
  const auto lit = literal;
  switch (op.kind) {
    case OpKind::kI: return {lit(0.0), lit(0.0), lit(0.0)};
    case OpKind::kX: return {lit(kPi), lit(0.0), lit(kPi)};
    case OpKind::kY: return {lit(kPi), lit(kHalfPi), lit(kHalfPi)};
    case OpKind::kZ: return {lit(0.0), lit(0.0), lit(kPi)};
    case OpKind::kH: return {lit(kHalfPi), lit(0.0), lit(kPi)};
    case OpKind::kS: return {lit(0.0), lit(0.0), lit(kHalfPi)};
    case OpKind::kSdg: return {lit(0.0), lit(0.0), lit(-kHalfPi)};
    case OpKind::kT: return {lit(0.0), lit(0.0), lit(kPi / 4.0)};
    case OpKind::kTdg: return {lit(0.0), lit(0.0), lit(-kPi / 4.0)};
    case OpKind::kSx: return {lit(kHalfPi), lit(-kHalfPi), lit(kHalfPi)};
    case OpKind::kRx: return {op.params[0], lit(-kHalfPi), lit(kHalfPi)};
    case OpKind::kRy: return {op.params[0], lit(0.0), lit(0.0)};
    case OpKind::kRz: return {lit(0.0), lit(0.0), op.params[0]};
    case OpKind::kU: return {op.params[0], op.params[1], op.params[2]};
    case OpKind::kPrx:
      return {op.params[0], sub(op.params[1], lit(kHalfPi)),
              sub(lit(kHalfPi), op.params[1])};
    default:
      throw Error("native lowering: not a single-qubit gate");
  }
}

/// Expands a non-native two-qubit gate into 1q gates + CZ, appending to
/// `out` (recursively for SWAP-built gates).
void expand_2q(const AffineOp& op, std::vector<AffineOp>& out) {
  const int a = op.qubits[0];
  const int b = op.qubits[1];
  const auto cx = [&out](int control, int target) {
    out.push_back({OpKind::kH, {target}, {}});
    out.push_back({OpKind::kCz, {control, target}, {}});
    out.push_back({OpKind::kH, {target}, {}});
  };
  switch (op.kind) {
    case OpKind::kCz:
      out.push_back(op);
      return;
    case OpKind::kCx:
      cx(a, b);
      return;
    case OpKind::kSwap:
      cx(a, b);
      cx(b, a);
      cx(a, b);
      return;
    case OpKind::kIswap:
      // iSWAP = SWAP . CZ . (S (x) S)   (operator order; circuit order below)
      out.push_back({OpKind::kS, {a}, {}});
      out.push_back({OpKind::kS, {b}, {}});
      out.push_back({OpKind::kCz, {a, b}, {}});
      expand_2q({OpKind::kSwap, {a, b}, {}}, out);
      return;
    case OpKind::kCphase: {
      const Affine half = scale(op.params[0], 0.5);
      out.push_back({OpKind::kRz, {a}, {half}});
      cx(a, b);
      out.push_back({OpKind::kRz, {b}, {neg(half)}});
      cx(a, b);
      out.push_back({OpKind::kRz, {b}, {half}});
      return;
    }
    default:
      throw Error("native lowering: not a two-qubit gate");
  }
}

}  // namespace

void add_term(Affine& a, std::uint32_t index, double coefficient) {
  if (coefficient == 0.0) return;
  auto it = std::lower_bound(
      a.terms.begin(), a.terms.end(), index,
      [](const auto& term, std::uint32_t i) { return term.first < i; });
  if (it != a.terms.end() && it->first == index) {
    it->second += coefficient;
    if (it->second == 0.0) a.terms.erase(it);
  } else {
    a.terms.insert(it, {index, coefficient});
  }
}

std::vector<AffineOp> lift(const circuit::Circuit& circuit) {
  std::vector<AffineOp> ops;
  ops.reserve(circuit.size());
  for (const auto& op : circuit.ops()) {
    AffineOp lifted{op.kind, op.qubits, {}};
    lifted.params.reserve(op.params.size());
    for (const double value : op.params)
      lifted.params.push_back(literal(value));
    ops.push_back(std::move(lifted));
  }
  return ops;
}

std::vector<AffineOp> decompose_native(const std::vector<AffineOp>& ops,
                                       int num_qubits) {
  // Stage 1: eliminate non-native two-qubit gates.
  std::vector<AffineOp> intermediate;
  intermediate.reserve(ops.size() * 2);
  for (const auto& op : ops) {
    if (circuit::op_is_two_qubit(op.kind)) {
      expand_2q(op, intermediate);
    } else {
      intermediate.push_back(op);
    }
  }

  // Stage 2: virtual-Z lowering of all single-qubit gates to PRX.
  // Invariant: logical state = RZ(frame[q]) applied to the emitted state;
  // frames commute through CZ and are irrelevant at Z-basis measurement.
  std::vector<AffineOp> native;
  native.reserve(intermediate.size());
  std::vector<Affine> frame(static_cast<std::size_t>(num_qubits));
  for (const auto& op : intermediate) {
    if (op.kind == OpKind::kBarrier || op.kind == OpKind::kMeasure ||
        op.kind == OpKind::kCz) {
      native.push_back(op);
      continue;
    }
    const U3 u = u3_of(op);
    const auto q = static_cast<std::size_t>(op.qubits[0]);
    if (!is_multiple_of_two_pi(u.theta)) {
      const Affine phi = sub(sub(literal(kHalfPi), u.lambda), frame[q]);
      native.push_back({OpKind::kPrx, {op.qubits[0]}, {u.theta, phi}});
    }
    frame[q] = add(frame[q], add(u.phi, u.lambda));
  }
  return native;
}

std::vector<AffineOp> peephole(std::vector<AffineOp> ops, int num_qubits) {
  bool changed = true;
  int iterations = 0;
  while (changed && iterations++ < 32) {
    changed = false;
    // last_touch[q]: index into `result` of the last op acting on q.
    std::vector<long> last_touch(static_cast<std::size_t>(num_qubits), -1);
    std::vector<AffineOp> result;
    result.reserve(ops.size());

    const auto touch = [&](const AffineOp& op) {
      for (int q : op.qubits)
        last_touch[static_cast<std::size_t>(q)] =
            static_cast<long>(result.size());
    };

    for (const auto& op : ops) {
      if (op.kind == OpKind::kPrx && is_multiple_of_two_pi(op.params[0])) {
        changed = true;
        continue;  // identity rotation
      }
      if (op.kind == OpKind::kPrx) {
        const long prev = last_touch[static_cast<std::size_t>(op.qubits[0])];
        if (prev >= 0) {
          AffineOp& before = result[static_cast<std::size_t>(prev)];
          // Same-axis fusion: the phases differ by a literal 2-pi multiple,
          // so the fused angle is the (still affine) sum.
          if (before.kind == OpKind::kPrx && before.qubits == op.qubits &&
              is_multiple_of_two_pi(sub(before.params[1], op.params[1]))) {
            before.params[0] = add(before.params[0], op.params[0]);
            changed = true;
            continue;
          }
        }
      }
      if (op.kind == OpKind::kCz) {
        const auto a = static_cast<std::size_t>(op.qubits[0]);
        const auto b = static_cast<std::size_t>(op.qubits[1]);
        const long pa = last_touch[a];
        if (pa >= 0 && pa == last_touch[b]) {
          const AffineOp& before = result[static_cast<std::size_t>(pa)];
          if (before.kind == OpKind::kCz &&
              ((before.qubits[0] == op.qubits[0] &&
                before.qubits[1] == op.qubits[1]) ||
               (before.qubits[0] == op.qubits[1] &&
                before.qubits[1] == op.qubits[0]))) {
            // CZ . CZ = I: drop both. Mark the earlier one as identity PRX
            // so indices stay stable, and skip this one.
            result[static_cast<std::size_t>(pa)] = {
                OpKind::kPrx, {op.qubits[0]}, {literal(0.0), literal(0.0)}};
            changed = true;
            continue;
          }
        }
      }
      if (op.kind == OpKind::kBarrier) {
        std::fill(last_touch.begin(), last_touch.end(),
                  static_cast<long>(result.size()));
        result.push_back(op);
        continue;
      }
      touch(op);
      result.push_back(op);
    }
    ops = std::move(result);
  }

  // Drop the identities introduced by CZ cancellation.
  std::erase_if(ops, [](const AffineOp& op) {
    return op.kind == OpKind::kPrx && is_multiple_of_two_pi(op.params[0]);
  });
  return ops;
}

std::size_t gate_count(const std::vector<AffineOp>& ops) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const AffineOp& op) {
        return op.kind != OpKind::kBarrier && op.kind != OpKind::kMeasure;
      }));
}

circuit::Circuit emit(const std::vector<AffineOp>& ops, int num_qubits,
                      std::vector<ParamSlot>* slots) {
  circuit::Circuit emitted(num_qubits);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const AffineOp& op = ops[i];
    Operation concrete{op.kind, op.qubits, {}};
    for (std::size_t j = 0; j < op.params.size(); ++j) {
      const Affine& angle = op.params[j];
      concrete.params.push_back(angle.constant);
      if (slots != nullptr && angle.symbolic())
        slots->push_back({static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j), angle.constant,
                          angle.terms});
    }
    emitted.append(std::move(concrete));
  }
  return emitted;
}

CompiledProgram to_program(CompilationUnit unit) {
  CompiledProgram program;
  program.native_circuit = std::move(unit.circuit);
  program.initial_layout = std::move(unit.layout);
  program.pass_trace = std::move(unit.trace);
  program.pass_gate_counts = std::move(unit.trace_gate_counts);
  program.native_gate_count = program.native_circuit.gate_count();
  program.swap_count = unit.swaps_inserted;
  return program;
}

}  // namespace hpcqc::mqss::lowering
