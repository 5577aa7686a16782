#include "hpcqc/circuit/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hpcqc/common/error.hpp"
#include "hpcqc/common/hash.hpp"

namespace hpcqc::circuit {

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  expects(num_qubits >= 1, "Circuit: need at least one qubit");
}

void Circuit::append(Operation op) {
  const int arity = op_arity(op.kind);
  if (arity > 0) {
    expects(static_cast<int>(op.qubits.size()) == arity,
            "Circuit::append: wrong qubit operand count for op");
  }
  expects(static_cast<int>(op.params.size()) == op_param_count(op.kind),
          "Circuit::append: wrong parameter count for op");
  for (int q : op.qubits)
    expects(q >= 0 && q < num_qubits_, "Circuit::append: qubit out of range");
  if (op.qubits.size() == 2)
    expects(op.qubits[0] != op.qubits[1],
            "Circuit::append: two-qubit op needs distinct qubits");
  if (op.kind == OpKind::kMeasure && op.qubits.size() > 1) {
    // A repeated index would alias two outcome bits to one qubit, making
    // compact_outcome's bit order ambiguous — rejected, like repeated
    // operands on two-qubit gates.
    std::vector<int> sorted = op.qubits;
    std::sort(sorted.begin(), sorted.end());
    expects(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
            "Circuit::append: measure lists a qubit twice");
  }
  ops_.push_back(std::move(op));
}

Circuit& Circuit::add0(OpKind kind, int q) {
  append({kind, {q}, {}});
  return *this;
}

Circuit& Circuit::rx(double theta, int q) {
  append({OpKind::kRx, {q}, {theta}});
  return *this;
}

Circuit& Circuit::ry(double theta, int q) {
  append({OpKind::kRy, {q}, {theta}});
  return *this;
}

Circuit& Circuit::rz(double theta, int q) {
  append({OpKind::kRz, {q}, {theta}});
  return *this;
}

Circuit& Circuit::u(double theta, double phi, double lambda, int q) {
  append({OpKind::kU, {q}, {theta, phi, lambda}});
  return *this;
}

Circuit& Circuit::prx(double theta, double phi, int q) {
  append({OpKind::kPrx, {q}, {theta, phi}});
  return *this;
}

Circuit& Circuit::cz(int q0, int q1) {
  append({OpKind::kCz, {q0, q1}, {}});
  return *this;
}

Circuit& Circuit::cx(int control, int target) {
  append({OpKind::kCx, {control, target}, {}});
  return *this;
}

Circuit& Circuit::swap(int q0, int q1) {
  append({OpKind::kSwap, {q0, q1}, {}});
  return *this;
}

Circuit& Circuit::iswap(int q0, int q1) {
  append({OpKind::kIswap, {q0, q1}, {}});
  return *this;
}

Circuit& Circuit::cphase(double theta, int q0, int q1) {
  append({OpKind::kCphase, {q0, q1}, {theta}});
  return *this;
}

Circuit& Circuit::barrier() {
  append({OpKind::kBarrier, {}, {}});
  return *this;
}

Circuit& Circuit::measure(std::vector<int> qubits) {
  for (int q : qubits)
    expects(q >= 0 && q < num_qubits_, "Circuit::measure: qubit out of range");
  append({OpKind::kMeasure, std::move(qubits), {}});
  return *this;
}

std::size_t Circuit::gate_count() const {
  std::size_t n = 0;
  for (const auto& op : ops_)
    if (op.kind != OpKind::kBarrier && op.kind != OpKind::kMeasure) ++n;
  return n;
}

std::size_t Circuit::two_qubit_gate_count() const {
  std::size_t n = 0;
  for (const auto& op : ops_)
    if (op_is_two_qubit(op.kind)) ++n;
  return n;
}

std::size_t Circuit::depth() const {
  std::vector<std::size_t> frontier(static_cast<std::size_t>(num_qubits_), 0);
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kMeasure) continue;
    if (op.kind == OpKind::kBarrier) {
      const std::size_t level =
          *std::max_element(frontier.begin(), frontier.end());
      std::fill(frontier.begin(), frontier.end(), level);
      continue;
    }
    std::size_t level = 0;
    for (int q : op.qubits)
      level = std::max(level, frontier[static_cast<std::size_t>(q)]);
    ++level;
    for (int q : op.qubits) frontier[static_cast<std::size_t>(q)] = level;
  }
  return frontier.empty()
             ? 0
             : *std::max_element(frontier.begin(), frontier.end());
}

std::vector<int> Circuit::measured_qubits() const {
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    if (it->kind == OpKind::kMeasure) {
      if (it->qubits.empty()) break;  // measure-all
      // Declared order is significant: bit i of an outcome corresponds to
      // qubits[i], so compiled circuits keep virtual bit order.
      return it->qubits;
    }
  }
  std::vector<int> all(static_cast<std::size_t>(num_qubits_));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

bool Circuit::is_native() const {
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kBarrier || op.kind == OpKind::kMeasure) continue;
    if (!op_is_native(op.kind)) return false;
  }
  return true;
}

Circuit Circuit::remapped(std::span<const int> layout,
                          int new_num_qubits) const {
  expects(static_cast<int>(layout.size()) == num_qubits_,
          "Circuit::remapped: layout size must equal qubit count");
  Circuit out(new_num_qubits);
  for (const auto& op : ops_) {
    Operation mapped = op;
    // A measure-all on the source register must stay a measurement of the
    // source qubits (in virtual order), not of the whole target register.
    if (mapped.kind == OpKind::kMeasure && mapped.qubits.empty()) {
      mapped.qubits.resize(static_cast<std::size_t>(num_qubits_));
      std::iota(mapped.qubits.begin(), mapped.qubits.end(), 0);
    }
    for (auto& q : mapped.qubits) {
      expects(q >= 0 && q < static_cast<int>(layout.size()),
              "Circuit::remapped: qubit outside layout");
      q = layout[static_cast<std::size_t>(q)];
    }
    out.append(std::move(mapped));
  }
  return out;
}

Circuit Circuit::ghz(int num_qubits) {
  Circuit c(num_qubits);
  c.h(0);
  for (int q = 1; q < num_qubits; ++q) c.cx(q - 1, q);
  c.measure();
  return c;
}

Circuit Circuit::bell() { return ghz(2); }

Circuit Circuit::qft(int num_qubits) {
  Circuit c(num_qubits);
  for (int target = num_qubits - 1; target >= 0; --target) {
    c.h(target);
    for (int control = target - 1; control >= 0; --control) {
      const double theta = M_PI / std::pow(2.0, target - control);
      c.cphase(theta, control, target);
    }
  }
  for (int q = 0; q < num_qubits / 2; ++q) c.swap(q, num_qubits - 1 - q);
  return c;
}

std::uint64_t Circuit::structural_hash() const {
  std::uint64_t hash = kHashBasis;
  hash_mix(hash, num_qubits_);
  for (const auto& op : ops_) {
    hash_mix(hash, static_cast<std::uint64_t>(op.kind) + 1);
    for (int q : op.qubits)
      hash_mix(hash, static_cast<std::uint64_t>(q) + 0x9e37);
    for (double p : op.params) hash_mix(hash, p);
  }
  return hash;
}

std::uint64_t Circuit::shape_hash() const {
  std::uint64_t hash = kHashBasis;
  hash_mix(hash, num_qubits_);
  for (const auto& op : ops_) {
    hash_mix(hash, static_cast<std::uint64_t>(op.kind) + 1);
    for (int q : op.qubits)
      hash_mix(hash, static_cast<std::uint64_t>(q) + 0x9e37);
    hash_mix(hash, static_cast<std::uint64_t>(op.params.size()) + 0x51ed);
  }
  return hash;
}

void Circuit::set_param(std::size_t op_index, std::size_t param_index,
                        double value) {
  expects(op_index < ops_.size(), "Circuit::set_param: op index out of range");
  auto& op = ops_[op_index];
  expects(param_index < op.params.size(),
          "Circuit::set_param: parameter index out of range");
  op.params[param_index] = value;
}

namespace {

/// Appends the inverse of one gate operation (possibly as a sequence).
void append_inverse(Circuit& out, const Operation& op) {
  switch (op.kind) {
    // Self-inverse gates.
    case OpKind::kI:
    case OpKind::kX:
    case OpKind::kY:
    case OpKind::kZ:
    case OpKind::kH:
    case OpKind::kCz:
    case OpKind::kCx:
    case OpKind::kSwap:
    case OpKind::kBarrier:
      out.append(op);
      return;
    case OpKind::kS: out.append({OpKind::kSdg, op.qubits, {}}); return;
    case OpKind::kSdg: out.append({OpKind::kS, op.qubits, {}}); return;
    case OpKind::kT: out.append({OpKind::kTdg, op.qubits, {}}); return;
    case OpKind::kTdg: out.append({OpKind::kT, op.qubits, {}}); return;
    case OpKind::kSx:
      // SX† == RX(-pi/2) up to global phase.
      out.append({OpKind::kRx, op.qubits, {-M_PI / 2.0}});
      return;
    case OpKind::kRx:
    case OpKind::kRy:
    case OpKind::kRz:
    case OpKind::kCphase:
    case OpKind::kPrx:
      // Rotations invert by negating the angle (PRX keeps its axis phase).
      {
        Operation inverse = op;
        inverse.params[0] = -inverse.params[0];
        out.append(std::move(inverse));
      }
      return;
    case OpKind::kU:
      // U(theta, phi, lambda)† = U(-theta, -lambda, -phi).
      out.append({OpKind::kU, op.qubits,
                  {-op.params[0], -op.params[2], -op.params[1]}});
      return;
    case OpKind::kIswap:
      // (S⊗S · CZ · SWAP)† in circuit order: SWAP, CZ, S†, S†.
      out.append({OpKind::kSwap, op.qubits, {}});
      out.append({OpKind::kCz, op.qubits, {}});
      out.append({OpKind::kSdg, {op.qubits[0]}, {}});
      out.append({OpKind::kSdg, {op.qubits[1]}, {}});
      return;
    case OpKind::kMeasure:
      throw PreconditionError("inverse: circuits with measurements have no "
                              "adjoint — strip the measurement first");
  }
  throw Error("append_inverse: unhandled op kind");
}

}  // namespace

Circuit Circuit::inverse() const {
  Circuit out(num_qubits_);
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it)
    append_inverse(out, *it);
  return out;
}

Circuit Circuit::folded(int scale) const {
  expects(scale >= 1 && scale % 2 == 1,
          "Circuit::folded: scale must be an odd positive integer");
  // Split gates from the terminal measurement.
  Circuit body(num_qubits_);
  std::vector<Operation> measurements;
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kMeasure)
      measurements.push_back(op);
    else
      body.append(op);
  }
  const Circuit body_inverse = body.inverse();
  Circuit out = body;
  for (int fold = 0; fold < (scale - 1) / 2; ++fold) {
    for (const auto& op : body_inverse.ops()) out.append(op);
    for (const auto& op : body.ops()) out.append(op);
  }
  for (auto& op : measurements) out.append(std::move(op));
  return out;
}

Circuit Circuit::random(int num_qubits, int depth, Rng& rng) {
  Circuit c(num_qubits);
  for (int layer = 0; layer < depth; ++layer) {
    for (int q = 0; q < num_qubits; ++q)
      c.prx(rng.uniform(0.0, 2.0 * M_PI), rng.uniform(0.0, 2.0 * M_PI), q);
    // Random disjoint pairing for the entangling layer.
    std::vector<int> order(static_cast<std::size_t>(num_qubits));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    for (std::size_t i = 0; i + 1 < order.size(); i += 2)
      if (rng.bernoulli(0.7)) c.cz(order[i], order[i + 1]);
  }
  c.measure();
  return c;
}

}  // namespace hpcqc::circuit
