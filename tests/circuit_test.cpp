#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/circuit/text.hpp"
#include "hpcqc/common/error.hpp"

namespace hpcqc::circuit {
namespace {

TEST(Op, NameRoundTrip) {
  for (const auto kind :
       {OpKind::kH, OpKind::kPrx, OpKind::kCz, OpKind::kMeasure,
        OpKind::kCphase, OpKind::kSdg, OpKind::kU}) {
    EXPECT_EQ(op_kind_from_name(op_name(kind)), kind);
  }
  EXPECT_THROW(op_kind_from_name("bogus"), ParseError);
}

TEST(Op, Metadata) {
  EXPECT_EQ(op_arity(OpKind::kCz), 2);
  EXPECT_EQ(op_arity(OpKind::kH), 1);
  EXPECT_EQ(op_arity(OpKind::kMeasure), 0);
  EXPECT_EQ(op_param_count(OpKind::kU), 3);
  EXPECT_EQ(op_param_count(OpKind::kPrx), 2);
  EXPECT_TRUE(op_is_native(OpKind::kPrx));
  EXPECT_TRUE(op_is_native(OpKind::kCz));
  EXPECT_FALSE(op_is_native(OpKind::kCx));
  EXPECT_TRUE(op_is_two_qubit(OpKind::kSwap));
  EXPECT_FALSE(op_is_two_qubit(OpKind::kRx));
}

TEST(Circuit, BuilderValidatesOperands) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), PreconditionError);
  EXPECT_THROW(c.cz(0, 0), PreconditionError);
  EXPECT_THROW(c.append({OpKind::kRx, {0}, {}}), PreconditionError);
  EXPECT_THROW(c.append({OpKind::kH, {0, 1}, {}}), PreconditionError);
  EXPECT_THROW(c.measure({5}), PreconditionError);
}

TEST(Circuit, RejectsRepeatedMeasureQubits) {
  // A repeated index would alias two outcome bits onto one qubit; the
  // compaction bit order would be ambiguous, so append rejects it just
  // like repeated operands on a two-qubit gate.
  Circuit c(3);
  EXPECT_THROW(c.measure({0, 1, 0}), PreconditionError);
  EXPECT_THROW(c.measure({2, 2}), PreconditionError);
  // Distinct (even unsorted) lists stay legal, and declared order sticks.
  c.measure({2, 0});
  EXPECT_EQ(c.measured_qubits(), (std::vector<int>{2, 0}));
}

TEST(Circuit, GateCountsAndDepth) {
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2).barrier().x(0);
  c.measure();
  EXPECT_EQ(c.gate_count(), 4u);
  EXPECT_EQ(c.two_qubit_gate_count(), 2u);
  // h(0) depth1; cx(0,1) depth2; cx(1,2) depth3; barrier; x(0) depth4.
  EXPECT_EQ(c.depth(), 4u);
}

TEST(Circuit, DepthParallelGates) {
  Circuit c(4);
  c.h(0).h(1).h(2).h(3);
  EXPECT_EQ(c.depth(), 1u);
  c.cz(0, 1).cz(2, 3);
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, MeasuredQubitsExplicitOrderPreserved) {
  Circuit c(4);
  c.h(0);
  c.measure({3, 1});
  const auto measured = c.measured_qubits();
  ASSERT_EQ(measured.size(), 2u);
  EXPECT_EQ(measured[0], 3);
  EXPECT_EQ(measured[1], 1);
}

TEST(Circuit, MeasureAllImpliesAllQubits) {
  Circuit c(3);
  c.h(0);
  EXPECT_EQ(c.measured_qubits().size(), 3u);  // implicit
  c.measure();
  EXPECT_EQ(c.measured_qubits().size(), 3u);  // explicit measure-all
}

TEST(Circuit, IsNative) {
  Circuit native(2);
  native.prx(0.5, 0.1, 0).cz(0, 1).barrier().measure();
  EXPECT_TRUE(native.is_native());
  Circuit frontend(2);
  frontend.h(0);
  EXPECT_FALSE(frontend.is_native());
}

TEST(Circuit, RemappedMovesQubits) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure();
  const std::vector<int> layout{5, 2};
  const Circuit mapped = c.remapped(layout, 8);
  EXPECT_EQ(mapped.num_qubits(), 8);
  EXPECT_EQ(mapped.ops()[0].qubits[0], 5);
  EXPECT_EQ(mapped.ops()[1].qubits[0], 5);
  EXPECT_EQ(mapped.ops()[1].qubits[1], 2);
  // measure-all became an explicit ordered measurement of the images.
  const auto measured = mapped.measured_qubits();
  ASSERT_EQ(measured.size(), 2u);
  EXPECT_EQ(measured[0], 5);
  EXPECT_EQ(measured[1], 2);
}

TEST(Circuit, GhzFactory) {
  const Circuit ghz = Circuit::ghz(5);
  EXPECT_EQ(ghz.num_qubits(), 5);
  EXPECT_EQ(ghz.two_qubit_gate_count(), 4u);
  Rng rng(1);
  const auto dist = ideal_distribution(ghz);
  EXPECT_NEAR(dist[0], 0.5, 1e-12);
  EXPECT_NEAR(dist[31], 0.5, 1e-12);
}

TEST(Circuit, QftOnBasisStateGivesUniformMagnitudes) {
  const Circuit qft = Circuit::qft(3);
  qsim::StateVector state(3);
  state.apply_1q(qsim::gate_x(), 0);
  apply_gates(state, qft);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_NEAR(std::norm(state.amplitude(i)), 0.125, 1e-12);
}

TEST(Circuit, RandomFactoryIsValidAndDeterministic) {
  Rng rng1(77);
  Rng rng2(77);
  const Circuit a = Circuit::random(5, 4, rng1);
  const Circuit b = Circuit::random(5, 4, rng2);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.gate_count(), 0u);
}

TEST(Text, SerializeParseRoundTrip) {
  Circuit c(3);
  c.h(0).prx(1.25, -0.5, 1).cz(0, 2).cphase(0.75, 1, 2).barrier();
  c.measure({0, 2});
  const Circuit parsed = from_text(to_text(c));
  EXPECT_EQ(parsed, c);
}

class TextRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TextRoundTrip, RandomCircuitsSurviveRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  const Circuit c = Circuit::random(4, 3, rng);
  const Circuit parsed = from_text(to_text(c));
  ASSERT_EQ(parsed.num_qubits(), c.num_qubits());
  ASSERT_EQ(parsed.size(), c.size());
  // Angles go through decimal text: compare distributions, not bits.
  const auto da = ideal_distribution(c);
  const auto db = ideal_distribution(parsed);
  for (std::size_t i = 0; i < da.size(); ++i) EXPECT_NEAR(da[i], db[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextRoundTrip, ::testing::Range(1, 11));

TEST(Text, ParseExamples) {
  const Circuit c = from_text(
      "# a comment\n"
      "qubits 2\n"
      "h q0  # trailing comment\n"
      "cx q0, q1\n"
      "measure\n");
  EXPECT_EQ(c.num_qubits(), 2);
  EXPECT_EQ(c.size(), 3u);
}

TEST(Text, ParseErrors) {
  EXPECT_THROW(from_text(""), ParseError);
  EXPECT_THROW(from_text("h q0\n"), ParseError);            // missing qubits
  EXPECT_THROW(from_text("qubits 2\nqubits 3\n"), ParseError);
  EXPECT_THROW(from_text("qubits 0\n"), ParseError);
  EXPECT_THROW(from_text("qubits 2\nfrobnicate q0\n"), ParseError);
  EXPECT_THROW(from_text("qubits 2\nrx q0\n"), ParseError);  // missing param
  EXPECT_THROW(from_text("qubits 2\nh q7\n"), ParseError);   // out of range
  EXPECT_THROW(from_text("qubits 2\nh q0 junk\n"), ParseError);
  EXPECT_THROW(from_text("qubits 2\nprx(1.0 q0\n"), ParseError);
}

TEST(Execute, ApplyOpRejectsMeasure) {
  qsim::StateVector state(1);
  EXPECT_THROW(apply_op(state, {OpKind::kMeasure, {}, {}}),
               PreconditionError);
}

TEST(Execute, RunIdealBellCounts) {
  Rng rng(4);
  const auto counts = run_ideal(Circuit::bell(), 10000, rng);
  EXPECT_EQ(counts.total_shots(), 10000u);
  EXPECT_NEAR(counts.probability_of(0b00), 0.5, 0.03);
  EXPECT_NEAR(counts.probability_of(0b11), 0.5, 0.03);
  EXPECT_EQ(counts.count_of(0b01), 0u);
}

TEST(Execute, MarginalDistributionOfSubsetMeasurement) {
  Circuit c(3);
  c.h(0).cx(0, 1).cx(1, 2);
  c.measure({2});
  const auto dist = ideal_distribution(c);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist[0], 0.5, 1e-12);
  EXPECT_NEAR(dist[1], 0.5, 1e-12);
}

TEST(Execute, CompactOutcomeOrdering) {
  const std::vector<int> qubits{3, 1};
  // full outcome with q3=1, q1=0 -> compact bit0 (q3) = 1, bit1 (q1) = 0.
  EXPECT_EQ(compact_outcome(0b1000, qubits), 0b01u);
  EXPECT_EQ(compact_outcome(0b0010, qubits), 0b10u);
}

bool bitwise_equal(const qsim::Complex& a, const qsim::Complex& b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

template <std::size_t N>
bool bitwise_equal(const std::array<qsim::Complex, N>& a,
                   const std::array<qsim::Complex, N>& b) {
  for (std::size_t i = 0; i < N; ++i)
    if (!bitwise_equal(a[i], b[i])) return false;
  return true;
}

TEST(Execute, GateTablesMatchTheGateConstructorsBitForBit) {
  Circuit c(2);
  c.x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0);
  c.rx(0.3, 0).ry(-1.1, 0).rz(2.5, 0).u(0.1, 0.2, 0.3, 0).prx(0.7, -0.4, 0);
  const qsim::Matrix2 expected[] = {
      qsim::gate_x(),          qsim::gate_y(),        qsim::gate_z(),
      qsim::gate_h(),          qsim::gate_s(),        qsim::gate_sdg(),
      qsim::gate_t(),          qsim::gate_tdg(),      qsim::gate_sx(),
      qsim::gate_rx(0.3),      qsim::gate_ry(-1.1),   qsim::gate_rz(2.5),
      qsim::gate_u(0.1, 0.2, 0.3), qsim::gate_prx(0.7, -0.4)};
  ASSERT_EQ(c.ops().size(), std::size(expected));
  for (std::size_t i = 0; i < c.ops().size(); ++i)
    EXPECT_TRUE(bitwise_equal(gate_matrix_1q(c.ops()[i]), expected[i]))
        << op_name(c.ops()[i].kind);

  EXPECT_TRUE(bitwise_equal(gate_matrix_2q(OpKind::kCx), qsim::gate_cx()));
  EXPECT_TRUE(
      bitwise_equal(gate_matrix_2q(OpKind::kSwap), qsim::gate_swap()));
  EXPECT_TRUE(
      bitwise_equal(gate_matrix_2q(OpKind::kIswap), qsim::gate_iswap()));

  c.cz(0, 1);
  EXPECT_THROW(gate_matrix_1q(c.ops().back()), Error);
  EXPECT_THROW(gate_matrix_2q(OpKind::kCz), Error);
  EXPECT_THROW(gate_matrix_2q(OpKind::kH), Error);
}

// Snapshots persist structural hashes (structure_manifest) and every bind
// recomputes them, so these values were recorded once and must not move.
TEST(CircuitHash, PinnedStructuralAndShapeHashes) {
  const Circuit ghz = Circuit::ghz(5);
  EXPECT_EQ(ghz.structural_hash(), 0xab87b85f212af0caULL);
  EXPECT_EQ(ghz.shape_hash(), 0xa453985d61ee19deULL);

  // Brickwork with a negative zero and subnormal angles: the hash keys on
  // the exact bit pattern of every angle.
  const auto brickwork = [](double signed_zero) {
    constexpr double kTiny = std::numeric_limits<double>::denorm_min();
    const double layer_angles[2][4] = {{0.25, signed_zero, kTiny, -1.5},
                                       {-0.75, 1.0, 0.5, -kTiny}};
    Circuit c(4);
    for (int layer = 0; layer < 2; ++layer) {
      for (int q = 0; q < 4; ++q) c.rx(layer_angles[layer][q], q);
      for (int q = layer % 2; q + 1 < 4; q += 2) c.cz(q, q + 1);
    }
    c.measure();
    return c;
  };
  const Circuit brick = brickwork(-0.0);
  EXPECT_EQ(brick.structural_hash(), 0xf5735ff367642920ULL);
  EXPECT_EQ(brick.shape_hash(), 0x7b30a19f6836e4d0ULL);
  const Circuit positive_zero = brickwork(0.0);
  EXPECT_NE(positive_zero.structural_hash(), brick.structural_hash());
  EXPECT_EQ(positive_zero.shape_hash(), brick.shape_hash());

  // Two-symbol chain ansatz with affine symbols and one literal angle.
  ParametricCircuit chain(3);
  for (int q = 0; q < 3; ++q)
    chain.ry(ParamExpr::symbol("theta", 0.5, 0.25), q);
  for (int q = 0; q + 1 < 3; ++q) chain.cz(q, q + 1);
  for (int q = 0; q < 3; ++q) chain.rz(ParamExpr::symbol("phi", -1.0), q);
  chain.rx(ParamExpr::literal(0.125), 0);
  chain.measure();
  EXPECT_EQ(chain.structural_hash(), 0xe40339eeef43cbc5ULL);
}

}  // namespace
}  // namespace hpcqc::circuit
