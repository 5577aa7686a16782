// Differential test of the vectorized gate kernels against the scalar
// kernels they replaced. The reference implementations below are those
// scalar kernels, kept verbatim in their arithmetic; every kernel set (the
// baseline-ISA build and, where the CPU has it, AVX2) must reproduce them
// byte for byte on random states, at every qubit position, for both
// operand orders and at widths 1-15.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gate_kernels.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/qsim/gates.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::qsim {
namespace {

using Amps = std::vector<Complex>;

// ---- Scalar reference kernels ---------------------------------------------

void reference_1q(Amps& amps, const Matrix2& u, int qubit) {
  const std::uint64_t stride = std::uint64_t{1} << qubit;
  const std::uint64_t dim = amps.size();
  double* a = reinterpret_cast<double*>(amps.data());
  if (u[1] == Complex{0.0, 0.0} && u[2] == Complex{0.0, 0.0}) {
    const double d0r = u[0].real(), d0i = u[0].imag();
    const double d1r = u[3].real(), d1i = u[3].imag();
    for (std::uint64_t idx = 0; idx < dim; ++idx) {
      const double dr = (idx & stride) ? d1r : d0r;
      const double di = (idx & stride) ? d1i : d0i;
      const double re = a[2 * idx];
      const double im = a[2 * idx + 1];
      a[2 * idx] = dr * re - di * im;
      a[2 * idx + 1] = dr * im + di * re;
    }
    return;
  }
  const double u0r = u[0].real(), u0i = u[0].imag();
  const double u1r = u[1].real(), u1i = u[1].imag();
  const double u2r = u[2].real(), u2i = u[2].imag();
  const double u3r = u[3].real(), u3i = u[3].imag();
  for (std::uint64_t kk = 0; kk < dim / 2; ++kk) {
    const std::uint64_t i0 =
        (((kk & ~(stride - 1)) << 1) | (kk & (stride - 1))) * 2;
    const std::uint64_t i1 = i0 + stride * 2;
    const double lr = a[i0], li = a[i0 + 1];
    const double hr = a[i1], hi = a[i1 + 1];
    a[i0] = (u0r * lr - u0i * li) + (u1r * hr - u1i * hi);
    a[i0 + 1] = (u0r * li + u0i * lr) + (u1r * hi + u1i * hr);
    a[i1] = (u2r * lr - u2i * li) + (u3r * hr - u3i * hi);
    a[i1 + 1] = (u2r * li + u2i * lr) + (u3r * hi + u3i * hr);
  }
}

void reference_2q(Amps& amps, const Matrix4& u, int qubit0, int qubit1) {
  const std::uint64_t s0 = std::uint64_t{1} << qubit0;
  const std::uint64_t s1 = std::uint64_t{1} << qubit1;
  const std::uint64_t lo_stride = std::min(s0, s1);
  const std::uint64_t hi_stride = std::max(s0, s1);
  double* a = reinterpret_cast<double*>(amps.data());
  double ur[16];
  double ui[16];
  for (int e = 0; e < 16; ++e) {
    ur[e] = u[static_cast<std::size_t>(e)].real();
    ui[e] = u[static_cast<std::size_t>(e)].imag();
  }
  for (std::uint64_t gg = 0; gg < amps.size() / 4; ++gg) {
    const std::uint64_t rest = gg / lo_stride;
    const std::uint64_t mid_combos = hi_stride / lo_stride / 2;
    std::uint64_t base = gg & (lo_stride - 1);
    base |= (rest % mid_combos) * (lo_stride * 2);
    base |= (rest / mid_combos) * (hi_stride * 2);
    const std::uint64_t idx[4] = {base, base | s0, base | s1,
                                  base | s0 | s1};
    double vr[4];
    double vi[4];
    for (int col = 0; col < 4; ++col) {
      vr[col] = a[2 * idx[col]];
      vi[col] = a[2 * idx[col] + 1];
    }
    for (int row = 0; row < 4; ++row) {
      double re = 0.0;
      double im = 0.0;
      for (int col = 0; col < 4; ++col) {
        const double er = ur[4 * row + col];
        const double ei = ui[4 * row + col];
        re += er * vr[col] - ei * vi[col];
        im += er * vi[col] + ei * vr[col];
      }
      a[2 * idx[row]] = re;
      a[2 * idx[row] + 1] = im;
    }
  }
}

void reference_cphase(Amps& amps, double theta, int qubit0, int qubit1) {
  const std::uint64_t mask =
      (std::uint64_t{1} << qubit0) | (std::uint64_t{1} << qubit1);
  const Complex phase = std::polar(1.0, theta);
  for (std::uint64_t idx = 0; idx < amps.size(); ++idx)
    if ((idx & mask) == mask) amps[idx] *= phase;
}

// ---- Fixtures ---------------------------------------------------------------

// Random amplitudes, with a sprinkling of signed zeros so that the
// kernels' zero handling is compared too.
Amps random_state(int n, Rng& rng) {
  Amps amps(std::size_t{1} << n);
  for (auto& z : amps) z = Complex{rng.normal(), rng.normal()};
  for (std::size_t i = 0; i < amps.size(); i += 7)
    amps[i] = Complex{i % 2 ? -0.0 : 0.0, i % 3 ? 0.0 : -0.0};
  return amps;
}

Matrix2 random_1q(Rng& rng) {
  return gate_u(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(-3, 3));
}

bool same_bytes(const Amps& a, const Amps& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

double* raw(Amps& amps) { return reinterpret_cast<double*>(amps.data()); }

// Ordered qubit pairs: all of them up to 10 qubits; beyond that every
// position paired with its neighbour and with the qubit half-way round,
// in both orders.
std::vector<std::pair<int, int>> qubit_pairs(int n) {
  std::vector<std::pair<int, int>> pairs;
  for (int q = 0; q < n; ++q) {
    for (int p = 0; p < n; ++p) {
      if (p == q) continue;
      const int d = (p - q + n) % n;
      if (n <= 10 || d == 1 || d == n - 1 || d == n / 2 || d == n - n / 2)
        pairs.emplace_back(q, p);
    }
  }
  return pairs;
}

// Calls a range kernel over [0, items) once whole and once split at an
// even midpoint (ranges must be even unless the gate touches qubit 0).
template <class Kernel>
void expect_whole_and_split(const Amps& start, const Amps& expected,
                            std::uint64_t items, const Kernel& kernel,
                            const std::string& what) {
  Amps whole = start;
  kernel(raw(whole), 0, items);
  EXPECT_TRUE(same_bytes(whole, expected)) << what << " (whole range)";
  if (items < 4) return;
  const std::uint64_t mid = (items / 2) & ~std::uint64_t{1};
  Amps split = start;
  kernel(raw(split), 0, mid);
  kernel(raw(split), mid, items);
  EXPECT_TRUE(same_bytes(split, expected)) << what << " (split range)";
}

class KernelDifferential : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    set_ = GetParam() == "avx2" ? kernels::avx2_kernels()
                                : &kernels::generic_kernels();
    if (set_ == nullptr) GTEST_SKIP() << "CPU or build has no AVX2";
  }
  const kernels::KernelSet* set_ = nullptr;
};

TEST_P(KernelDifferential, Apply1qMatchesScalarReference) {
  Rng rng(11);
  for (int n = 1; n <= 15; ++n) {
    const Amps start = random_state(n, rng);
    for (int q = 0; q < n; ++q) {
      const Matrix2 gates[] = {random_1q(rng), gate_rz(rng.uniform(-3, 3)),
                               gate_x(), gate_s(), gate_h()};
      for (const auto& u : gates) {
        Amps expected = start;
        reference_1q(expected, u, q);
        expect_whole_and_split(
            start, expected, std::uint64_t{1} << (n - 1),
            [&](double* a, std::uint64_t b, std::uint64_t e) {
              set_->apply_1q(a, u, q, b, e);
            },
            "n=" + std::to_string(n) + " q=" + std::to_string(q));
      }
    }
  }
}

TEST_P(KernelDifferential, CphaseMatchesScalarReference) {
  Rng rng(12);
  for (int n = 2; n <= 15; ++n) {
    const Amps start = random_state(n, rng);
    for (const auto& [q0, q1] : qubit_pairs(n)) {
      for (const double theta : {M_PI, -0.7, rng.uniform(-3, 3)}) {
        Amps expected = start;
        reference_cphase(expected, theta, q0, q1);
        const Complex phase = std::polar(1.0, theta);
        expect_whole_and_split(
            start, expected, std::uint64_t{1} << (n - 2),
            [&](double* a, std::uint64_t b, std::uint64_t e) {
              set_->apply_cphase(a, phase, q0, q1, b, e);
            },
            "n=" + std::to_string(n) + " q0=" + std::to_string(q0) +
                " q1=" + std::to_string(q1) +
                " theta=" + std::to_string(theta));
      }
    }
  }
}

TEST_P(KernelDifferential, Apply2qMatchesScalarReference) {
  Rng rng(13);
  for (int n = 2; n <= 15; ++n) {
    const Amps start = random_state(n, rng);
    for (const auto& [q0, q1] : qubit_pairs(n)) {
      const Matrix4 gates[] = {
          gate_cx(), gate_swap(), gate_iswap(),
          matmul(gate_cphase(rng.uniform(-3, 3)),
                 kron(random_1q(rng), random_1q(rng)))};
      for (const auto& u : gates) {
        Amps expected = start;
        reference_2q(expected, u, q0, q1);
        expect_whole_and_split(
            start, expected, std::uint64_t{1} << (n - 2),
            [&](double* a, std::uint64_t b, std::uint64_t e) {
              set_->apply_2q(a, u, q0, q1, b, e);
            },
            "n=" + std::to_string(n) + " q0=" + std::to_string(q0) +
                " q1=" + std::to_string(q1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, KernelDifferential,
                         ::testing::Values("generic", "avx2"),
                         [](const auto& info) { return info.param; });

// StateVector's own path (active kernel set, OpenMP chunking above the
// parallel threshold) against the reference, across the threshold.
TEST(KernelDifferentialStateVector, MatchesScalarReferenceAcrossThreshold) {
  Rng rng(14);
  for (int n = 13; n <= 15; ++n) {
    StateVector sv(n);
    sv.mutable_amplitudes() = random_state(n, rng);
    Amps expected = sv.amplitudes();
    for (int q = 0; q < n; ++q) {
      const int p = (q + 1 + static_cast<int>(rng.uniform_index(
                                 static_cast<std::uint64_t>(n - 1)))) % n;
      const Matrix2 u = random_1q(rng);
      const Matrix2 d = gate_rz(rng.uniform(-3, 3));
      const Matrix4 m = matmul(gate_cx(), kron(random_1q(rng), u));
      const double theta = rng.uniform(-3, 3);
      sv.apply_1q(u, q);
      reference_1q(expected, u, q);
      sv.apply_1q(d, p);
      reference_1q(expected, d, p);
      sv.apply_cphase(theta, q, p);
      reference_cphase(expected, theta, q, p);
      sv.apply_2q(m, p, q);
      reference_2q(expected, m, p, q);
    }
    EXPECT_TRUE(same_bytes(sv.amplitudes(), expected)) << "n=" << n;
  }
}

TEST(KernelDifferentialStateVector, ActiveSetIsAvx2WhenAvailable) {
  const auto* avx2 = kernels::avx2_kernels();
  EXPECT_EQ(&kernels::active_kernels(),
            avx2 ? avx2 : &kernels::generic_kernels());
}

}  // namespace
}  // namespace hpcqc::qsim
