// Golden execution fingerprint: every simulated statistic must stay
// bit-identical across kernel rewrites. The test FNV-1a-hashes the counts
// of fixed-seed DeviceModel::execute runs in both physics modes and the
// raw amplitude bytes of kernel-only states, and compares against
// constants recorded before the gate kernels were vectorized. Each
// fingerprint is taken at 1 and at 4 OpenMP threads.
//
// The constants hold for x86-64 glibc builds with the project's default
// flags: they also pin libm's sin/cos/exp/log, which feed the gate
// matrices and the calibration draw.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace {

using namespace hpcqc;
using device::DeviceModel;
using device::ExecutionMode;

constexpr std::uint64_t kExecutedCountsFingerprint = 0x8ec5bedc8b9be57eULL;
constexpr std::uint64_t kKernelAmplitudesFingerprint = 0x6f9d80fde5a7eb8aULL;

void fnv1a(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

template <class T>
void fnv1a(std::uint64_t& h, const T& value) {
  fnv1a(h, &value, sizeof(value));
}

void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

std::vector<int> chain_prefix(const DeviceModel& device, int width) {
  const auto chain = device.topology().coupled_chain();
  return {chain.begin(), chain.begin() + width};
}

// PRX on every qubit, CZ on alternating neighbour pairs.
circuit::Circuit brickwork(const DeviceModel& device, int width, int layers) {
  const auto q = chain_prefix(device, width);
  circuit::Circuit c(device.num_qubits());
  for (int layer = 0; layer < layers; ++layer) {
    for (int i = 0; i < width; ++i)
      c.prx(0.3 + 0.05 * layer, 0.2 * i, q[static_cast<std::size_t>(i)]);
    for (int i = layer % 2; i + 1 < width; i += 2)
      c.cz(q[static_cast<std::size_t>(i)], q[static_cast<std::size_t>(i + 1)]);
  }
  c.measure(q);
  return c;
}

// H then a CX ladder: the dense two-qubit path.
circuit::Circuit ghz(const DeviceModel& device, int width) {
  const auto q = chain_prefix(device, width);
  circuit::Circuit c(device.num_qubits());
  c.h(q[0]);
  for (int i = 1; i < width; ++i)
    c.cx(q[static_cast<std::size_t>(i - 1)], q[static_cast<std::size_t>(i)]);
  c.measure(q);
  return c;
}

circuit::Circuit cphase_ladder(const DeviceModel& device, int width) {
  const auto q = chain_prefix(device, width);
  circuit::Circuit c(device.num_qubits());
  for (int i = 0; i < width; ++i) c.h(q[static_cast<std::size_t>(i)]);
  for (int i = 0; i + 1 < width; ++i) {
    c.cphase(0.37 * (i + 1) - 1.1, q[static_cast<std::size_t>(i)],
             q[static_cast<std::size_t>(i + 1)]);
    c.rx(0.4, q[static_cast<std::size_t>(i + 1)]);
  }
  c.measure(q);
  return c;
}

circuit::Circuit swap_ladder(const DeviceModel& device, int width) {
  const auto q = chain_prefix(device, width);
  circuit::Circuit c(device.num_qubits());
  for (int i = 0; i < width; ++i)
    c.u(0.3 * i + 0.2, 0.1 * i, -0.4, q[static_cast<std::size_t>(i)]);
  for (int i = 0; i + 1 < width; ++i) {
    const int a = q[static_cast<std::size_t>(i)];
    const int b = q[static_cast<std::size_t>(i + 1)];
    if (i % 2) c.swap(b, a); else c.iswap(a, b);
    c.ry(0.25, a);
  }
  c.measure(q);
  return c;
}

std::uint64_t executed_fingerprint() {
  Rng device_rng(20251);
  DeviceModel device = device::make_iqm20(device_rng);
  std::vector<circuit::Circuit> circuits;
  for (int width = 2; width <= 16; ++width) {
    circuits.push_back(brickwork(device, width, 3));
    circuits.push_back(ghz(device, width));
  }
  circuits.push_back(cphase_ladder(device, 9));
  circuits.push_back(swap_ladder(device, 8));

  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t seed = 1;
  for (const auto& c : circuits) {
    for (const auto mode :
         {ExecutionMode::kTrajectory, ExecutionMode::kGlobalDepolarizing}) {
      Rng rng(seed++);
      const std::size_t shots =
          mode == ExecutionMode::kTrajectory ? 24 : 200;
      const auto result = device.execute(c, shots, rng, mode);
      for (const auto& [outcome, count] : result.counts.raw()) {
        fnv1a(h, outcome);
        fnv1a(h, count);
      }
      fnv1a(h, rng());
    }
  }
  return h;
}

// Kernel-only evolution: every qubit position, both operand orders,
// diagonal and general 1q matrices, CZ, negative and generic CPhase, and
// the dense CX/SWAP/iSWAP/generic 2q path, at widths that cross the
// OpenMP threshold.
std::uint64_t kernel_fingerprint() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int n = 1; n <= 15; ++n) {
    Rng rng(700 + static_cast<std::uint64_t>(n));
    qsim::StateVector sv(n);
    for (int round = 0; round < 2; ++round) {
      for (int q = 0; q < n; ++q) {
        sv.apply_1q(qsim::gate_u(rng.uniform(0, 3), rng.uniform(-3, 3),
                                 rng.uniform(-3, 3)),
                    q);
        sv.apply_1q(qsim::gate_rz(rng.uniform(-3, 3)), q);
      }
      if (n == 1) continue;
      for (int q = 0; q < n; ++q) {
        const int p = static_cast<int>(
            (static_cast<std::uint64_t>(q) + 1 +
             rng.uniform_index(static_cast<std::uint64_t>(n - 1))) %
            static_cast<std::uint64_t>(n));
        sv.apply_cphase(M_PI, q, p);
        sv.apply_cphase(-0.7, p, q);
        sv.apply_cphase(rng.uniform(-3, 3), q, p);
        sv.apply_2q(qsim::gate_cx(), q, p);
        sv.apply_2q(qsim::gate_swap(), p, q);
        sv.apply_2q(qsim::gate_iswap(), q, p);
        sv.apply_2q(qsim::matmul(qsim::gate_cphase(rng.uniform(-3, 3)),
                                 qsim::kron(qsim::gate_prx(0.9, 0.2),
                                            qsim::gate_u(0.3, 1.1, -0.5))),
                    p, q);
      }
    }
    fnv1a(h, sv.amplitudes().data(),
          sv.amplitudes().size() * sizeof(qsim::Complex));
  }
  return h;
}

TEST(GoldenFingerprint, ExecutedCountsMatchRecordedConstant) {
  for (const int threads : {1, 4}) {
    set_threads(threads);
    EXPECT_EQ(executed_fingerprint(), kExecutedCountsFingerprint)
        << "threads=" << threads;
  }
}

TEST(GoldenFingerprint, KernelAmplitudesMatchRecordedConstant) {
  for (const int threads : {1, 4}) {
    set_threads(threads);
    EXPECT_EQ(kernel_fingerprint(), kKernelAmplitudesFingerprint)
        << "threads=" << threads;
  }
}

}  // namespace
