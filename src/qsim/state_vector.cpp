#include "hpcqc/qsim/state_vector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "gate_kernels.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/common/parallel.hpp"

namespace hpcqc::qsim {

namespace {
// Below this state size the OpenMP fork costs more than the loop.
constexpr std::uint64_t kParallelThreshold = std::uint64_t{1} << 14;

// Runs a gate kernel over work items [0, items) of a `dim`-amplitude
// state: serially below kParallelThreshold, otherwise in fixed chunks
// across the OpenMP threads. Each work item is computed by the same
// formula however the range is split, so the state does not depend on
// the thread count.
template <class Kernel>
void for_chunks(std::uint64_t items, std::uint64_t dim, const Kernel& kernel) {
  if (dim < kParallelThreshold) {
    kernel(0, items);
    return;
  }
  constexpr std::uint64_t kChunk = 1024;
  const auto chunks = static_cast<std::int64_t>((items + kChunk - 1) / kChunk);
  parallel_region(true, [&] {
#pragma omp for schedule(static)
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::uint64_t begin = static_cast<std::uint64_t>(c) * kChunk;
      kernel(begin, std::min(items, begin + kChunk));
    }
  });
}
}  // namespace

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  expects(num_qubits >= 1 && num_qubits <= 28,
          "StateVector: qubit count must be in [1, 28]");
  amps_.assign(std::uint64_t{1} << num_qubits, Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

Complex StateVector::amplitude(std::uint64_t basis_state) const {
  expects(basis_state < dimension(), "amplitude: basis state out of range");
  return amps_[basis_state];
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

void StateVector::apply_1q(const Matrix2& u, int qubit) {
  expects(qubit >= 0 && qubit < num_qubits_, "apply_1q: qubit out of range");
  const auto& k = kernels::active_kernels();
  double* a = reinterpret_cast<double*>(amps_.data());
  for_chunks(dimension() >> 1, dimension(),
             [&](std::uint64_t begin, std::uint64_t end) {
               k.apply_1q(a, u, qubit, begin, end);
             });
}

void StateVector::apply_2q(const Matrix4& u, int qubit0, int qubit1) {
  expects(qubit0 >= 0 && qubit0 < num_qubits_ && qubit1 >= 0 &&
              qubit1 < num_qubits_,
          "apply_2q: qubit out of range");
  expects(qubit0 != qubit1, "apply_2q: qubits must differ");
  const auto& k = kernels::active_kernels();
  double* a = reinterpret_cast<double*>(amps_.data());
  for_chunks(dimension() >> 2, dimension(),
             [&](std::uint64_t begin, std::uint64_t end) {
               k.apply_2q(a, u, qubit0, qubit1, begin, end);
             });
}

void StateVector::apply_cphase(double theta, int qubit0, int qubit1) {
  expects(qubit0 >= 0 && qubit0 < num_qubits_ && qubit1 >= 0 &&
              qubit1 < num_qubits_ && qubit0 != qubit1,
          "apply_cphase: invalid qubits");
  const Complex phase = std::polar(1.0, theta);
  const auto& k = kernels::active_kernels();
  double* a = reinterpret_cast<double*>(amps_.data());
  for_chunks(dimension() >> 2, dimension(),
             [&](std::uint64_t begin, std::uint64_t end) {
               k.apply_cphase(a, phase, qubit0, qubit1, begin, end);
             });
}

double StateVector::norm() const {
  double acc = 0.0;
  const std::uint64_t dim = dimension();
  const Complex* a = amps_.data();
  parallel_region(dim >= kParallelThreshold, [&] {
#pragma omp for reduction(+ : acc) schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i)
      acc += std::norm(a[i]);
  });
  return std::sqrt(acc);
}

void StateVector::normalize() {
  const double n = norm();
  ensure_state(n > 1e-300, "normalize: state has collapsed to zero");
  const double inv = 1.0 / n;
  const std::uint64_t dim = dimension();
  Complex* a = amps_.data();
  parallel_region(dim >= kParallelThreshold, [&] {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i)
      a[i] *= inv;
  });
}

double StateVector::probability_one(int qubit) const {
  expects(qubit >= 0 && qubit < num_qubits_,
          "probability_one: qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << qubit;
  const std::uint64_t dim = dimension();
  const Complex* a = amps_.data();
  double acc = 0.0;
  parallel_region(dim >= kParallelThreshold, [&] {
#pragma omp for reduction(+ : acc) schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i)
      if (static_cast<std::uint64_t>(i) & bit) acc += std::norm(a[i]);
  });
  return acc;
}

std::vector<double> StateVector::probabilities() const {
  const std::uint64_t dim = dimension();
  std::vector<double> probs(dim);
  const Complex* a = amps_.data();
  double* p = probs.data();
  parallel_region(dim >= kParallelThreshold, [&] {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i)
      p[i] = std::norm(a[i]);
  });
  return probs;
}

int StateVector::measure(int qubit, Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.bernoulli(p1) ? 1 : 0;
  const std::uint64_t bit = std::uint64_t{1} << qubit;
  const std::uint64_t dim = dimension();
  Complex* a = amps_.data();
  parallel_region(dim >= kParallelThreshold, [&] {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i) {
      const bool is_one = (static_cast<std::uint64_t>(i) & bit) != 0;
      if (is_one != (outcome == 1)) a[i] = Complex{0.0, 0.0};
    }
  });
  normalize();
  return outcome;
}

std::uint64_t StateVector::sample_one(Rng& rng) const {
  // Single-pass inverse transform: walk the amplitudes once, subtracting
  // each probability from the draw until it is exhausted. No CDF is
  // materialized, so the per-shot cost is a read-only O(2^n) sweep.
  // Kept strictly serial: the trajectory engine calls this from inside an
  // OpenMP shot loop and the scan order must not depend on thread count.
  const std::uint64_t dim = dimension();
  double r = rng.uniform();
  std::uint64_t last_nonzero = 0;
  bool seen_nonzero = false;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const double p = std::norm(amps_[i]);
    if (p > 0.0) {
      last_nonzero = i;
      seen_nonzero = true;
    }
    r -= p;
    if (r < 0.0) return i;
  }
  // The draw fell past the accumulated mass (sub-unit norm or rounding):
  // attribute it to the last outcome with support.
  ensure_state(seen_nonzero, "sample_one: zero-norm state");
  return last_nonzero;
}

std::vector<std::uint64_t> StateVector::sample(std::size_t shots,
                                               Rng& rng) const {
  // One draw does not amortize a CDF build — use the single-pass sampler.
  if (shots == 1) return {sample_one(rng)};
  // Cumulative distribution + binary search per shot: O(2^n + S log 2^n).
  std::vector<double> cdf(dimension());
  double acc = 0.0;
  for (std::uint64_t i = 0; i < dimension(); ++i) {
    acc += std::norm(amps_[i]);
    cdf[i] = acc;
  }
  ensure_state(acc > 0.0, "sample: zero-norm state");
  std::vector<std::uint64_t> out(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
    out[s] = static_cast<std::uint64_t>(std::distance(cdf.begin(), it));
    if (out[s] >= dimension()) out[s] = dimension() - 1;
  }
  return out;
}

double StateVector::expectation_z(std::uint64_t mask) const {
  const std::uint64_t dim = dimension();
  const Complex* a = amps_.data();
  double acc = 0.0;
  parallel_region(dim >= kParallelThreshold, [&] {
#pragma omp for reduction(+ : acc) schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i) {
      const int parity =
          std::popcount(static_cast<std::uint64_t>(i) & mask) & 1;
      acc += (parity ? -1.0 : 1.0) * std::norm(a[i]);
    }
  });
  return acc;
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner_product(other));
}

Complex StateVector::inner_product(const StateVector& other) const {
  expects(num_qubits_ == other.num_qubits_,
          "inner_product: qubit count mismatch");
  const std::uint64_t dim = dimension();
  const Complex* a = amps_.data();
  const Complex* b = other.amps_.data();
  // OpenMP has no portable std::complex reduction — reduce the parts. The
  // per-thread sums are combined by hand with one atomic add each: GCC
  // combines a two-variable reduction clause under libgomp's internal lock,
  // which ThreadSanitizer cannot see, so it would report a false race.
  double re = 0.0;
  double im = 0.0;
  parallel_region(dim >= kParallelThreshold, [&] {
    double re_part = 0.0;
    double im_part = 0.0;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i) {
      const Complex term = std::conj(a[i]) * b[i];
      re_part += term.real();
      im_part += term.imag();
    }
#pragma omp atomic
    re += re_part;
#pragma omp atomic
    im += im_part;
  });
  return Complex{re, im};
}

void StateVector::apply_pauli_error(int qubit, double p, Rng& rng) {
  expects(p >= 0.0 && p <= 1.0, "apply_pauli_error: p outside [0,1]");
  if (!rng.bernoulli(p)) return;
  static const Matrix2 kX = gate_x();
  static const Matrix2 kY = gate_y();
  static const Matrix2 kZ = gate_z();
  switch (rng.uniform_index(3)) {
    case 0: apply_1q(kX, qubit); break;
    case 1: apply_1q(kY, qubit); break;
    default: apply_1q(kZ, qubit); break;
  }
}

void StateVector::apply_pauli_error_2q(int qubit0, int qubit1, double p,
                                       Rng& rng) {
  expects(p >= 0.0 && p <= 1.0, "apply_pauli_error_2q: p outside [0,1]");
  if (!rng.bernoulli(p)) return;
  // Uniform over the 15 non-identity two-qubit Paulis.
  const std::uint64_t which = 1 + rng.uniform_index(15);
  const int p0 = static_cast<int>(which % 4);
  const int p1 = static_cast<int>(which / 4);
  static const Matrix2 kX = gate_x();
  static const Matrix2 kY = gate_y();
  static const Matrix2 kZ = gate_z();
  const auto apply_pauli = [this](int pauli, int q) {
    switch (pauli) {
      case 1: apply_1q(kX, q); break;
      case 2: apply_1q(kY, q); break;
      case 3: apply_1q(kZ, q); break;
      default: break;
    }
  };
  apply_pauli(p0, qubit0);
  apply_pauli(p1, qubit1);
}

void StateVector::apply_amplitude_damping(int qubit, double gamma, Rng& rng) {
  expects(gamma >= 0.0 && gamma <= 1.0,
          "apply_amplitude_damping: gamma outside [0,1]");
  if (gamma == 0.0) return;
  // Jump probability = gamma * P(|1>).
  const double p_jump = gamma * probability_one(qubit);
  const std::uint64_t bit = std::uint64_t{1} << qubit;
  if (rng.bernoulli(p_jump)) {
    // Jump: K1 = sqrt(gamma) |0><1| — move |1> amplitude into |0>.
    for (std::uint64_t i = 0; i < dimension(); ++i) {
      if (i & bit) {
        amps_[i & ~bit] = amps_[i];
        amps_[i] = Complex{0.0, 0.0};
      }
    }
  } else {
    // No jump: K0 = diag(1, sqrt(1-gamma)).
    const double damp = std::sqrt(1.0 - gamma);
    for (std::uint64_t i = 0; i < dimension(); ++i)
      if (i & bit) amps_[i] *= damp;
  }
  normalize();
}

void StateVector::apply_phase_damping(int qubit, double lambda, Rng& rng) {
  expects(lambda >= 0.0 && lambda <= 1.0,
          "apply_phase_damping: lambda outside [0,1]");
  if (rng.bernoulli(lambda)) apply_1q(gate_z(), qubit);
}

double pauli_error_prob_from_avg_fidelity(double avg_fidelity,
                                          int num_qubits) {
  expects(num_qubits == 1 || num_qubits == 2,
          "pauli_error_prob: only 1- and 2-qubit gates supported");
  const double d = num_qubits == 1 ? 2.0 : 4.0;
  const double process_fidelity = ((d + 1.0) * avg_fidelity - 1.0) / d;
  return std::clamp(1.0 - process_fidelity, 0.0, 1.0);
}

double avg_fidelity_from_pauli_error_prob(double p, int num_qubits) {
  expects(num_qubits == 1 || num_qubits == 2,
          "avg_fidelity_from_pauli_error_prob: only 1- and 2-qubit gates");
  const double d = num_qubits == 1 ? 2.0 : 4.0;
  const double process_fidelity = 1.0 - p;
  return (d * process_fidelity + 1.0) / (d + 1.0);
}

}  // namespace hpcqc::qsim
