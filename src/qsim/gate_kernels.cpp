#include "gate_kernels.hpp"

#include <algorithm>
#include <cstring>

namespace hpcqc::qsim::kernels {

namespace {

// GCC/Clang vector extensions: c1 holds one complex (re, im), c2 two.
// Arithmetic on them is lane-wise IEEE, exactly as on scalars; on a
// baseline build c2 lowers to pairs of SSE2 operations.
typedef double c1 __attribute__((vector_size(16)));
typedef double c2 __attribute__((vector_size(32)));

// The helpers below pass c2 by value; they are always inlined, so no
// 32-byte vector ever crosses a call boundary and GCC's note that the
// AVX calling convention differs does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

#define HPCQC_INLINE [[gnu::always_inline]] inline

template <class V>
constexpr std::uint64_t kLanes = sizeof(V) / (2 * sizeof(double));

HPCQC_INLINE std::uint64_t bit(int q) { return std::uint64_t{1} << q; }

// Inserts a zero at bit `q`, shifting the bits at and above it up by one.
HPCQC_INLINE std::uint64_t insert_zero(std::uint64_t x, int q) {
  return ((x >> q) << (q + 1)) | (x & (bit(q) - 1));
}

// End of the run of consecutive work items containing `k`, when a run is
// `run` (a power of two) items long, clipped to `end`.
HPCQC_INLINE std::uint64_t run_end(std::uint64_t k, std::uint64_t run,
                                   std::uint64_t end) {
  return std::min(end, (k | (run - 1)) + 1);
}

template <class V>
HPCQC_INLINE V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
HPCQC_INLINE void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

HPCQC_INLINE c1 swap_re_im(const c1& v) {
  return __builtin_shufflevector(v, v, 1, 0);
}
HPCQC_INLINE c2 swap_re_im(const c2& v) {
  return __builtin_shufflevector(v, v, 1, 0, 3, 2);
}

// A complex factor u = ur + i·ui spread over the lanes as (ur, ur, ...)
// and (−ui, ui, ...), so that u·v = ur·v + (−ui, ui)·swap(v) gives
// (ur·vr − ui·vi, ur·vi + ui·vr) bit for bit: IEEE negation is exact,
// (−x)·y == −(x·y), and a + (−b) == a − b.
template <class V>
struct Factor {
  V re;
  V neg_im;
};

template <class V>
HPCQC_INLINE Factor<V> splat(Complex u) {
  const double r = u.real();
  const double i = u.imag();
  if constexpr (kLanes<V> == 1) {
    return {V{r, r}, V{-i, i}};
  } else {
    return {V{r, r, r, r}, V{-i, i, -i, i}};
  }
}

template <class V>
HPCQC_INLINE V mul(const Factor<V>& u, const V& v) {
  return u.re * v + u.neg_im * swap_re_im(v);
}

// new_lo = u0·lo + u1·hi, new_hi = u2·lo + u3·hi over runs of pairs; a
// diagonal u scales each half alone (u0·lo, u3·hi), as the scalar kernel
// did, so the zero off-diagonal terms never touch the sum.
template <class V>
HPCQC_INLINE void apply_1q_body(double* a, const Matrix2& u, int q,
                                std::uint64_t begin, std::uint64_t end) {
  constexpr std::uint64_t step = kLanes<V>;
  const std::uint64_t stride = bit(q);
  const bool diagonal =
      u[1] == Complex{0.0, 0.0} && u[2] == Complex{0.0, 0.0};
  const Factor<V> f0 = splat<V>(u[0]), f1 = splat<V>(u[1]);
  const Factor<V> f2 = splat<V>(u[2]), f3 = splat<V>(u[3]);
  for (std::uint64_t k = begin; k < end;) {
    const std::uint64_t stop = run_end(k, stride, end);
    double* lo = a + 2 * insert_zero(k, q);
    double* hi = lo + 2 * stride;
    if (diagonal) {
      for (; k < stop; k += step, lo += 2 * step, hi += 2 * step) {
        store(lo, mul(f0, load<V>(lo)));
        store(hi, mul(f3, load<V>(hi)));
      }
    } else {
      for (; k < stop; k += step, lo += 2 * step, hi += 2 * step) {
        const V l = load<V>(lo);
        const V h = load<V>(hi);
        store(lo, mul(f0, l) + mul(f1, h));
        store(hi, mul(f2, l) + mul(f3, h));
      }
    }
  }
}

// Visits only the quarter of the indices with both bits set.
template <class V>
HPCQC_INLINE void apply_cphase_body(double* a, Complex phase, int q0, int q1,
                                    std::uint64_t begin, std::uint64_t end) {
  constexpr std::uint64_t step = kLanes<V>;
  const int lo = std::min(q0, q1);
  const int hi = std::max(q0, q1);
  const std::uint64_t mask = bit(q0) | bit(q1);
  const Factor<V> f = splat<V>(phase);
  for (std::uint64_t k = begin; k < end;) {
    const std::uint64_t stop = run_end(k, bit(lo), end);
    double* p = a + 2 * (insert_zero(insert_zero(k, lo), hi) | mask);
    for (; k < stop; k += step, p += 2 * step) store(p, mul(f, load<V>(p)));
  }
}

// Row r of the group: ((((0 + u_r0·v0) + u_r1·v1) + u_r2·v2) + u_r3·v3),
// the scalar kernel's accumulation order, starting from +0.
template <class V>
HPCQC_INLINE void apply_2q_body(double* a, const Matrix4& u, int q0, int q1,
                                std::uint64_t begin, std::uint64_t end) {
  constexpr std::uint64_t step = kLanes<V>;
  const int lo = std::min(q0, q1);
  const int hi = std::max(q0, q1);
  Factor<V> f[16];
  for (std::size_t e = 0; e < 16; ++e) f[e] = splat<V>(u[e]);
  // Matrix basis |q1 q0>: column c is the amplitude with bits (c>>1, c&1).
  const std::uint64_t offset[4] = {0, 2 * bit(q0), 2 * bit(q1),
                                   2 * (bit(q0) | bit(q1))};
  for (std::uint64_t k = begin; k < end;) {
    const std::uint64_t stop = run_end(k, bit(lo), end);
    double* p = a + 2 * insert_zero(insert_zero(k, lo), hi);
    for (; k < stop; k += step, p += 2 * step) {
      V v[4];
      for (int c = 0; c < 4; ++c) v[c] = load<V>(p + offset[c]);
      for (int r = 0; r < 4; ++r) {
        V acc = V{};
        for (int c = 0; c < 4; ++c) acc = acc + mul(f[4 * r + c], v[c]);
        store(p + offset[r], acc);
      }
    }
  }
}

// Two complexes per vector need runs of at least two work items, i.e. a
// lowest gate qubit above 0; qubit 0 runs one complex per vector.
HPCQC_INLINE void apply_1q_any(double* a, const Matrix2& u, int q,
                               std::uint64_t begin, std::uint64_t end) {
  if (q == 0) apply_1q_body<c1>(a, u, q, begin, end);
  else apply_1q_body<c2>(a, u, q, begin, end);
}

HPCQC_INLINE void apply_cphase_any(double* a, Complex phase, int q0, int q1,
                                   std::uint64_t begin, std::uint64_t end) {
  if (std::min(q0, q1) == 0)
    apply_cphase_body<c1>(a, phase, q0, q1, begin, end);
  else
    apply_cphase_body<c2>(a, phase, q0, q1, begin, end);
}

HPCQC_INLINE void apply_2q_any(double* a, const Matrix4& u, int q0, int q1,
                               std::uint64_t begin, std::uint64_t end) {
  if (std::min(q0, q1) == 0) apply_2q_body<c1>(a, u, q0, q1, begin, end);
  else apply_2q_body<c2>(a, u, q0, q1, begin, end);
}

// One instantiation of the kernel source per instruction set: the bodies
// above are forced inline into these entry points, so each is compiled
// for its entry point's target.
void apply_1q_generic(double* a, const Matrix2& u, int q, std::uint64_t begin,
                      std::uint64_t end) {
  apply_1q_any(a, u, q, begin, end);
}
void apply_cphase_generic(double* a, Complex phase, int q0, int q1,
                          std::uint64_t begin, std::uint64_t end) {
  apply_cphase_any(a, phase, q0, q1, begin, end);
}
void apply_2q_generic(double* a, const Matrix4& u, int q0, int q1,
                      std::uint64_t begin, std::uint64_t end) {
  apply_2q_any(a, u, q0, q1, begin, end);
}

constexpr KernelSet kGeneric{apply_1q_generic, apply_cphase_generic,
                             apply_2q_generic};

#if defined(__x86_64__)
// AVX2 only: FMA is a separate extension and stays off, so no multiply-add
// is ever contracted.
#define HPCQC_AVX2 [[gnu::target("avx2")]]

HPCQC_AVX2 void apply_1q_avx2(double* a, const Matrix2& u, int q,
                              std::uint64_t begin, std::uint64_t end) {
  apply_1q_any(a, u, q, begin, end);
}
HPCQC_AVX2 void apply_cphase_avx2(double* a, Complex phase, int q0, int q1,
                                  std::uint64_t begin, std::uint64_t end) {
  apply_cphase_any(a, phase, q0, q1, begin, end);
}
HPCQC_AVX2 void apply_2q_avx2(double* a, const Matrix4& u, int q0, int q1,
                              std::uint64_t begin, std::uint64_t end) {
  apply_2q_any(a, u, q0, q1, begin, end);
}

constexpr KernelSet kAvx2{apply_1q_avx2, apply_cphase_avx2, apply_2q_avx2};
#endif

}  // namespace

const KernelSet& generic_kernels() { return kGeneric; }

const KernelSet* avx2_kernels() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return nullptr;
}

const KernelSet& active_kernels() {
  static const KernelSet& active =
      avx2_kernels() ? *avx2_kernels() : generic_kernels();
  return active;
}

}  // namespace hpcqc::qsim::kernels
