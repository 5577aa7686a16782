#pragma once

// Serial gate kernels behind StateVector, one set per instruction set.
// Internal to qsim and not installed: StateVector picks a set once at run
// time and splits the work across OpenMP threads; the kernel differential
// test reaches each set directly through this header.
//
// Every set is compiled from the same source and computes, per amplitude,
// exactly the scalar formula of the original kernels (no FMA, no
// reassociation), so all sets and all thread counts give bit-identical
// states.

#include <cstdint>

#include "hpcqc/qsim/gates.hpp"

namespace hpcqc::qsim::kernels {

/// Each kernel updates the work items [begin, end) of the interleaved
/// (re, im) amplitude array `a`. When the lowest gate qubit is not qubit 0,
/// `begin` and `end` must be even.
struct KernelSet {
  /// Work item k: the amplitude pair (i, i | 2^q) whose low index i is the
  /// k-th with bit q clear; k < 2^(n-1).
  void (*apply_1q)(double* a, const Matrix2& u, int q, std::uint64_t begin,
                   std::uint64_t end);
  /// Work item k: the k-th amplitude with both bits set; k < 2^(n-2).
  void (*apply_cphase)(double* a, Complex phase, int q0, int q1,
                       std::uint64_t begin, std::uint64_t end);
  /// Work item k: the k-th group of four amplitudes that differ only in
  /// bits q0 and q1; k < 2^(n-2).
  void (*apply_2q)(double* a, const Matrix4& u, int q0, int q1,
                   std::uint64_t begin, std::uint64_t end);
};

/// Baseline-ISA set (SSE2 on x86-64); runs everywhere.
const KernelSet& generic_kernels();

/// AVX2 set, or nullptr when the build is not for x86-64 or the CPU lacks
/// AVX2.
const KernelSet* avx2_kernels();

/// The set StateVector uses: AVX2 when available, generic otherwise.
const KernelSet& active_kernels();

}  // namespace hpcqc::qsim::kernels
