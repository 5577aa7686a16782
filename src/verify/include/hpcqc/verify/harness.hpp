#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/mqss/compiler.hpp"
#include "hpcqc/qdmi/qdmi.hpp"
#include "hpcqc/verify/equivalence.hpp"
#include "hpcqc/verify/fuzzer.hpp"

namespace hpcqc::verify {

/// How a fuzz case compiles a circuit. Wrapping compilation in a callback
/// lets the harness drive custom pipelines (mqss::PassManager::compile) —
/// including deliberately broken passes (mutation checks) — not just
/// mqss::compile.
using CompileFn =
    std::function<mqss::CompiledProgram(const circuit::Circuit&)>;

/// A CompileFn for the standard pipeline against `device` (which must
/// outlive the returned callable).
CompileFn standard_compile(const qdmi::DeviceInterface& device,
                           const mqss::CompilerOptions& options);

/// A minimal failing input: the seed that produced it, the original
/// generated circuit, and its greedy shrink (the smallest circuit for
/// which the oracle still rejects the compilation).
struct Counterexample {
  std::uint64_t seed = 0;
  circuit::Circuit original{1};
  circuit::Circuit shrunk{1};
  EquivalenceResult failure;

  /// Replay-ready report: seed (hex), failure reason, and the shrunk
  /// circuit in the text format.
  std::string describe() const;
};

struct FuzzReport {
  std::size_t seeds_run = 0;
  std::size_t failures = 0;
  std::vector<std::uint64_t> failing_seeds;
  /// Shrunk for the first failure only (shrinking re-compiles many times).
  std::optional<Counterexample> first_counterexample;
};

/// The metamorphic oracle loop: for every seed in [first_seed, first_seed +
/// num_seeds), generates a circuit, compiles it through `compile`, and
/// checks layout-aware unitary equivalence at `tol` under `frame`. A
/// compile-time exception counts as a failure too. The first failing seed
/// is shrunk to a minimal counterexample.
FuzzReport run_equivalence_fuzz(
    const CircuitFuzzer& fuzzer, std::uint64_t first_seed,
    std::size_t num_seeds, const CompileFn& compile, double tol = 1e-7,
    FrameTolerance frame = FrameTolerance::kOutputZFrame);

/// A concrete circuit lifted into a fully-symbolic template plus the
/// binding that reproduces it: every angle becomes a distinct parameter
/// whose bound value is the original angle.
struct ParametrizedCase {
  circuit::ParametricCircuit circuit{1};
  std::map<std::string, double> binding;
};

/// Lifts `circuit` for the bind-equivalence fuzz: gate structure is kept,
/// every parameter slot is replaced with a fresh symbol (named so
/// parameters() sorts in creation order), and `binding` maps each symbol
/// back to the source angle.
ParametrizedCase parametrize(const circuit::Circuit& circuit);

struct BindFuzzReport {
  std::size_t seeds_run = 0;
  std::size_t failures = 0;
  /// Total affine parameter slots patched across all templates — a sanity
  /// gauge that the fuzz actually exercised the bind phase.
  std::size_t slots_patched = 0;
  std::vector<std::uint64_t> failing_seeds;
  /// Failure details for the first few failing seeds.
  std::vector<std::string> failure_details;
};

/// Two-phase compilation oracle loop: for every seed, generates a circuit,
/// lifts it to a fully-symbolic template (parametrize), structure-compiles
/// the template once, and checks that bind-patching reproduces a cold
/// compilation up to kOutputZFrame at two distinct bindings — the original
/// angles and a shifted vector — against the same compiled-equivalence
/// oracle the plain fuzz uses. This is the equivalence contract of
/// mqss::compile_template: one cached structure must serve every binding.
BindFuzzReport run_bind_equivalence_fuzz(const CircuitFuzzer& fuzzer,
                                         std::uint64_t first_seed,
                                         std::size_t num_seeds,
                                         const qdmi::DeviceInterface& device,
                                         const mqss::CompilerOptions& options,
                                         double tol = 1e-7);

struct MaskedFuzzReport {
  std::size_t seeds_run = 0;
  std::size_t failures = 0;
  /// Random masks rejected because their largest healthy component could
  /// not hold the generated circuit (a fresh mask is drawn each rejection).
  std::size_t masks_redrawn = 0;
  /// Total masked elements (down qubits + down couplers) across the masks
  /// actually fuzzed — a sanity gauge that masks were non-trivial.
  std::size_t masked_elements = 0;
  /// Stale-mask regression (compile-cache keying): for every non-trivial
  /// mask the harness also compiles the circuit twice through one
  /// cache-enabled QpuService against an overlay QDMI view whose
  /// kOperational bits flip from all-healthy to the drawn mask *without*
  /// any calibration-epoch bump (the telemetry-sensor failure mode). The
  /// check fails when the cache serves the stale healthy-topology program
  /// (no recompile observed) or the recompiled program is illegal under
  /// the mask.
  std::size_t stale_mask_checks = 0;
  std::size_t stale_mask_failures = 0;
  std::vector<std::uint64_t> failing_seeds;
  /// Shrunk for the first failure only, with the failing mask installed.
  std::optional<Counterexample> first_counterexample;
};

/// Degraded-serving oracle loop: for every seed, draws a random health mask
/// (each qubit / coupler down with `down_probability`, redrawn until the
/// largest healthy component fits the generated circuit), installs it on
/// `model`, compiles through the standard pipeline against `device` (which
/// must view `model`), and checks that
///   1. the initial layout only uses healthy qubits,
///   2. no compiled op touches a down qubit or an unusable coupler, and
///   3. the compiled program is still unitarily equivalent to the source.
/// A compile-time exception counts as a failure. The model is restored to
/// all-healthy before returning.
MaskedFuzzReport run_masked_topology_fuzz(
    const CircuitFuzzer& fuzzer, std::uint64_t first_seed,
    std::size_t num_seeds, device::DeviceModel& model,
    const qdmi::DeviceInterface& device, const mqss::CompilerOptions& options,
    double down_probability = 0.15, double tol = 1e-7);

}  // namespace hpcqc::verify
