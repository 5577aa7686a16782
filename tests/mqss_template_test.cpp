// Two-phase compilation: structure templates (compile_template / bind),
// the QpuService parametric path (structure cache, compile.structure /
// compile.bind spans, structure-cache metrics), and farm-backed prefetch
// determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/mqss/compile_farm.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/mqss/template.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/verify/equivalence.hpp"

namespace hpcqc::mqss {
namespace {

circuit::ParametricCircuit vqe_ansatz() {
  circuit::ParametricCircuit ansatz(3);
  ansatz.h(0)
      .ry(circuit::ParamExpr::symbol("a"), 0)
      .ry(circuit::ParamExpr::symbol("b", 0.5, 0.1), 1)
      .cz(0, 1)
      .rz(circuit::ParamExpr::symbol("a", -1.0), 1)
      .cx(1, 2)
      .cphase(circuit::ParamExpr::symbol("c"), 0, 2)
      .measure();
  return ansatz;
}

class TemplateTest : public ::testing::Test {
protected:
  TemplateTest()
      : rng_(8),
        device_(device::make_grid("tmpl-3x3", 3, 3, device::DeviceSpec{},
                                  device::DriftParams{}, rng_)),
        qdmi_(device_, clock_) {}

  Rng rng_;
  SimClock clock_;
  device::DeviceModel device_;
  qdmi::ModelBackedDevice qdmi_;
};

TEST_F(TemplateTest, BindReproducesAColdCompileAtAnyBinding) {
  const auto ansatz = vqe_ansatz();
  const CompiledTemplate tmpl = compile_template(ansatz, qdmi_);
  EXPECT_TRUE(tmpl.is_parametric());
  EXPECT_FALSE(tmpl.slots.empty());
  ASSERT_EQ(tmpl.parameters.size(), 3u);

  for (const double sweep : {0.0, 0.7, -1.3, 2.9}) {
    const std::map<std::string, double> binding{
        {"a", sweep}, {"b", 1.1 - sweep}, {"c", 0.4 * sweep}};
    const CompiledProgram patched = tmpl.bind(binding);
    const auto verdict = verify::compiled_equivalent(
        ansatz.bind(binding), patched, verify::FrameTolerance::kOutputZFrame);
    EXPECT_TRUE(verdict.equivalent)
        << "sweep=" << sweep << ": " << verdict.detail;
  }
}

TEST_F(TemplateTest, BindValidatesTheBinding) {
  const CompiledTemplate tmpl = compile_template(vqe_ansatz(), qdmi_);
  EXPECT_THROW(tmpl.bind({{"a", 1.0}, {"b", 2.0}}), NotFoundError);
  EXPECT_THROW(
      tmpl.bind({{"a", 1.0}, {"b", 2.0}, {"c", 3.0}, {"typo", 4.0}}),
      PreconditionError);
}

TEST_F(TemplateTest, AsTemplateWrapsConcreteProgramsWithNoSlots) {
  const CompiledProgram program =
      compile(circuit::Circuit::ghz(4), qdmi_, {});
  const CompiledTemplate tmpl = as_template(program);
  EXPECT_FALSE(tmpl.is_parametric());
  EXPECT_TRUE(tmpl.slots.empty());
  // Zero-slot bind: the empty binding returns the program unchanged.
  EXPECT_EQ(tmpl.bind({}).native_circuit, program.native_circuit);
}

TEST_F(TemplateTest, TemplateSurvivesEveryOptionCombination) {
  const auto ansatz = vqe_ansatz();
  const std::map<std::string, double> binding{
      {"a", 0.9}, {"b", -0.4}, {"c", 1.7}};
  for (const auto placement : {PlacementStrategy::kStatic,
                               PlacementStrategy::kFidelityAware}) {
    for (const bool optimize : {false, true}) {
      for (const bool fidelity_routing : {false, true}) {
        const CompilerOptions options{placement, optimize, fidelity_routing};
        const CompiledTemplate tmpl =
            compile_template(ansatz, qdmi_, options);
        const auto verdict = verify::compiled_equivalent(
            ansatz.bind(binding), tmpl.bind(binding),
            verify::FrameTolerance::kOutputZFrame);
        EXPECT_TRUE(verdict.equivalent)
            << "placement=" << to_string(placement)
            << " optimize=" << optimize << " routing=" << fidelity_routing
            << ": " << verdict.detail;
      }
    }
  }
}

class ParametricServiceTest : public TemplateTest {
protected:
  ParametricServiceTest() : service_(device_, qdmi_, rng_) {}

  QpuService service_;
};

TEST_F(ParametricServiceTest, StructureIsCompiledOnceAcrossBindings) {
  const auto ansatz = vqe_ansatz();
  const auto first = service_.compile_structure(ansatz);
  const auto second = service_.compile_structure(ansatz);
  EXPECT_EQ(first, second);  // same shared cache entry
  EXPECT_EQ(service_.cache_misses(), 1u);
  EXPECT_EQ(service_.cache_hits(), 1u);

  // Ten optimizer iterations: one structure compile total.
  for (int i = 0; i < 10; ++i) {
    const double t = 0.1 * i;
    const auto program = service_.compile_parametric(
        ansatz, {{"a", t}, {"b", -t}, {"c", 2.0 * t}});
    EXPECT_TRUE(program.native_circuit.is_native());
  }
  EXPECT_EQ(service_.cache_misses(), 1u);
  EXPECT_EQ(service_.cache_hits(), 11u);
}

TEST_F(ParametricServiceTest, RecalibrationInvalidatesCachedStructures) {
  const auto ansatz = vqe_ansatz();
  service_.compile_structure(ansatz);
  device_.install_calibration(device_.sample_fresh_calibration(100.0, rng_));
  service_.compile_structure(ansatz);
  EXPECT_EQ(service_.cache_misses(), 2u);
  EXPECT_EQ(service_.cache_hits(), 0u);
}

TEST_F(ParametricServiceTest, HealthMaskChangeInvalidatesCachedStructures) {
  const auto ansatz = vqe_ansatz();
  service_.compile_structure(ansatz);
  device_.set_qubit_health(7, false);
  service_.compile_structure(ansatz);
  EXPECT_EQ(service_.cache_misses(), 2u);
  device_.set_qubit_health(7, true);
}

TEST_F(ParametricServiceTest, RunParametricTracesStructureAndBindSpans) {
  obs::Tracer tracer;
  tracer.set_now_source([this] { return clock_.now(); });
  obs::MetricsRegistry registry;
  service_.set_tracer(&tracer);
  service_.set_metrics(&registry);

  const auto ansatz = vqe_ansatz();
  service_.run_parametric(ansatz, {{"a", 0.3}, {"b", 0.6}, {"c", 0.9}}, 100);
  const auto& records = tracer.records();
  const auto named = [&](const std::string& name) {
    return std::count_if(
        records.begin(), records.end(),
        [&](const obs::SpanRecord& r) { return r.name == name; });
  };
  EXPECT_EQ(named("qpu.run"), 1);
  EXPECT_EQ(named("compile"), 1);
  EXPECT_EQ(named("compile.structure"), 1);
  EXPECT_EQ(named("compile.bind"), 1);
  EXPECT_EQ(named("execute"), 1);
  std::size_t pass_spans = 0;
  for (const auto& r : records)
    if (r.name.rfind("pass:", 0) == 0) ++pass_spans;
  EXPECT_GT(pass_spans, 0u);  // structure miss ran the pipeline

  // A second iteration at a different binding: structure hit, no new pass
  // spans, but a fresh bind span.
  const std::size_t before = records.size();
  service_.run_parametric(ansatz, {{"a", 1.3}, {"b", 1.6}, {"c", 1.9}}, 100);
  const obs::SpanRecord* structure = nullptr;
  const obs::SpanRecord* compile_span = nullptr;
  std::size_t new_pass_spans = 0, new_bind_spans = 0;
  for (std::size_t i = before; i < records.size(); ++i) {
    if (records[i].name.rfind("pass:", 0) == 0) ++new_pass_spans;
    if (records[i].name == "compile.bind") ++new_bind_spans;
    if (records[i].name == "compile.structure") structure = &records[i];
    if (records[i].name == "compile") compile_span = &records[i];
  }
  EXPECT_EQ(new_pass_spans, 0u);
  EXPECT_EQ(new_bind_spans, 1u);
  ASSERT_NE(structure, nullptr);
  EXPECT_EQ(*structure->attribute("cache"), "hit");
  ASSERT_NE(compile_span, nullptr);
  ASSERT_NE(compile_span->attribute("cache_hits"), nullptr);
  EXPECT_EQ(*compile_span->attribute("cache_hits"), "1");
  EXPECT_EQ(*compile_span->attribute("cache_misses"), "1");

  EXPECT_EQ(registry.counter("mqss.runs").count(), 2u);
  EXPECT_EQ(registry.counter("mqss.structure_cache_hits").count(), 1u);
  EXPECT_EQ(registry.counter("mqss.structure_cache_misses").count(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("mqss.compile_cache_hit_rate").value(),
                   0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("mqss.structure_cache_size").value(), 1.0);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST_F(ParametricServiceTest, EvictionsAreCountedInMetrics) {
  obs::MetricsRegistry registry;
  service_.set_metrics(&registry);
  service_.set_compile_cache_capacity(1);
  service_.compile_only(circuit::Circuit::ghz(3));
  service_.compile_only(circuit::Circuit::ghz(4));  // evicts ghz(3)
  service_.compile_only(circuit::Circuit::ghz(5));  // evicts ghz(4)
  EXPECT_EQ(registry.counter("mqss.compile_cache_evictions").count(), 2u);
  EXPECT_EQ(service_.cache_stats().evictions, 2u);
  EXPECT_EQ(service_.cache_size(), 1u);
}

TEST_F(ParametricServiceTest, RunParametricReplaysBitIdentically) {
  // Warm-cache (bind-patched) and cold-cache (structure recompiled every
  // run) services with identical seeds must produce identical shots: the
  // cache is a CPU-cost knob, never a semantics knob.
  const auto ansatz = vqe_ansatz();
  const auto run_campaign = [&](bool cache_enabled) {
    Rng rng(99);
    device::DeviceModel device = device::make_iqm20(rng);
    SimClock clock;
    qdmi::ModelBackedDevice view(device, clock);
    QpuService service(device, view, rng);
    service.set_compile_cache_enabled(cache_enabled);
    std::vector<RunResult> results;
    for (const double t : {0.1, 0.9, -0.7})
      results.push_back(service.run_parametric(
          ansatz, {{"a", t}, {"b", 1.0 - t}, {"c", 2.0 * t}}, 300));
    return results;
  };
  const auto warm = run_campaign(true);
  const auto cold = run_campaign(false);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].counts.total_shots(), 300u);
    EXPECT_EQ(warm[i].counts.raw(), cold[i].counts.raw()) << "iteration " << i;
    EXPECT_DOUBLE_EQ(warm[i].estimated_fidelity, cold[i].estimated_fidelity);
    EXPECT_EQ(warm[i].initial_layout, cold[i].initial_layout);
  }
}

TEST_F(ParametricServiceTest, FarmPrefetchIsInvisibleToResultsAndStats) {
  const auto ansatz = std::make_shared<const circuit::ParametricCircuit>(
      vqe_ansatz());
  const std::map<std::string, double> binding{
      {"a", 0.8}, {"b", 0.2}, {"c", -0.5}};

  // Reference: no farm — foreground compile.
  const CompiledProgram cold = service_.compile_parametric(*ansatz, binding);
  const StructureCacheStats cold_stats = service_.cache_stats();

  // Farm-backed service on an identical device: prefetch, then the same
  // foreground lookups. Program and stats must be bit-identical.
  Rng rng(8);
  device::DeviceModel device = device::make_grid(
      "tmpl-3x3", 3, 3, device::DeviceSpec{}, device::DriftParams{}, rng);
  SimClock clock;
  qdmi::ModelBackedDevice view(device, clock);
  QpuService warmed(device, view, rng);
  CompileFarm farm(4);
  warmed.set_compile_farm(&farm);
  const QpuService::StructureRef ref{ansatz, ansatz->structural_hash()};
  warmed.prefetch_structures({&ref, 1});
  farm.wait_idle();
  EXPECT_EQ(farm.tasks_executed(), 1u);
  EXPECT_EQ(warmed.cache_stats().misses, 0u);  // prefetch does not count

  const CompiledProgram prefetched =
      warmed.compile_parametric(*ansatz, binding);
  EXPECT_EQ(prefetched.native_circuit, cold.native_circuit);
  EXPECT_EQ(prefetched.initial_layout, cold.initial_layout);
  const StructureCacheStats warm_stats = warmed.cache_stats();
  EXPECT_EQ(warm_stats.hits, cold_stats.hits);
  EXPECT_EQ(warm_stats.misses, cold_stats.misses);
  EXPECT_EQ(warm_stats.size, cold_stats.size);

  // Prefetch without a farm (or with the cache disabled) is a safe no-op.
  warmed.set_compile_farm(nullptr);
  warmed.prefetch_structures({&ref, 1});
  warmed.set_compile_farm(&farm);
  warmed.set_compile_cache_enabled(false);
  warmed.prefetch_structures({&ref, 1});
  farm.wait_idle();
  EXPECT_EQ(farm.tasks_executed(), 1u);
}

TEST_F(ParametricServiceTest, DisabledCacheStillCompilesParametric) {
  service_.set_compile_cache_enabled(false);
  const auto ansatz = vqe_ansatz();
  const std::map<std::string, double> binding{
      {"a", 0.8}, {"b", 0.2}, {"c", -0.5}};
  const auto program = service_.compile_parametric(ansatz, binding);
  const auto verdict = verify::compiled_equivalent(
      ansatz.bind(binding), program, verify::FrameTolerance::kOutputZFrame);
  EXPECT_TRUE(verdict.equivalent) << verdict.detail;
  EXPECT_EQ(service_.cache_size(), 0u);
}

}  // namespace
}  // namespace hpcqc::mqss
