// Observability overhead: what tracing and metrics cost the hot paths.
//
// Expected shape: the disabled path (null tracer) is one pointer test —
// indistinguishable from untraced code; a full span lifecycle is two small
// vector appends plus a SplitMix64 draw (~100 ns); and histogram observe is
// a branchless lower_bound over ~20 edges. What tracing costs an executed
// end-to-end run is measured by perfbench (`--trace 1`), as
// trace.overhead_ratio with its spread trace.overhead_iqr.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_json.hpp"
#include "hpcqc/obs/export.hpp"
#include "hpcqc/obs/flight_recorder.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"

namespace {

using namespace hpcqc;

void print_reproduction() {
  std::cout
      << "=== Observability overhead (tracing, metrics, flight recorder) ===\n"
      << "Contract: no-op sink path ~0% (one pointer test); end-to-end\n"
      << "tracing overhead is perfbench's trace.overhead_ratio.\n\n";
}

// One full span lifecycle: begin at an explicit timestamp, one attribute,
// one event, end. This is what every QRM job stage costs.
void BM_SpanLifecycle(benchmark::State& state) {
  obs::Tracer tracer;
  Seconds t = 0.0;
  for (auto _ : state) {
    const obs::SpanHandle h = tracer.begin_span("stage", t);
    tracer.set_attribute(h, "shots", "500");
    tracer.add_event(h, t + 0.5, "progress");
    tracer.end_span(h, t + 1.0);
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanLifecycle);

// The disabled path every integration point takes when no tracer is
// attached: a pointer test, nothing else.
void BM_SpanLifecycleDisabled(benchmark::State& state) {
  obs::Tracer* tracer = nullptr;
  Seconds t = 0.0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (tracer != nullptr) {
      const obs::SpanHandle h = tracer->begin_span("stage", t);
      tracer->end_span(h, t + 1.0);
    }
    sink += 1;
    benchmark::DoNotOptimize(sink);
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanLifecycleDisabled);

// Span lifecycle with the flight recorder ring attached (one extra copy of
// the record on end, plus ring eviction bookkeeping).
void BM_SpanLifecycleWithRecorder(benchmark::State& state) {
  obs::Tracer tracer;
  obs::FlightRecorder recorder(1024, 64);
  tracer.set_flight_recorder(&recorder);
  Seconds t = 0.0;
  for (auto _ : state) {
    const obs::SpanHandle h = tracer.begin_span("stage", t);
    tracer.end_span(h, t + 1.0);
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanLifecycleWithRecorder);

void BM_CounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = &registry.counter("bench.counter");
  for (auto _ : state) {
    counter->inc();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = &registry.histogram("bench.wait_s");
  double value = 0.0625;
  for (auto _ : state) {
    hist->observe(value);
    value = value < 100000.0 ? value * 1.7 : 0.0625;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_MetricsSnapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 24; ++i)
    registry.counter("qrm.counter_" + std::to_string(i)).inc(double(i));
  for (int i = 0; i < 4; ++i) {
    auto& h = registry.histogram("qrm.hist_" + std::to_string(i));
    for (int k = 0; k < 100; ++k) h.observe(0.1 * k);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(registry.snapshot());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsSnapshot)->Unit(benchmark::kMicrosecond);

void BM_ChromeExport(benchmark::State& state) {
  obs::Tracer tracer;
  for (int job = 0; job < 100; ++job) {
    const obs::SpanHandle root =
        tracer.begin_span("job:" + std::to_string(job), double(job));
    const obs::SpanHandle child =
        tracer.begin_span("execute", double(job), tracer.context(root));
    tracer.add_event(child, double(job) + 0.5, "shot-batch-0", "64 shots");
    tracer.end_span(child, double(job) + 1.0);
    tracer.end_span(root, double(job) + 1.0);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(obs::chrome_trace_json(tracer));
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ChromeExport)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return hpcqc::bench::run_with_json(argc, argv, "BENCH_obs.json");
}
