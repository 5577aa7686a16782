// The compile-worker pool and the thread-safe structure cache under real
// concurrency: MPMC draining, inline fallback at zero workers, single-flight
// dedup, LRU eviction order, prefetch stats invariance, and exception
// propagation. The CompileFarm / StructureCache suites run under tsan in CI
// (see CMakePresets.json) — keep all cross-thread traffic data-race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/mqss/compile_farm.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/mqss/structure_cache.hpp"
#include "hpcqc/qdmi/model_device.hpp"

namespace hpcqc::mqss {
namespace {

StructureCache::Value make_value() {
  return std::make_shared<const CompiledTemplate>();
}

TEST(CompileFarm, DrainsEveryTaskAcrossWorkers) {
  std::atomic<int> executed{0};
  {
    CompileFarm farm(4);
    EXPECT_EQ(farm.worker_count(), 4u);
    for (int i = 0; i < 200; ++i)
      farm.enqueue([&executed] { executed.fetch_add(1); });
    farm.wait_idle();
    EXPECT_EQ(executed.load(), 200);
    EXPECT_EQ(farm.tasks_executed(), 200u);
    // Per-worker counters partition the total.
    std::uint64_t sum = 0;
    for (const auto n : farm.per_worker_executed()) sum += n;
    EXPECT_EQ(sum, 200u);
  }
}

TEST(CompileFarm, ZeroWorkersRunsInlineOnTheCallingThread) {
  CompileFarm farm(0);
  EXPECT_EQ(farm.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  farm.enqueue([&ran_on] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  farm.wait_idle();  // trivially idle
  EXPECT_EQ(farm.tasks_executed(), 1u);
  ASSERT_EQ(farm.per_worker_executed().size(), 1u);
  EXPECT_EQ(farm.per_worker_executed()[0], 1u);
}

TEST(CompileFarm, DestructorDrainsTheQueue) {
  std::atomic<int> executed{0};
  {
    CompileFarm farm(2);
    for (int i = 0; i < 50; ++i)
      farm.enqueue([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1);
      });
    // No wait_idle(): the destructor must finish the backlog, not drop it.
  }
  EXPECT_EQ(executed.load(), 50);
}

TEST(CompileFarm, WaitIdleIsABarrierForInFlightTasks) {
  CompileFarm farm(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 30; ++i)
    farm.enqueue([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  farm.wait_idle();
  EXPECT_EQ(done.load(), 30);
  // Idle farm: wait_idle() returns immediately and can repeat.
  farm.wait_idle();
  EXPECT_EQ(farm.tasks_executed(), 30u);
}

TEST(CompileFarm, RejectsNullTasks) {
  CompileFarm farm(1);
  EXPECT_THROW(farm.enqueue({}), PreconditionError);
}

TEST(StructureCache, HitMissAndLruEvictionOrder) {
  StructureCache cache(2);
  int compiles = 0;
  const auto factory = [&compiles] {
    ++compiles;
    return make_value();
  };
  EXPECT_FALSE(cache.get_or_compile(1, factory).hit);
  EXPECT_FALSE(cache.get_or_compile(2, factory).hit);
  EXPECT_TRUE(cache.get_or_compile(1, factory).hit);  // 1 is now MRU
  EXPECT_FALSE(cache.get_or_compile(3, factory).hit);  // evicts 2, not 1
  EXPECT_TRUE(cache.get_or_compile(1, factory).hit);
  EXPECT_FALSE(cache.get_or_compile(2, factory).hit);  // 2 was the victim
  EXPECT_EQ(compiles, 4);

  const StructureCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 6.0);
}

TEST(StructureCache, ShrinkingCapacityEvictsImmediately) {
  StructureCache cache(4);
  for (std::uint64_t key = 0; key < 4; ++key)
    cache.get_or_compile(key, make_value);
  EXPECT_EQ(cache.stats().size, 4u);
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  // The survivor is the most recently used key.
  EXPECT_TRUE(cache.get_or_compile(3, make_value).hit);
  EXPECT_THROW(cache.set_capacity(0), PreconditionError);
}

TEST(StructureCache, SingleFlightCompilesOnceUnderContention) {
  StructureCache cache(8);
  std::atomic<int> factory_runs{0};
  const auto slow_factory = [&factory_runs] {
    factory_runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return make_value();
  };

  constexpr int kThreads = 8;
  std::vector<StructureCache::Value> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_compile(42, slow_factory).value;
    });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(factory_runs.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
  const StructureCacheStats stats = cache.stats();
  // Whoever arrived while the flight was open joined it; everyone who paid
  // (or waited for) the compile counts a miss.
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.single_flight_joins,
            stats.misses - static_cast<std::uint64_t>(factory_runs.load()));
}

TEST(StructureCache, FactoryExceptionReachesEveryWaiterAndCachesNothing) {
  StructureCache cache(8);
  std::atomic<int> factory_runs{0};
  const auto throwing_factory = [&factory_runs]() -> StructureCache::Value {
    factory_runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    throw PreconditionError("deliberate compile failure");
  };

  constexpr int kThreads = 4;
  std::atomic<int> caught{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      try {
        cache.get_or_compile(7, throwing_factory);
      } catch (const PreconditionError&) {
        caught.fetch_add(1);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(caught.load(), kThreads);
  EXPECT_EQ(cache.stats().size, 0u);

  // The failure was not cached: the next get retries the factory.
  EXPECT_FALSE(cache.get_or_compile(7, make_value).hit);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(StructureCache, PrefetchKeepsStatsIdenticalToColdLookups) {
  // Path A: plain miss.
  StructureCache cold(8);
  cold.get_or_compile(5, make_value);
  cold.get_or_compile(5, make_value);

  // Path B: background prefetch first. The first foreground get still
  // counts the miss (the work was paid for on its behalf), so stats agree.
  StructureCache warmed(8);
  warmed.prefetch(5, make_value);
  EXPECT_EQ(warmed.stats().hits, 0u);
  EXPECT_EQ(warmed.stats().misses, 0u);
  EXPECT_EQ(warmed.stats().size, 1u);
  EXPECT_FALSE(warmed.get_or_compile(5, make_value).hit);
  EXPECT_TRUE(warmed.get_or_compile(5, make_value).hit);

  EXPECT_EQ(cold.stats().hits, warmed.stats().hits);
  EXPECT_EQ(cold.stats().misses, warmed.stats().misses);
  EXPECT_EQ(cold.stats().size, warmed.stats().size);
}

TEST(StructureCache, PrefetchSwallowsFactoryExceptions) {
  StructureCache cache(8);
  EXPECT_NO_THROW(cache.prefetch(9, []() -> StructureCache::Value {
    throw PreconditionError("background failure stays in the background");
  }));
  EXPECT_EQ(cache.stats().size, 0u);
  // Foreground get recompiles and succeeds.
  EXPECT_FALSE(cache.get_or_compile(9, make_value).hit);
}

TEST(StructureCache, PrefetchIsIdempotentWhileCachedOrInFlight) {
  StructureCache cache(8);
  int compiles = 0;
  const auto counting = [&compiles] {
    ++compiles;
    return make_value();
  };
  // resident() reports exactly the skip condition: in flight while the
  // factory runs, cached after, and gone once evicted.
  EXPECT_FALSE(cache.resident(11));
  bool in_flight = false;
  cache.prefetch(11, [&] {
    in_flight = cache.resident(11);
    return counting();
  });
  EXPECT_TRUE(in_flight);
  EXPECT_TRUE(cache.resident(11));
  cache.prefetch(11, counting);  // already cached: no recompile
  EXPECT_EQ(compiles, 1);
  cache.get_or_compile(11, counting);
  cache.prefetch(11, counting);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(cache.stats().misses, 1u);  // resident() counts nothing
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.set_capacity(1);
  cache.prefetch(12, counting);  // evicts 11
  EXPECT_FALSE(cache.resident(11));
  EXPECT_TRUE(cache.resident(12));
}

TEST(StructureCache, FarmPrefetchesLandDeterministicallyForForegroundGets) {
  // The integration shape: a farm fills the cache in the background while
  // the foreground thread does get_or_compile on the same keys. Stats must
  // come out as if the foreground had done all the work itself.
  constexpr std::uint64_t kKeys = 24;
  const auto run = [](std::size_t workers) {
    StructureCache cache(64);
    CompileFarm farm(workers);
    for (std::uint64_t key = 0; key < kKeys; ++key)
      farm.enqueue([&cache, key] { cache.prefetch(key, make_value); });
    farm.wait_idle();
    for (std::uint64_t key = 0; key < kKeys; ++key)
      cache.get_or_compile(key, make_value);
    for (std::uint64_t key = 0; key < kKeys; ++key)
      cache.get_or_compile(key, make_value);
    return cache.stats();
  };
  const StructureCacheStats serial = run(0);
  const StructureCacheStats threaded = run(6);
  EXPECT_EQ(serial.hits, threaded.hits);
  EXPECT_EQ(serial.misses, threaded.misses);
  EXPECT_EQ(serial.evictions, threaded.evictions);
  EXPECT_EQ(serial.size, threaded.size);
  EXPECT_EQ(serial.misses, kKeys);
  EXPECT_EQ(serial.hits, kKeys);
}

TEST(StructureCache, EvictionRacesSingleFlightJoinWithoutLosingResults) {
  // A tiny capacity keeps the LRU under constant eviction pressure while
  // farm prefetches and foreground readers join the same keys' in-flight
  // compiles. Every lookup must still produce a value (an evicted entry is
  // recompiled, never handed out null), and the cache must respect its
  // capacity afterwards. Runs under tsan in CI.
  StructureCache cache(2);
  std::atomic<int> factory_runs{0};
  const auto slow_factory = [&factory_runs] {
    factory_runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return make_value();
  };
  constexpr std::uint64_t kKeys = 8;
  std::atomic<int> null_results{0};
  {
    CompileFarm farm(4);
    for (int round = 0; round < 25; ++round)
      for (std::uint64_t key = 0; key < kKeys; ++key)
        farm.enqueue(
            [&cache, &slow_factory, key] { cache.prefetch(key, slow_factory); });
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
      readers.emplace_back([&cache, &slow_factory, &null_results] {
        for (int round = 0; round < 50; ++round)
          for (std::uint64_t key = 0; key < kKeys; ++key)
            if (cache.get_or_compile(key, slow_factory).value == nullptr)
              null_results.fetch_add(1);
      });
    for (auto& reader : readers) reader.join();
    farm.wait_idle();
  }
  EXPECT_EQ(null_results.load(), 0);
  const StructureCacheStats stats = cache.stats();
  EXPECT_LE(stats.size, 2u);
  EXPECT_GT(stats.evictions, 0u);
  // Single-flight dedup: joiners record misses without running the
  // factory, so compiles never exceed recorded misses.
  EXPECT_GT(factory_runs.load(), 0);
  EXPECT_LE(static_cast<std::uint64_t>(factory_runs.load()), stats.misses);
}

TEST(StructureCache, DeviceIdentityPartitionsServiceCacheKeys) {
  // Fleet serving compiles one structural hash against N devices; the
  // per-device identity salt must key disjoint entries, so a service
  // re-pointed at another identity can never resurrect placements compiled
  // for the first device.
  Rng rng(7);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi(device, clock);
  QpuService service(device, qdmi, rng);
  service.set_device_identity("qpu0");

  circuit::ParametricCircuit ansatz(3);
  ansatz.h(0).ry(circuit::ParamExpr::symbol("a"), 1).cz(0, 1).measure();

  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_misses(), 1u);
  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_stats().hits, 1u);

  // Same device state, same options, same structural hash — a different
  // identity still misses and compiles its own entry.
  service.set_device_identity("qpu1");
  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_misses(), 2u);
  EXPECT_EQ(service.cache_size(), 2u);

  // Restoring the identity restores its entry: the key is a pure function
  // of (structure, device state, options, identity).
  service.set_device_identity("qpu0");
  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_stats().hits, 2u);
  EXPECT_EQ(service.cache_size(), 2u);
}

}  // namespace
}  // namespace hpcqc::mqss
