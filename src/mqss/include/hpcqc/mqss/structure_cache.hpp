#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "hpcqc/mqss/template.hpp"

namespace hpcqc::mqss {

/// Point-in-time statistics of a StructureCache. Hits and misses count
/// get_or_compile() calls (a get that joins an in-flight compile, or that
/// first touches a prefetched entry, is a miss: the work was paid for on
/// its behalf this epoch). Prefetches never count — whether a background
/// compile finishes before the foreground get must not change the stats.
struct StructureCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Misses that joined a compile already in flight under the same key
  /// instead of starting their own (single-flight dedup).
  std::uint64_t single_flight_joins = 0;
  std::size_t size = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe, LRU-evicting, content-addressed store for structure-phase
/// compilation artifacts. Keys are the caller's content hash (circuit
/// structure x calibration epoch x health-mask fingerprint x compiler
/// options — see QpuService); values are immutable shared templates.
///
/// Single-flight: N concurrent get_or_compile() calls under one key run the
/// factory exactly once — the first caller compiles, the rest block on its
/// result. A factory exception propagates to every waiter of that flight
/// and caches nothing. prefetch() runs the same protocol from a background
/// worker without blocking stats or LRU order on worker timing.
class StructureCache {
public:
  explicit StructureCache(std::size_t capacity = 256);

  using Value = std::shared_ptr<const CompiledTemplate>;
  using Factory = std::function<Value()>;

  struct Lookup {
    Value value;
    bool hit = false;
  };

  /// Returns the cached template for `key`, compiling via `factory` on a
  /// miss. Blocks when another thread is already compiling `key`.
  Lookup get_or_compile(std::uint64_t key, const Factory& factory);

  /// Background fill: compiles `key` via `factory` unless it is already
  /// cached or in flight. Exceptions are swallowed (the foreground get
  /// will recompile and surface them on its own thread). The first
  /// get_or_compile() to touch a prefetched entry still counts a miss, so
  /// hit/miss statistics are identical at any worker count.
  void prefetch(std::uint64_t key, const Factory& factory);

  /// True when `key` is cached or in flight — exactly when prefetch()
  /// would return without compiling. Touches neither LRU order nor stats.
  bool resident(std::uint64_t key) const;

  /// Capacity must be positive; shrinking evicts least-recently-used
  /// entries immediately.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  void clear();
  StructureCacheStats stats() const;

private:
  struct Entry {
    Value value;
    /// Filled by prefetch and not yet claimed by a get (see prefetch()).
    bool prefetched = false;
    std::list<std::uint64_t>::iterator lru;
  };

  /// Evicts past capacity; requires the lock.
  void evict_excess_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Most-recently-used at the front.
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<std::uint64_t, std::shared_future<Value>> inflight_;
  StructureCacheStats stats_;
};

}  // namespace hpcqc::mqss
