#include "hpcqc/mqss/structure_cache.hpp"

#include "hpcqc/common/error.hpp"

namespace hpcqc::mqss {

StructureCache::StructureCache(std::size_t capacity) : capacity_(capacity) {
  expects(capacity > 0, "StructureCache: capacity must be positive");
}

void StructureCache::evict_excess_locked() {
  while (entries_.size() > capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  stats_.size = entries_.size();
}

StructureCache::Lookup StructureCache::get_or_compile(
    std::uint64_t key, const Factory& factory) {
  std::promise<Value> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      // A prefetched entry's first get still counts a miss: the structure
      // compile happened on this key's behalf since the last get, and
      // counting it a hit would make stats depend on worker timing.
      const bool was_prefetched = it->second.prefetched;
      it->second.prefetched = false;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      if (was_prefetched) {
        ++stats_.misses;
      } else {
        ++stats_.hits;
      }
      return {it->second.value, !was_prefetched};
    }
    const auto flight = inflight_.find(key);
    if (flight != inflight_.end()) {
      ++stats_.misses;
      ++stats_.single_flight_joins;
      std::shared_future<Value> future = flight->second;
      lock.unlock();
      Value value = future.get();  // rethrows the compiler's exception
      std::lock_guard<std::mutex> relock(mutex_);
      const auto done = entries_.find(key);
      if (done != entries_.end()) done->second.prefetched = false;
      return {std::move(value), false};
    }
    ++stats_.misses;
    inflight_.emplace(key, promise.get_future().share());
  }

  Value value;
  try {
    value = factory();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    lru_.push_front(key);
    entries_[key] = Entry{value, false, lru_.begin()};
    evict_excess_locked();
  }
  promise.set_value(value);
  return {std::move(value), false};
}

void StructureCache::prefetch(std::uint64_t key, const Factory& factory) {
  std::promise<Value> promise;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.contains(key) || inflight_.contains(key)) return;
    inflight_.emplace(key, promise.get_future().share());
  }
  Value value;
  try {
    value = factory();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    // Waiters joined to this flight see the exception; nobody else does —
    // the next foreground get recompiles and throws on its own thread.
    promise.set_exception(std::current_exception());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    lru_.push_front(key);
    entries_[key] = Entry{value, true, lru_.begin()};
    evict_excess_locked();
  }
  promise.set_value(std::move(value));
}

bool StructureCache::resident(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.contains(key) || inflight_.contains(key);
}

void StructureCache::set_capacity(std::size_t capacity) {
  expects(capacity > 0, "StructureCache: capacity must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  evict_excess_locked();
}

std::size_t StructureCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void StructureCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.size = 0;
}

StructureCacheStats StructureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace hpcqc::mqss
