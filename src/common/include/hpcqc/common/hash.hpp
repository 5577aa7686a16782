#pragma once

#include <bit>
#include <concepts>
#include <cstdint>

namespace hpcqc {

/// Starting value of every hash built with hash_mix (the 64-bit FNV offset
/// basis).
inline constexpr std::uint64_t kHashBasis = 14695981039346656037ULL;

/// Folds one integer, widened to a 64-bit word, into `hash`:
/// `hash ^= word; hash *= prime`, with the 64-bit FNV prime. The step takes
/// a whole word at a time, not FNV-1a's byte at a time. Structural hashes,
/// compile-cache keys and replay fingerprints are all built from this one
/// step.
template <std::integral Word>
constexpr void hash_mix(std::uint64_t& hash, Word word) {
  hash ^= static_cast<std::uint64_t>(word);
  hash *= 1099511628211ULL;
}

/// Folds a double by its bit pattern, so -0.0, +0.0 and distinct NaN
/// payloads all hash apart.
constexpr void hash_mix(std::uint64_t& hash, double value) {
  hash_mix(hash, std::bit_cast<std::uint64_t>(value));
}

}  // namespace hpcqc
