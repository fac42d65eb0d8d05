// Key derivation: consistent hashing of names and values into the ring.
#pragma once

#include <cstdint>
#include <string_view>

#include "cbps/common/ring.hpp"
#include "cbps/common/sha1.hpp"
#include "cbps/common/types.hpp"

namespace cbps {

/// Consistent-hash an arbitrary string into the m-bit key space by taking
/// the leading 64 bits of its SHA-1 digest (big-endian) and reducing
/// modulo 2^m. This is how node identifiers are assigned (paper §3.1.1).
Key consistent_hash(std::string_view name, RingParams ring);

/// Hash a 64-bit integer the same way (used to reduce string attribute
/// values to numbers, paper §3.2 footnote 2).
Key consistent_hash(std::uint64_t v, RingParams ring);

/// SplitMix64 finalizer: decorrelates per-node RNG streams derived from
/// (seed, node id) — adjacent ids must not produce adjacent states.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace cbps
