// 64-bit FNV-1a folds for golden-digest tests. A seeded run is reduced to
// one number that the test pins, so any change in what the run produces --
// a delivery, a timestamp, a byte of slice state -- moves the digest.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace esh::golden {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// The eight bytes of `v`, least significant first.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Length, then characters.
inline std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  h = fnv1a(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, SimTime t) {
  return fnv1a(h, static_cast<std::uint64_t>(t.count()));
}

// Length, then bytes.
inline std::uint64_t fnv1a(std::uint64_t h, std::span<const std::byte> bytes) {
  h = fnv1a(h, bytes.size());
  for (const std::byte b : bytes) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// By bit pattern: the pin holds for the exact value only.
inline std::uint64_t fnv1a_bits(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace esh::golden
