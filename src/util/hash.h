// Hashing primitives shared by the engine's hash tables.
//
// The analyses join adjacent ~million-row snapshots on the path column, so
// string hashing is on the critical path. We use a simple 64-bit
// multiply-xor block hash (wyhash-style mixing, but self-contained) that is
// seed-stable across platforms — std::hash is not, and reproducibility of
// shard assignment matters for deterministic parallel aggregation output.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace spider {

/// Final avalanche mix (from MurmurHash3 / SplitMix64 family).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Slot-selection policies for the open-addressing tables (FlatMap,
/// BasicU64Set), which take the low bits of KeyMix::mix(key).
/// IdentityKeyMix is for keys that are already well mixed (path hashes,
/// hash_bytes output); FingerprintKeyMix avalanches raw ids and packed
/// pairs such as (user << 32) | project, whose low bits are dense or
/// structured.
struct IdentityKeyMix {
  static constexpr std::uint64_t mix(std::uint64_t key) { return key; }
};

struct FingerprintKeyMix {
  static constexpr std::uint64_t mix(std::uint64_t key) { return mix64(key); }
};

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 64-bit string hash: unrolled 8-byte blocks with multiply-rotate mixing,
/// tail folded in, avalanche finish. Not cryptographic; collision quality is
/// validated by tests (distribution across shards, avalanche on 1-bit
/// flips).
inline std::uint64_t hash_bytes(std::string_view s,
                                std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(s.size()) *
                            0x9e3779b97f4a7c15ULL);
  const char* p = s.data();
  std::size_t n = s.size();
  while (n >= 8) {
    h = mix64(h ^ load_u64(p));
    h *= 0x2545f4914f6cdd1dULL;
    p += 8;
    n -= 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
            << (8 * i);
  }
  h = mix64(h ^ tail);
  return mix64(h);
}

/// Combine two hashes (boost::hash_combine style but 64-bit).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4)));
}

}  // namespace spider
