// U64Set: a growable open-addressing set of 64-bit keys, used to count
// distinct paths across the whole 72-week series (Fig 7/8's "unique files
// and directories" census: ~4 billion at full scale, millions at bench
// scale). Path-hash keys are already well mixed, so U64Set selects slots
// by identity with linear probing — fast and collision-safe at the study's
// scale (expected false-merge count for 10M keys over a 64-bit space:
// ~3e-6). Structured keys such as (user << 32) | project must use
// U64SetRaw instead: `key & mask` would drop every user bit and put all
// members of a project on one probe chain.
#pragma once

#include <cstdint>
#include <vector>

#include "util/hash.h"
#include "util/serialize.h"

namespace spider {

template <typename KeyMix = IdentityKeyMix>
class BasicU64Set {
 public:
  explicit BasicU64Set(std::size_t expected = 16) {
    std::size_t capacity = 16;
    while (capacity < expected * 2) capacity <<= 1;
    slots_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
  }

  /// Inserts `key`; returns true when the key was not present before.
  /// Probe-before-grow: the duplicate check runs first, so a duplicate-heavy
  /// stream never resizes the table (duplicates add no occupancy).
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      const bool fresh = !has_empty_key_;
      has_empty_key_ = true;
      return fresh;
    }
    std::uint64_t slot = KeyMix::mix(key) & mask_;
    for (;;) {
      if (slots_[slot] == kEmpty) break;
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & mask_;
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      grow();
      slot = place(key);
    } else {
      slots_[slot] = key;
    }
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    std::uint64_t slot = KeyMix::mix(key) & mask_;
    for (;;) {
      if (slots_[slot] == kEmpty) return false;
      if (slots_[slot] == key) return true;
      slot = (slot + 1) & mask_;
    }
  }

  std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  std::size_t capacity() const { return slots_.size(); }

  /// Checkpoint image: the raw slot array verbatim, so a restored set is
  /// structurally indistinguishable from the original (DESIGN.md §14).
  void save_state(StateWriter& w) const {
    w.vec(slots_);
    w.u64(size_);
    w.u8(has_empty_key_ ? 1 : 0);
  }
  /// Restores a save_state image; false (set unusable until reassigned)
  /// when the payload is short or violates the structural invariants.
  bool load_state(StateReader& r) {
    if (!r.vec(&slots_)) return false;
    size_ = static_cast<std::size_t>(r.u64());
    has_empty_key_ = r.u8() != 0;
    if (!r.ok()) return false;
    if (slots_.empty() || (slots_.size() & (slots_.size() - 1)) != 0 ||
        size_ * 2 > slots_.size()) {
      return false;
    }
    mask_ = slots_.size() - 1;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  /// Probes for the empty slot of a key known to be absent and claims it.
  std::uint64_t place(std::uint64_t key) {
    std::uint64_t slot = KeyMix::mix(key) & mask_;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
    slots_[slot] = key;
    return slot;
  }

  void grow() {
    std::vector<std::uint64_t> old;
    old.swap(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (const std::uint64_t key : old) {
      if (key != kEmpty) place(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

/// Set of already-mixed keys (path hashes).
using U64Set = BasicU64Set<IdentityKeyMix>;
/// Set of raw or packed ids; slots come from mix64(key).
using U64SetRaw = BasicU64Set<FingerprintKeyMix>;

}  // namespace spider
