// Flat open-addressing key→value tables for the aggregation layer: the
// generalization of u64set.h's design from membership to GROUP BY. Keys
// are 64-bit; values live in a parallel array so probes touch only the key
// lane (one cache line covers eight candidate slots). Two key policies:
//
//   * IdentityKeyMix — for keys that are already well-mixed (path hashes,
//     hash_bytes output). Slot selection uses the low bits directly, so
//     the top bits stay free for radix partitioning (engine/partition.h)
//     without correlation between the two.
//   * FingerprintKeyMix — for raw ids (gids, packed user pairs) whose low
//     bits are dense or structured; mix64 avalanches them first.
//
// Growth discipline (shared with the fixed U64Set): probe FIRST, grow only
// when the probe ends at a genuine insert — a duplicate-heavy stream must
// never trigger a resize, because duplicates do not add occupancy.
//
// Iteration (for_each / entries) walks the slot array in index order with
// the reserved empty key last. For a fixed insertion sequence the layout —
// and therefore the iteration order — is a pure function of the inputs,
// which is what lets the study's ordered merges stay bit-identical at any
// thread count.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/serialize.h"

namespace spider {

/// Growable open-addressing linear-probe map from 64-bit keys to V.
/// Key 0 is reserved as the empty-slot marker and handled out of line, so
/// the full key space is usable. Load factor is kept at or below 1/2.
template <typename V, typename KeyMix = IdentityKeyMix>
class FlatMap {
 public:
  /// `expected` sizes the initial allocation; 0 defers allocation to the
  /// first insert (cheap empty maps for sparse per-chunk states).
  explicit FlatMap(std::size_t expected = 0) {
    if (expected > 0) allocate(capacity_for(expected));
  }

  /// Insert-or-find: returns the value slot for `key`, default-constructing
  /// it on first insertion.
  V& slot(std::uint64_t key) {
    if (key == kEmptyKey) {
      has_empty_key_ = true;
      return empty_value_;
    }
    if (keys_.empty()) allocate(kMinCapacity);
    std::uint64_t s = KeyMix::mix(key) & mask_;
    for (;;) {
      if (keys_[s] == key) return values_[s];
      if (keys_[s] == kEmptyKey) {
        // Probe-before-grow: only a genuine insert may resize.
        if ((size_ + 1) * 2 > keys_.size()) {
          grow();
          s = place(key);
        } else {
          keys_[s] = key;
        }
        ++size_;
        return values_[s];
      }
      s = (s + 1) & mask_;
    }
  }

  V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  const V* find(std::uint64_t key) const {
    if (key == kEmptyKey) return has_empty_key_ ? &empty_value_ : nullptr;
    if (keys_.empty()) return nullptr;
    std::uint64_t s = KeyMix::mix(key) & mask_;
    for (;;) {
      if (keys_[s] == key) return &values_[s];
      if (keys_[s] == kEmptyKey) return nullptr;
      s = (s + 1) & mask_;
    }
  }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return keys_.size(); }

  /// Visits (key, value) in slot order, the reserved empty key last.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      if (keys_[s] != kEmptyKey) fn(keys_[s], values_[s]);
    }
    if (has_empty_key_) fn(kEmptyKey, empty_value_);
  }

  /// Mutable visit, same order.
  template <typename Fn>
  void for_each_mut(Fn&& fn) {
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      if (keys_[s] != kEmptyKey) fn(keys_[s], values_[s]);
    }
    if (has_empty_key_) fn(kEmptyKey, empty_value_);
  }

  void clear() {
    keys_.clear();
    values_.clear();
    mask_ = 0;
    size_ = 0;
    has_empty_key_ = false;
    empty_value_ = V{};
  }

  /// Checkpoint image: the raw key/value arrays verbatim. Iteration order
  /// is slot order and therefore layout-dependent, so preserving the
  /// layout byte-for-byte is what keeps a resumed study's ordered folds —
  /// and hence its rendered output — identical to the uninterrupted run.
  /// Requires a trivially-copyable V (all checkpointed maps qualify).
  void save_state(StateWriter& w) const {
    w.vec(keys_);
    w.vec(values_);
    w.u64(size_);
    w.u8(has_empty_key_ ? 1 : 0);
    w.pod(empty_value_);
  }
  bool load_state(StateReader& r) {
    if (!r.vec(&keys_) || !r.vec(&values_)) return false;
    size_ = static_cast<std::size_t>(r.u64());
    has_empty_key_ = r.u8() != 0;
    if (!r.pod(&empty_value_) || !r.ok()) return false;
    if (keys_.size() != values_.size()) return false;
    if (keys_.empty()) {
      mask_ = 0;
      return size_ == 0;
    }
    if ((keys_.size() & (keys_.size() - 1)) != 0 || size_ * 2 > keys_.size()) {
      return false;
    }
    mask_ = keys_.size() - 1;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmptyKey = 0;
  static constexpr std::size_t kMinCapacity = 16;

  static std::size_t capacity_for(std::size_t expected) {
    return std::bit_ceil(std::max<std::size_t>(expected * 2, kMinCapacity));
  }

  void allocate(std::size_t capacity) {
    keys_.assign(capacity, kEmptyKey);
    values_.assign(capacity, V{});
    mask_ = capacity - 1;
  }

  /// Probes for the empty slot of a key known to be absent and claims it.
  std::uint64_t place(std::uint64_t key) {
    std::uint64_t s = KeyMix::mix(key) & mask_;
    while (keys_[s] != kEmptyKey) s = (s + 1) & mask_;
    keys_[s] = key;
    return s;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys;
    std::vector<V> old_values;
    old_keys.swap(keys_);
    old_values.swap(values_);
    allocate(old_keys.size() * 2);
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] == kEmptyKey) continue;
      values_[place(old_keys[s])] = std::move(old_values[s]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
  V empty_value_{};
};

/// Count map over 64-bit keys — the GROUP BY accumulator.
template <typename KeyMix = IdentityKeyMix>
class BasicFlatCountMap : public FlatMap<std::uint64_t, KeyMix> {
 public:
  using FlatMap<std::uint64_t, KeyMix>::FlatMap;

  void add(std::uint64_t key, std::uint64_t weight = 1) {
    this->slot(key) += weight;
  }

  std::uint64_t count(std::uint64_t key) const {
    const std::uint64_t* v = this->find(key);
    return v == nullptr ? 0 : *v;
  }
};

/// For pre-mixed keys (path hashes); the default in the study pipeline.
using FlatCountMap = BasicFlatCountMap<IdentityKeyMix>;
/// For raw ids (gids, packed pairs) that need avalanching first.
using FlatCountMapRaw = BasicFlatCountMap<FingerprintKeyMix>;

/// Serial fold of `from` into `into`; addition commutes, so callers may
/// fold partials in any fixed order (the study folds in chunk order).
template <typename KeyMix>
void merge_flat_counts(BasicFlatCountMap<KeyMix>& into,
                       const BasicFlatCountMap<KeyMix>& from) {
  from.for_each(
      [&into](std::uint64_t key, std::uint64_t count) { into.add(key, count); });
}

}  // namespace spider
