// Bounds-checked binary state serialization for the checkpoint layer
// (DESIGN.md §14): StateWriter appends primitives to a byte buffer,
// StateReader parses them back with every read validated against the
// remaining span — a truncated or hostile payload turns the reader
// permanently !ok() instead of reading out of bounds.
//
// Scalars are little-endian (matching the .scol framing); bulk vectors of
// padding-free elements are raw memcpy. Checkpoints are host-local
// artifacts — written and resumed on the same machine between crashes —
// so cross-endian portability is explicitly out of scope, and the format
// version in the enclosing .sckpt header guards against skew.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace spider {

/// Types pod()/vec() may copy as raw bytes. Every byte of the object must
/// be a value byte: uninitialized padding would land in the checkpoint,
/// and two runs of the same study would write different files. Integers
/// qualify by themselves; floating point has no padding but no unique
/// representation either (-0.0 vs 0.0), so it is admitted by name. A
/// padding-free aggregate holding floating point opts in with a
/// specialization whose value is its size check, next to its definition:
///
///   template <>
///   inline constexpr bool kRawSerializable<Point> =
///       sizeof(Point) == sizeof(std::int64_t) + sizeof(double);
///
/// Anything else (a struct with a bool member, say) is written field by
/// field.
template <typename T>
inline constexpr bool kRawSerializable =
    std::has_unique_object_representations_v<T> ||
    std::is_floating_point_v<T>;

class StateWriter {
 public:
  explicit StateWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern: doubles round-trip bit-for-bit, which the
  /// byte-identical resume guarantee requires.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(std::span<const std::uint8_t> b) {
    u64(b.size());
    out_->insert(out_->end(), b.begin(), b.end());
  }
  void str(std::string_view s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Raw image of one padding-free value (fixed size, no prefix).
  template <typename T>
  void pod(const T& v) {
    static_assert(kRawSerializable<T>, "serialize field by field");
    const std::size_t at = out_->size();
    out_->resize(at + sizeof(T));
    std::memcpy(out_->data() + at, &v, sizeof(T));
  }

  /// Length-prefixed raw image of a padding-free element vector.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(kRawSerializable<T>, "serialize field by field");
    u64(v.size());
    const std::size_t n = v.size() * sizeof(T);
    const std::size_t at = out_->size();
    out_->resize(at + n);
    if (n > 0) std::memcpy(out_->data() + at, v.data(), n);
  }

  /// Count-prefixed vector of vectors (each inner one length-prefixed).
  template <typename T>
  void vec2(const std::vector<std::vector<T>>& v) {
    u64(v.size());
    for (const std::vector<T>& inner : v) vec(inner);
  }

  std::vector<std::uint8_t>* out() { return out_; }

 private:
  std::vector<std::uint8_t>* out_;
};

class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> in) : in_(in) {}

  bool ok() const { return ok_; }
  /// True when every byte was consumed — load paths check this to reject
  /// payloads with trailing garbage.
  bool exhausted() const { return ok_ && pos_ == in_.size(); }
  std::size_t remaining() const { return in_.size() - pos_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return in_[pos_ - 1];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  bool bytes(std::vector<std::uint8_t>* out) {
    const std::uint64_t n = u64();
    if (!take(n)) return false;
    out->assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_ - n),
                in_.begin() + static_cast<std::ptrdiff_t>(pos_));
    return true;
  }
  bool str(std::string* out) {
    const std::uint64_t n = u64();
    if (!take(n)) return false;
    out->assign(reinterpret_cast<const char*>(in_.data()) + (pos_ - n), n);
    return true;
  }

  template <typename T>
  bool pod(T* out) {
    static_assert(kRawSerializable<T>, "serialize field by field");
    if (!take(sizeof(T))) return false;
    std::memcpy(out, in_.data() + pos_ - sizeof(T), sizeof(T));
    return true;
  }

  template <typename T>
  bool vec(std::vector<T>* out) {
    static_assert(kRawSerializable<T>, "serialize field by field");
    const std::uint64_t count = u64();
    // Overflow-safe size check before multiplying.
    if (!ok_ || count > remaining() / sizeof(T)) return fail();
    const std::size_t n = static_cast<std::size_t>(count) * sizeof(T);
    take(n);
    out->resize(static_cast<std::size_t>(count));
    if (n > 0) std::memcpy(out->data(), in_.data() + pos_ - n, n);
    return true;
  }

  template <typename T>
  bool vec2(std::vector<std::vector<T>>* out) {
    const std::uint64_t count = u64();
    // Every inner vector carries at least its 8-byte count.
    if (!ok_ || count > remaining() / 8) return fail();
    out->assign(static_cast<std::size_t>(count), {});
    for (std::vector<T>& inner : *out) {
      if (!vec(&inner)) return false;
    }
    return true;
  }

 private:
  bool take(std::uint64_t n) {
    if (!ok_ || n > in_.size() - pos_) return fail();
    pos_ += static_cast<std::size_t>(n);
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace spider
