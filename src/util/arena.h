// Chunked string arena: append-only byte storage with stable addresses.
//
// A daily snapshot holds millions of path strings; storing each in its own
// std::string would cost an allocation plus ~32 bytes of header apiece. The
// arena packs them back-to-back in large blocks and hands out string_views
// that stay valid for the arena's lifetime (blocks are never reallocated).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace spider {

class StringArena {
 public:
  static constexpr std::size_t kDefaultBlockSize = 1 << 20;  // 1 MiB

  explicit StringArena(std::size_t block_size = kDefaultBlockSize)
      : block_size_(block_size) {}

  StringArena(StringArena&&) noexcept = default;
  StringArena& operator=(StringArena&&) noexcept = default;
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// Copies `s` into the arena and returns a view of the stored copy.
  std::string_view intern(std::string_view s) {
    if (s.empty()) return {};
    char* dst = allocate(s.size());
    std::char_traits<char>::copy(dst, s.data(), s.size());
    return {dst, s.size()};
  }

  /// Concatenates two pieces into one contiguous stored string. Used by the
  /// snapshot readers to join directory prefixes with file names without a
  /// temporary.
  std::string_view intern_concat(std::string_view a, std::string_view b) {
    if (a.empty()) return intern(b);
    if (b.empty()) return intern(a);
    char* dst = allocate(a.size() + b.size());
    std::char_traits<char>::copy(dst, a.data(), a.size());
    std::char_traits<char>::copy(dst + a.size(), b.data(), b.size());
    return {dst, a.size() + b.size()};
  }

  /// Steals every block of `other`, leaving it empty. Views into either
  /// arena stay valid: blocks are moved, never copied or reallocated. The
  /// bulk-splice path of SnapshotTable uses this to merge per-shard arenas
  /// without touching a single string byte.
  void absorb(StringArena&& other) {
    if (other.blocks_.empty()) return;
    const bool same_geometry = other.block_size_ == block_size_;
    for (auto& block : other.blocks_) blocks_.push_back(std::move(block));
    // Keep appending into other's tail block only when its capacity math
    // matches ours; otherwise start fresh on the next allocate.
    used_in_block_ = same_geometry ? other.used_in_block_ : block_size_;
    bytes_used_ += other.bytes_used_;
    bytes_reserved_ += other.bytes_reserved_;
    other.blocks_.clear();
    other.used_in_block_ = 0;
    other.bytes_used_ = 0;
    other.bytes_reserved_ = 0;
  }

  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  char* allocate(std::size_t n) {
    if (n > block_size_) {
      // Oversized strings get a dedicated block, inserted *before* the
      // current block so the current block's spare capacity survives.
      auto block = std::make_unique<char[]>(n);
      char* ptr = block.get();
      // With no block yet there is no spare capacity to keep: mark the
      // (absent) current block full so the next small string opens a
      // fresh block instead of writing over this one.
      if (blocks_.empty()) used_in_block_ = block_size_;
      const std::size_t at = blocks_.empty() ? 0 : blocks_.size() - 1;
      blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(at),
                     std::move(block));
      bytes_used_ += n;
      bytes_reserved_ += n;
      return ptr;
    }
    if (blocks_.empty() || used_in_block_ + n > block_size_) {
      blocks_.push_back(std::make_unique<char[]>(block_size_));
      used_in_block_ = 0;
      bytes_reserved_ += block_size_;
    }
    char* ptr = blocks_.back().get() + used_in_block_;
    used_in_block_ += n;
    bytes_used_ += n;
    return ptr;
  }

  std::size_t block_size_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t used_in_block_ = 0;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace spider
