// Columnar in-memory snapshot: structure-of-arrays storage for millions of
// records, the unit every analysis and format codec operates on.
//
// Layout choices mirror the paper's Parquet conversion rationale: analyses
// touch a few columns at a time (timestamps for access patterns, paths for
// depth/extension, OST lists for striping), so column-contiguous storage
// keeps scans cache-friendly. Paths live in a StringArena; OST lists are
// CSR-packed (offsets + values). Path hashes and depths are precomputed on
// append because the diff join and the depth analyses both need them for
// every row.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "snapshot/record.h"
#include "util/arena.h"
#include "util/hash.h"

namespace spider {

/// Bitmask over the table's physical columns, used for projection pushdown:
/// analyzers declare the columns they read, the decoder skips the rest
/// (ScolOptions::columns). Paths cover the derived path_hash/depth columns
/// too — they are computed from the path on append.
using ColumnMask = std::uint32_t;
inline constexpr ColumnMask kColMaskNone = 0;
inline constexpr ColumnMask kColMaskPaths = 1u << 0;
inline constexpr ColumnMask kColMaskAtime = 1u << 1;
inline constexpr ColumnMask kColMaskCtime = 1u << 2;
inline constexpr ColumnMask kColMaskMtime = 1u << 3;
inline constexpr ColumnMask kColMaskUid = 1u << 4;
inline constexpr ColumnMask kColMaskGid = 1u << 5;
inline constexpr ColumnMask kColMaskMode = 1u << 6;
inline constexpr ColumnMask kColMaskInode = 1u << 7;
inline constexpr ColumnMask kColMaskOsts = 1u << 8;
inline constexpr ColumnMask kColMaskAll = (1u << 9) - 1;

class SnapshotTable {
 public:
  SnapshotTable() { ost_offsets_.push_back(0); }

  SnapshotTable(SnapshotTable&&) noexcept = default;
  SnapshotTable& operator=(SnapshotTable&&) noexcept = default;
  SnapshotTable(const SnapshotTable&) = delete;
  SnapshotTable& operator=(const SnapshotTable&) = delete;

  void reserve(std::size_t rows);

  /// Appends a record; returns its row index.
  std::uint32_t add(const RawRecord& rec) {
    return add(rec.path, rec.atime, rec.ctime, rec.mtime, rec.uid, rec.gid,
               rec.mode, rec.inode, rec.osts);
  }

  std::uint32_t add(std::string_view path, std::int64_t atime,
                    std::int64_t ctime, std::int64_t mtime, std::uint32_t uid,
                    std::uint32_t gid, std::uint32_t mode, std::uint64_t inode,
                    std::span<const std::uint32_t> osts) {
    return add_stored(arena_.intern(path), path_depth(path), atime, ctime,
                      mtime, uid, gid, mode, inode, osts);
  }

  /// The decoder's append: `stored` is already a view into an arena the
  /// caller hands over with adopt_paths() once its whole batch of rows has
  /// decoded, and `depth` is path_depth(stored), derived by the caller.
  /// Only the hash is computed here. A batch that fails before adoption
  /// never reaches this table, so a failed decode leaves it untouched.
  std::uint32_t add_stored(std::string_view stored, std::size_t depth,
                           std::int64_t atime, std::int64_t ctime,
                           std::int64_t mtime, std::uint32_t uid,
                           std::uint32_t gid, std::uint32_t mode,
                           std::uint64_t inode,
                           std::span<const std::uint32_t> osts);

  /// Takes ownership of the arena behind add_stored() rows. Blocks move
  /// wholesale, so every view already appended stays valid.
  void adopt_paths(StringArena&& arena) { arena_.absorb(std::move(arena)); }

  /// Splices every row of `other` onto the end of this table, preserving
  /// order, and leaves `other` empty. Arena blocks move wholesale (no string
  /// copies, precomputed hashes/depths carry over) and the CSR OST columns
  /// merge with one rebased offset pass — no per-row add() overhead. This is
  /// the staging-table merge path of the parallel .scol and PSV readers.
  void append_table(SnapshotTable&& other);

  std::size_t size() const { return atime_.size(); }
  bool empty() const { return atime_.empty(); }

  // Row accessors.
  std::string_view path(std::size_t i) const { return paths_[i]; }
  std::int64_t atime(std::size_t i) const { return atime_[i]; }
  std::int64_t ctime(std::size_t i) const { return ctime_[i]; }
  std::int64_t mtime(std::size_t i) const { return mtime_[i]; }
  std::uint32_t uid(std::size_t i) const { return uid_[i]; }
  std::uint32_t gid(std::size_t i) const { return gid_[i]; }
  std::uint32_t mode(std::size_t i) const { return mode_[i]; }
  std::uint64_t inode(std::size_t i) const { return inode_[i]; }
  bool is_dir(std::size_t i) const { return mode_is_dir(mode_[i]); }
  std::uint64_t path_hash(std::size_t i) const { return path_hash_[i]; }
  std::uint16_t depth(std::size_t i) const { return depth_[i]; }

  std::span<const std::uint32_t> osts(std::size_t i) const {
    return std::span<const std::uint32_t>(ost_values_)
        .subspan(ost_offsets_[i], ost_offsets_[i + 1] - ost_offsets_[i]);
  }
  std::uint32_t stripe_count(std::size_t i) const {
    return ost_offsets_[i + 1] - ost_offsets_[i];
  }

  /// Materializes row i as a RawRecord (format writers, tests).
  RawRecord row(std::size_t i) const;

  // Column accessors for whole-column scans.
  std::span<const std::int64_t> atimes() const { return atime_; }
  std::span<const std::int64_t> ctimes() const { return ctime_; }
  std::span<const std::int64_t> mtimes() const { return mtime_; }
  std::span<const std::uint32_t> uids() const { return uid_; }
  std::span<const std::uint32_t> gids() const { return gid_; }
  std::span<const std::uint32_t> modes() const { return mode_; }
  std::span<const std::uint64_t> inodes() const { return inode_; }
  std::span<const std::uint64_t> path_hashes() const { return path_hash_; }
  std::span<const std::uint16_t> depths() const { return depth_; }

  std::size_t file_count() const { return file_count_; }
  std::size_t dir_count() const { return size() - file_count_; }

  /// Approximate heap footprint, for the format-comparison benchmarks.
  std::size_t memory_bytes() const;

  /// Deep copy (tables are move-only; the copy constructor is deleted so
  /// accidental O(n) copies never hide in pass-by-value). Only fallback
  /// paths pay this — the study runner retains snapshots by move or by
  /// stable pointer.
  SnapshotTable clone() const;

  /// Empties the table for reuse as a staging buffer. Column vectors keep
  /// their capacity (the streaming reader recycles one staging table per
  /// ring slot, so steady-state decode does no column reallocation); the
  /// path arena is released — its views die with the rows anyway.
  void clear();

 private:
  StringArena arena_;
  std::vector<std::string_view> paths_;
  std::vector<std::uint64_t> path_hash_;
  std::vector<std::uint16_t> depth_;
  std::vector<std::int64_t> atime_, ctime_, mtime_;
  std::vector<std::uint32_t> uid_, gid_, mode_;
  std::vector<std::uint64_t> inode_;
  std::vector<std::uint32_t> ost_offsets_;  // size() + 1 entries
  std::vector<std::uint32_t> ost_values_;
  std::size_t file_count_ = 0;
};

}  // namespace spider
