#include "snapshot/table.h"

#include <algorithm>
#include <limits>

namespace spider {

void SnapshotTable::reserve(std::size_t rows) {
  paths_.reserve(rows);
  path_hash_.reserve(rows);
  depth_.reserve(rows);
  atime_.reserve(rows);
  ctime_.reserve(rows);
  mtime_.reserve(rows);
  uid_.reserve(rows);
  gid_.reserve(rows);
  mode_.reserve(rows);
  inode_.reserve(rows);
  ost_offsets_.reserve(rows + 1);
}

std::uint32_t SnapshotTable::add_stored(
    std::string_view stored, std::size_t depth, std::int64_t atime,
    std::int64_t ctime, std::int64_t mtime, std::uint32_t uid,
    std::uint32_t gid, std::uint32_t mode, std::uint64_t inode,
    std::span<const std::uint32_t> osts) {
  const std::uint32_t row = static_cast<std::uint32_t>(size());
  paths_.push_back(stored);
  path_hash_.push_back(hash_bytes(stored));
  depth_.push_back(static_cast<std::uint16_t>(
      std::min<std::size_t>(depth, std::numeric_limits<std::uint16_t>::max())));
  atime_.push_back(atime);
  ctime_.push_back(ctime);
  mtime_.push_back(mtime);
  uid_.push_back(uid);
  gid_.push_back(gid);
  mode_.push_back(mode);
  inode_.push_back(inode);
  ost_values_.insert(ost_values_.end(), osts.begin(), osts.end());
  ost_offsets_.push_back(static_cast<std::uint32_t>(ost_values_.size()));
  if (mode_is_regular(mode)) ++file_count_;
  return row;
}

void SnapshotTable::append_table(SnapshotTable&& other) {
  if (other.empty()) return;
  if (empty()) {
    // Whole-table move: the common case when decode staged exactly one
    // group into a fresh destination.
    *this = std::move(other);
    other = SnapshotTable();
    return;
  }
  arena_.absorb(std::move(other.arena_));
  paths_.insert(paths_.end(), other.paths_.begin(), other.paths_.end());
  path_hash_.insert(path_hash_.end(), other.path_hash_.begin(),
                    other.path_hash_.end());
  depth_.insert(depth_.end(), other.depth_.begin(), other.depth_.end());
  atime_.insert(atime_.end(), other.atime_.begin(), other.atime_.end());
  ctime_.insert(ctime_.end(), other.ctime_.begin(), other.ctime_.end());
  mtime_.insert(mtime_.end(), other.mtime_.begin(), other.mtime_.end());
  uid_.insert(uid_.end(), other.uid_.begin(), other.uid_.end());
  gid_.insert(gid_.end(), other.gid_.begin(), other.gid_.end());
  mode_.insert(mode_.end(), other.mode_.begin(), other.mode_.end());
  inode_.insert(inode_.end(), other.inode_.begin(), other.inode_.end());
  const std::uint32_t base = ost_offsets_.back();
  ost_offsets_.reserve(ost_offsets_.size() + other.size());
  for (std::size_t i = 1; i < other.ost_offsets_.size(); ++i) {
    ost_offsets_.push_back(base + other.ost_offsets_[i]);
  }
  ost_values_.insert(ost_values_.end(), other.ost_values_.begin(),
                     other.ost_values_.end());
  file_count_ += other.file_count_;
  other = SnapshotTable();
}

void SnapshotTable::clear() {
  arena_ = StringArena();
  paths_.clear();
  path_hash_.clear();
  depth_.clear();
  atime_.clear();
  ctime_.clear();
  mtime_.clear();
  uid_.clear();
  gid_.clear();
  mode_.clear();
  inode_.clear();
  ost_offsets_.clear();
  ost_offsets_.push_back(0);
  ost_values_.clear();
  file_count_ = 0;
}

RawRecord SnapshotTable::row(std::size_t i) const {
  RawRecord rec;
  rec.path = std::string(paths_[i]);
  rec.atime = atime_[i];
  rec.ctime = ctime_[i];
  rec.mtime = mtime_[i];
  rec.uid = uid_[i];
  rec.gid = gid_[i];
  rec.mode = mode_[i];
  rec.inode = inode_[i];
  const auto o = osts(i);
  rec.osts.assign(o.begin(), o.end());
  return rec;
}

std::size_t SnapshotTable::memory_bytes() const {
  return arena_.bytes_used() +
         paths_.capacity() * sizeof(std::string_view) +
         path_hash_.capacity() * sizeof(std::uint64_t) +
         depth_.capacity() * sizeof(std::uint16_t) +
         (atime_.capacity() + ctime_.capacity() + mtime_.capacity()) *
             sizeof(std::int64_t) +
         (uid_.capacity() + gid_.capacity() + mode_.capacity()) *
             sizeof(std::uint32_t) +
         inode_.capacity() * sizeof(std::uint64_t) +
         (ost_offsets_.capacity() + ost_values_.capacity()) *
             sizeof(std::uint32_t);
}

SnapshotTable SnapshotTable::clone() const {
  SnapshotTable copy;
  copy.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    copy.add(path(i), atime(i), ctime(i), mtime(i), uid(i), gid(i), mode(i),
             inode(i), osts(i));
  }
  return copy;
}

}  // namespace spider
