#include "engine/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/hash.h"
#include "util/io.h"

namespace spider {

namespace {

/// Trailer magic: "SPL0001\0" little-endian.
constexpr std::uint64_t kSpillMagic = 0x00313030304c5053ULL;

/// Fixed bytes per record ahead of the path: hash(8) + row(4) + kind(1) +
/// three timestamps(24) + path length(4).
constexpr std::size_t kRecordHeaderBytes = 41;

constexpr std::size_t kTrailerBytes = 32;

/// Per-partition buffer flushed to disk when it crosses this size.
constexpr std::size_t kFlushBytes = 256 * 1024;

constexpr std::uint32_t kMaxBits = 8;

std::size_t partition_of_hash(std::uint64_t hash, std::uint32_t bits) {
  return bits == 0 ? 0 : static_cast<std::size_t>(hash >> (64 - bits));
}

Status errno_status(const char* op, const std::string& file) {
  return Status::io_error(std::string(op) + " " + file + ": " +
                          std::strerror(errno));
}

/// Appends `count` bytes to `fd`, looping over short writes and EINTR.
bool write_all(int fd, const std::uint8_t* data, std::size_t count) {
  while (count > 0) {
    const ssize_t n = ::write(fd, data, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    count -= static_cast<std::size_t>(n);
  }
  return true;
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T load_pod(const std::uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// One record's contribution to the partition checksum: the chain folds
/// the hash of each record's serialized bytes in append order, so the
/// value is independent of how the writer chunked its flushes and the
/// reader can recompute it record-by-record.
std::uint64_t chain_checksum(std::uint64_t chain, const std::uint8_t* record,
                             std::size_t bytes) {
  return hash_combine(
      chain, hash_bytes(std::string_view(
                 reinterpret_cast<const char*>(record), bytes)));
}

Status corrupt(const std::string& file, const char* what) {
  return Status::corruption("spill partition " + file + ": " + what);
}

}  // namespace

std::uint32_t spill_bits_for(std::uint64_t rows, std::size_t bytes_per_row,
                             std::size_t partition_budget) {
  if (partition_budget == 0) return 0;
  const std::uint64_t total = rows * bytes_per_row;
  const std::uint64_t parts =
      (total + partition_budget - 1) / partition_budget;
  std::uint32_t bits = 0;
  while ((1ULL << bits) < parts && bits < kMaxBits) ++bits;
  return bits;
}

SpillPartitionWriter::~SpillPartitionWriter() {
  // A writer destroyed before finish() was abandoned mid-spill; its files
  // are incomplete and must not be left for a reader to trip over. A
  // finished writer leaves its files alone — the SpilledSide owns them.
  if (!finished_) remove_files();
}

Status SpillPartitionWriter::open(const Options& options) {
  if (!files_.empty() || finished_) {
    return Status::failed_precondition("spill writer already opened");
  }
  if (options.bits > kMaxBits) {
    return Status::invalid_argument("spill fan-out above " +
                                    std::to_string(kMaxBits) + " bits");
  }
  bits_ = options.bits;
  const std::size_t parts = std::size_t{1} << bits_;
  files_.reserve(parts);
  fds_.assign(parts, -1);
  buffers_.assign(parts, {});
  counts_.assign(parts, 0);
  bytes_.assign(parts, 0);
  checksums_.assign(parts, 0);
  for (std::size_t p = 0; p < parts; ++p) {
    std::string name = options.dir + "/" + options.stem + "-p" +
                       std::to_string(p) + ".spill";
    int fd = -1;
    do {
      fd = ::open(name.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
      const Status s = errno_status("open", name);
      files_.push_back(std::move(name));
      remove_files();
      return s;
    }
    files_.push_back(std::move(name));
    fds_[p] = fd;
  }
  return Status();
}

Status SpillPartitionWriter::flush(std::size_t p) {
  std::vector<std::uint8_t>& buffer = buffers_[p];
  if (buffer.empty()) return Status();
  if (!write_all(fds_[p], buffer.data(), buffer.size())) {
    return errno_status("write", files_[p]);
  }
  buffer.clear();
  return Status();
}

Status SpillPartitionWriter::add(std::uint64_t path_hash, std::uint32_t row,
                                 bool is_dir, std::int64_t atime,
                                 std::int64_t mtime, std::int64_t ctime,
                                 std::string_view path) {
  if (finished_ || files_.empty()) {
    return Status::failed_precondition("spill writer not open");
  }
  const std::size_t p = partition_of_hash(path_hash, bits_);
  std::vector<std::uint8_t>& buffer = buffers_[p];
  const std::size_t at = buffer.size();
  append_pod(buffer, path_hash);
  append_pod(buffer, row);
  append_pod(buffer, static_cast<std::uint8_t>(is_dir ? 1 : 0));
  append_pod(buffer, atime);
  append_pod(buffer, mtime);
  append_pod(buffer, ctime);
  append_pod(buffer, static_cast<std::uint32_t>(path.size()));
  buffer.insert(buffer.end(), path.begin(), path.end());
  const std::size_t record_bytes = buffer.size() - at;
  checksums_[p] =
      chain_checksum(checksums_[p], buffer.data() + at, record_bytes);
  ++counts_[p];
  bytes_[p] += record_bytes;
  if (is_dir) {
    ++dir_rows_;
  } else {
    ++file_rows_;
  }
  if (buffer.size() >= kFlushBytes) return flush(p);
  return Status();
}

Status SpillPartitionWriter::add_table(const SnapshotTable& table,
                                       std::size_t base) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Status s =
        add(table.path_hash(i), static_cast<std::uint32_t>(base + i),
            table.is_dir(i), table.atime(i), table.mtime(i), table.ctime(i),
            table.path(i));
    if (!s.ok()) return s;
  }
  return Status();
}

Status SpillPartitionWriter::finish() {
  if (finished_ || files_.empty()) {
    return Status::failed_precondition("spill writer not open");
  }
  for (std::size_t p = 0; p < files_.size(); ++p) {
    Status s = flush(p);
    if (!s.ok()) return s;
    std::vector<std::uint8_t> trailer;
    trailer.reserve(kTrailerBytes);
    append_pod(trailer, kSpillMagic);
    append_pod(trailer, counts_[p]);
    append_pod(trailer, bytes_[p]);
    append_pod(trailer, checksums_[p]);
    if (!write_all(fds_[p], trailer.data(), trailer.size())) {
      return errno_status("write", files_[p]);
    }
    ::close(fds_[p]);
    fds_[p] = -1;
  }
  finished_ = true;
  return Status();
}

void SpillPartitionWriter::remove_files() {
  for (std::size_t p = 0; p < files_.size(); ++p) {
    if (p < fds_.size() && fds_[p] >= 0) {
      ::close(fds_[p]);
      fds_[p] = -1;
    }
    ::unlink(files_[p].c_str());
  }
}

SpilledSide SpillPartitionWriter::side() const {
  SpilledSide side;
  side.bits = bits_;
  side.files = files_;
  side.file_rows = file_rows_;
  side.dir_rows = dir_rows_;
  return side;
}

void SpillRecords::clear() {
  hashes.clear();
  rows.clear();
  dir_flags.clear();
  atimes.clear();
  mtimes.clear();
  ctimes.clear();
  path_offsets.clear();
  path_bytes.clear();
}

Status read_spill_partition(const std::string& file, SpillRecords* out) {
  out->clear();
  std::vector<std::uint8_t> bytes;
  Status s = read_file(file, &bytes);
  if (!s.ok()) return s;
  if (bytes.size() < kTrailerBytes) {
    return Status::truncated("spill partition " + file +
                             ": shorter than its trailer");
  }
  const std::uint8_t* trailer = bytes.data() + bytes.size() - kTrailerBytes;
  if (load_pod<std::uint64_t>(trailer) != kSpillMagic) {
    return corrupt(file, "bad trailer magic");
  }
  const std::uint64_t count = load_pod<std::uint64_t>(trailer + 8);
  const std::uint64_t payload = load_pod<std::uint64_t>(trailer + 16);
  const std::uint64_t checksum = load_pod<std::uint64_t>(trailer + 24);
  if (payload != bytes.size() - kTrailerBytes) {
    return corrupt(file, "payload size disagrees with trailer");
  }

  out->hashes.reserve(count);
  out->rows.reserve(count);
  out->dir_flags.reserve(count);
  out->atimes.reserve(count);
  out->mtimes.reserve(count);
  out->ctimes.reserve(count);
  out->path_offsets.reserve(count + 1);
  out->path_offsets.push_back(0);

  const std::uint8_t* p = bytes.data();
  std::uint64_t remaining = payload;
  std::uint64_t chain = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (remaining < kRecordHeaderBytes) {
      return corrupt(file, "record header runs past the payload");
    }
    const std::uint32_t len = load_pod<std::uint32_t>(p + 37);
    const std::uint64_t record_bytes = kRecordHeaderBytes + len;
    if (remaining < record_bytes) {
      return corrupt(file, "record path runs past the payload");
    }
    chain = chain_checksum(chain, p, record_bytes);
    out->hashes.push_back(load_pod<std::uint64_t>(p));
    out->rows.push_back(load_pod<std::uint32_t>(p + 8));
    out->dir_flags.push_back(load_pod<std::uint8_t>(p + 12));
    out->atimes.push_back(load_pod<std::int64_t>(p + 13));
    out->mtimes.push_back(load_pod<std::int64_t>(p + 21));
    out->ctimes.push_back(load_pod<std::int64_t>(p + 29));
    out->path_bytes.append(reinterpret_cast<const char*>(p) +
                               kRecordHeaderBytes,
                           len);
    out->path_offsets.push_back(
        static_cast<std::uint32_t>(out->path_bytes.size()));
    p += record_bytes;
    remaining -= record_bytes;
  }
  if (remaining != 0) {
    return corrupt(file, "payload bytes left over after the last record");
  }
  if (chain != checksum) return corrupt(file, "checksum mismatch");
  return Status();
}

namespace {

/// Loads one partition, retrying once through the side's regenerate hook
/// when the file fails verification — the owning side can always re-derive
/// a scratch partition from its original data.
Status load_partition(const SpilledSide& side, std::size_t p,
                      SpillRecords* out) {
  Status s = read_spill_partition(side.files[p], out);
  if (s.ok() || !side.regenerate) return s;
  const Status regen = side.regenerate(p);
  if (!regen.ok()) return regen;
  return read_spill_partition(side.files[p], out);
}

/// Indices of `records` with (non-)directory kind, sorted by
/// (hash, path, row) — the row tie-break cannot fire on real snapshots
/// (paths are unique) but pins the order if it ever does.
std::vector<std::uint32_t> sorted_kind(const SpillRecords& records,
                                       bool dirs) {
  std::vector<std::uint32_t> order;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if ((records.dir_flags[i] != 0) == dirs) {
      order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::sort(order.begin(), order.end(),
            [&records](std::uint32_t a, std::uint32_t b) {
              if (records.hashes[a] != records.hashes[b]) {
                return records.hashes[a] < records.hashes[b];
              }
              if (records.path(a) != records.path(b)) {
                return records.path(a) < records.path(b);
              }
              return records.rows[a] < records.rows[b];
            });
  return order;
}

/// Same matched-row classification as engine/diff.cc's classify_pair, on
/// spilled timestamps.
void classify_records(const SpillRecords& prev, const SpillRecords& cur,
                      std::uint32_t pi, std::uint32_t ci, bool record_prev,
                      DiffResult& result) {
  const bool atime_same = cur.atimes[ci] == prev.atimes[pi];
  const bool mtime_same = cur.mtimes[ci] == prev.mtimes[pi];
  const bool ctime_same = cur.ctimes[ci] == prev.ctimes[pi];
  if (mtime_same && ctime_same && atime_same) {
    result.untouched_rows.push_back(cur.rows[ci]);
    if (record_prev) result.untouched_prev_rows.push_back(prev.rows[pi]);
  } else if (mtime_same && ctime_same) {
    result.readonly_rows.push_back(cur.rows[ci]);
    if (record_prev) result.readonly_prev_rows.push_back(prev.rows[pi]);
  } else {
    result.updated_rows.push_back(cur.rows[ci]);
    if (record_prev) result.updated_prev_rows.push_back(prev.rows[pi]);
  }
}

/// Matched directory twins join the changed lists only when a timestamp
/// moved, mirroring diff.cc's classify_dir.
void classify_dir_records(const SpillRecords& prev, const SpillRecords& cur,
                          std::uint32_t pi, std::uint32_t ci,
                          DiffResult& result) {
  if (cur.atimes[ci] != prev.atimes[pi] ||
      cur.mtimes[ci] != prev.mtimes[pi] ||
      cur.ctimes[ci] != prev.ctimes[pi]) {
    result.changed_dir_rows.push_back(cur.rows[ci]);
    result.changed_dir_prev_rows.push_back(prev.rows[pi]);
  }
}

/// The sort-merge walk over one partition's records of one kind. The four per-class closures let the file and
/// directory walks share the loop.
template <typename OnDeleted, typename OnNew, typename OnMatched>
void merge_walk(const SpillRecords& prev, const SpillRecords& cur,
                const std::vector<std::uint32_t>& lhs,
                const std::vector<std::uint32_t>& rhs, OnDeleted on_deleted,
                OnNew on_new, OnMatched on_matched) {
  auto key_less = [&](std::uint32_t a, std::uint32_t b) {
    if (prev.hashes[a] != cur.hashes[b]) {
      return prev.hashes[a] < cur.hashes[b];
    }
    return prev.path(a) < cur.path(b);
  };
  std::size_t i = 0, j = 0;
  while (i < lhs.size() && j < rhs.size()) {
    const std::uint32_t a = lhs[i];
    const std::uint32_t b = rhs[j];
    if (key_less(a, b)) {
      on_deleted(a);
      ++i;
    } else if (prev.hashes[a] == cur.hashes[b] &&
               prev.path(a) == cur.path(b)) {
      on_matched(a, b);
      ++i;
      ++j;
    } else {
      on_new(b);
      ++j;
    }
  }
  for (; i < lhs.size(); ++i) on_deleted(lhs[i]);
  for (; j < rhs.size(); ++j) on_new(rhs[j]);
}

/// Restores diff_snapshots' ascending-cur-row contract for a matched
/// class, keeping the prev list index-parallel.
void co_sort_by_cur(std::vector<std::uint32_t>& cur_rows,
                    std::vector<std::uint32_t>& prev_rows) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(cur_rows.size());
  for (std::size_t i = 0; i < cur_rows.size(); ++i) {
    pairs.emplace_back(cur_rows[i], prev_rows[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    cur_rows[i] = pairs[i].first;
    prev_rows[i] = pairs[i].second;
  }
}

}  // namespace

Status spill_diff_join(const SpilledSide& prev, const SpilledSide& cur,
                       const DiffOptions& options, DiffResult* out) {
  if (prev.bits != cur.bits || prev.files.size() != cur.files.size()) {
    return Status::invalid_argument(
        "spill join requires both sides partitioned alike");
  }
  *out = DiffResult{};
  out->prev_files = static_cast<std::size_t>(prev.file_rows);
  out->cur_files = static_cast<std::size_t>(cur.file_rows);
  out->has_prev_rows = options.prev_rows;
  out->has_dir_diff = options.dirs;

  SpillRecords prev_records, cur_records;
  for (std::size_t p = 0; p < prev.files.size(); ++p) {
    Status s = load_partition(prev, p, &prev_records);
    if (!s.ok()) return s;
    s = load_partition(cur, p, &cur_records);
    if (!s.ok()) return s;

    merge_walk(
        prev_records, cur_records, sorted_kind(prev_records, /*dirs=*/false),
        sorted_kind(cur_records, /*dirs=*/false),
        [&](std::uint32_t a) {
          out->deleted_rows.push_back(prev_records.rows[a]);
        },
        [&](std::uint32_t b) { out->new_rows.push_back(cur_records.rows[b]); },
        [&](std::uint32_t a, std::uint32_t b) {
          classify_records(prev_records, cur_records, a, b,
                           options.prev_rows, *out);
        });
    if (options.dirs) {
      merge_walk(
          prev_records, cur_records, sorted_kind(prev_records, /*dirs=*/true),
          sorted_kind(cur_records, /*dirs=*/true),
          [&](std::uint32_t a) {
            out->deleted_dir_rows.push_back(prev_records.rows[a]);
          },
          [&](std::uint32_t b) {
            out->new_dir_rows.push_back(cur_records.rows[b]);
          },
          [&](std::uint32_t a, std::uint32_t b) {
            classify_dir_records(prev_records, cur_records, a, b, *out);
          });
    }
  }

  // Restore diff_snapshots' ascending-row contract.
  std::sort(out->new_rows.begin(), out->new_rows.end());
  std::sort(out->deleted_rows.begin(), out->deleted_rows.end());
  if (options.prev_rows) {
    co_sort_by_cur(out->readonly_rows, out->readonly_prev_rows);
    co_sort_by_cur(out->updated_rows, out->updated_prev_rows);
    co_sort_by_cur(out->untouched_rows, out->untouched_prev_rows);
  } else {
    for (auto* rows :
         {&out->readonly_rows, &out->updated_rows, &out->untouched_rows}) {
      std::sort(rows->begin(), rows->end());
    }
  }
  if (options.dirs) {
    std::sort(out->new_dir_rows.begin(), out->new_dir_rows.end());
    std::sort(out->deleted_dir_rows.begin(), out->deleted_dir_rows.end());
    co_sort_by_cur(out->changed_dir_rows, out->changed_dir_prev_rows);
  }
  return Status();
}

}  // namespace spider
