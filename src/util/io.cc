#include "util/io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace spider {

namespace {

std::string errno_text() {
  return std::strerror(errno);
}

/// open(2) with EINTR retry; returns -1 with errno preserved.
int open_retry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// close(2), ignoring EINTR per POSIX (the fd state is unspecified after
/// an interrupted close; retrying risks closing a recycled descriptor).
void close_quietly(int fd) {
  ::close(fd);
}

Status write_all(int fd, const std::uint8_t* data, std::size_t count,
                 IoStats* stats) {
  std::size_t done = 0;
  while (done < count) {
    const ::ssize_t n = ::write(fd, data + done, count - done);
    if (n < 0) {
      if (errno == EINTR) {
        if (stats) ++stats->eintr_retries;
        continue;
      }
      return Status::io_error("write: " + errno_text());
    }
    if (static_cast<std::size_t>(n) < count - done && stats) {
      ++stats->short_writes;
    }
    done += static_cast<std::size_t>(n);
  }
  return Status();
}

WriteInterceptor* g_write_interceptor = nullptr;

WriteInterceptor::Decision intercept(WriteOp op, const std::string& path) {
  if (g_write_interceptor == nullptr) return {};
  return g_write_interceptor->on_op(op, path);
}

/// fsync the directory containing `path`, making a completed rename in it
/// durable. Filesystems that reject directory fsync (EINVAL on some
/// network mounts) are treated as "nothing to do", not as failures.
Status fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::io_error("open dir: " + errno_text()).with_context(dir);
  }
  Status s;
  if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
    s = Status::io_error("fsync dir: " + errno_text()).with_context(dir);
  }
  close_quietly(fd);
  return s;
}

Status injected_fault(WriteOp op, const std::string& path) {
  return Status::io_error(std::string("injected fault at ") +
                          std::string(write_op_name(op)))
      .with_context(path);
}

}  // namespace

std::string_view write_op_name(WriteOp op) {
  switch (op) {
    case WriteOp::kOpen: return "open";
    case WriteOp::kWrite: return "write";
    case WriteOp::kSyncFile: return "sync-file";
    case WriteOp::kRename: return "rename";
    case WriteOp::kSyncDir: return "sync-dir";
  }
  return "?";
}

void set_write_interceptor(WriteInterceptor* interceptor) {
  g_write_interceptor = interceptor;
}

Status read_exactly(const RawReadFn& read_fn, void* buf, std::size_t count,
                    IoStats* stats) {
  std::uint8_t* out = static_cast<std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < count) {
    const long n = read_fn(out + done, count - done);
    if (n < 0) {
      if (errno == EINTR) {
        if (stats) ++stats->eintr_retries;
        continue;
      }
      return Status::io_error("read: " + errno_text());
    }
    if (n == 0) {
      return Status::truncated("end of file after " + std::to_string(done) +
                               " of " + std::to_string(count) + " bytes");
    }
    if (static_cast<std::size_t>(n) < count - done && stats) {
      ++stats->short_reads;
    }
    done += static_cast<std::size_t>(n);
  }
  return Status();
}

Status read_until_eof(const RawReadFn& read_fn, std::vector<std::uint8_t>* out,
                      std::size_t size_hint, IoStats* stats) {
  if (size_hint) out->reserve(out->size() + size_hint);
  // Chunked append: 64 KiB balances syscall count against over-allocation
  // when the size hint is absent or wrong.
  constexpr std::size_t kChunk = 64 * 1024;
  std::uint8_t buf[kChunk];
  for (;;) {
    const long n = read_fn(buf, kChunk);
    if (n < 0) {
      if (errno == EINTR) {
        if (stats) ++stats->eintr_retries;
        continue;
      }
      return Status::io_error("read: " + errno_text());
    }
    if (n == 0) return Status();
    if (static_cast<std::size_t>(n) < kChunk && stats) ++stats->short_reads;
    out->insert(out->end(), buf, buf + n);
  }
}

Status read_file(const std::string& path, std::vector<std::uint8_t>* out,
                 IoStats* stats) {
  const int fd = open_retry(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const Status s = errno == ENOENT ? Status::not_found(errno_text())
                                     : Status::io_error(errno_text());
    return s.with_context(path);
  }
  struct ::stat st {};
  const std::size_t hint =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  const RawReadFn fd_read = [fd](void* buf, std::size_t count) -> long {
    return static_cast<long>(::read(fd, buf, count));
  };
  const Status s = read_until_eof(fd_read, out, hint, stats);
  close_quietly(fd);
  return s.with_context(path);
}

Status read_file(const std::string& path, std::string* out, IoStats* stats) {
  std::vector<std::uint8_t> bytes;
  const Status s = read_file(path, &bytes, stats);
  if (!s.ok()) return s;
  out->assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return Status();
}

Status AppendFile::open(const std::string& path) {
  close();
  const int fd = open_retry(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::io_error(errno_text()).with_context("create " + path);
  }
  path_ = path;
  fd_ = fd;
  size_ = 0;
  return Status();
}

Status AppendFile::append(std::span<const std::uint8_t> bytes,
                          IoStats* stats) {
  const Status s = write_all(fd_, bytes.data(), bytes.size(), stats);
  if (s.ok()) size_ += bytes.size();
  return s;
}

Status AppendFile::sync() {
  if (::fsync(fd_) != 0) return Status::io_error("fsync: " + errno_text());
  return Status();
}

void AppendFile::close() {
  if (fd_ >= 0) close_quietly(fd_);
  fd_ = -1;
}

Status AtomicFileWriter::open(const std::string& path, IoStats* stats) {
  abort();
  const WriteInterceptor::Decision d = intercept(WriteOp::kOpen, path);
  if (d.fail || d.crash) return injected_fault(WriteOp::kOpen, path);
  // Same directory as the target so the rename cannot cross filesystems.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const Status s = temp_.open(tmp);
  if (!s.ok()) return s;
  path_ = path;
  tmp_ = tmp;
  stats_ = stats;
  return Status();
}

Status AtomicFileWriter::append(std::span<const std::uint8_t> bytes) {
  if (!temp_.is_open()) return Status::io_error("write: not open");
  const WriteInterceptor::Decision d = intercept(WriteOp::kWrite, path_);
  if (d.crash) {
    // Simulated process death mid-write: a prefix of the bytes lands in
    // the temp file and no destructor cleans it up — exactly the torn
    // temp a killed writer leaves behind. The destination is untouched.
    (void)temp_.append(bytes.first(std::min(d.keep_bytes, bytes.size())),
                       stats_);
    return crash(WriteOp::kWrite);
  }
  if (d.fail) return fail(Status::io_error("injected write fault"));
  const Status s = temp_.append(bytes, stats_);
  return s.ok() ? s : fail(s);
}

Status AtomicFileWriter::append_file(const std::string& file) {
  const int fd = open_retry(file.c_str(), O_RDONLY);
  if (fd < 0) return fail(Status::io_error(errno_text()).with_context(file));
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  Status s;
  for (;;) {
    const ::ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      s = fail(Status::io_error("read: " + errno_text()).with_context(file));
      break;
    }
    if (n == 0) break;
    s = append(std::span<const std::uint8_t>(buf).first(
        static_cast<std::size_t>(n)));
    if (!s.ok()) break;
  }
  close_quietly(fd);
  return s;
}

Status AtomicFileWriter::commit() {
  if (!temp_.is_open()) return Status::io_error("commit: not open");
  WriteInterceptor::Decision d = intercept(WriteOp::kSyncFile, path_);
  if (d.crash) {
    // Death at fsync: the tail past the last durable sector is lost.
    const std::uint64_t keep =
        std::min<std::uint64_t>(d.keep_bytes, temp_.size());
    temp_.close();
    (void)::truncate(tmp_.c_str(), static_cast<off_t>(keep));
    return crash(WriteOp::kSyncFile);
  }
  const Status s = d.fail ? Status::io_error("injected fsync fault")
                          : temp_.sync();
  temp_.close();
  if (!s.ok()) return fail(s);

  d = intercept(WriteOp::kRename, path_);
  if (d.crash) {
    // Death at the rename boundary: power loss leaves either the old
    // destination (rename never happened; temp orphaned) or the new one
    // (it did). Both are legal crash states the resume path must handle.
    if (d.complete_rename) (void)::rename(tmp_.c_str(), path_.c_str());
    return crash(WriteOp::kRename);
  }
  if (d.fail) return fail(Status::io_error("injected rename fault"));
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return fail(Status::io_error("rename: " + errno_text()));
  }
  tmp_.clear();  // renamed away: nothing left to clean up

  // Make the rename itself durable: without the directory fsync a power
  // loss can roll the dirent back even though the file data was synced.
  const std::string path = std::move(path_);
  abort();
  d = intercept(WriteOp::kSyncDir, path);
  if (d.crash) return injected_fault(WriteOp::kSyncDir, path);
  if (d.fail) {
    return Status::io_error("injected dir-fsync fault").with_context(path);
  }
  return fsync_parent_dir(path);
}

void AtomicFileWriter::abort() {
  temp_.close();
  if (!tmp_.empty()) ::unlink(tmp_.c_str());
  tmp_.clear();
  path_.clear();
  stats_ = nullptr;
}

Status AtomicFileWriter::fail(Status s) {
  s = s.with_context(path_);
  abort();
  return s;
}

Status AtomicFileWriter::crash(WriteOp op) {
  const Status s = injected_fault(op, path_);
  tmp_.clear();  // a dead process cleans nothing up
  abort();
  return s;
}

Status write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes, IoStats* stats) {
  AtomicFileWriter writer;
  Status s = writer.open(path, stats);
  if (s.ok()) s = writer.append(bytes);
  if (s.ok()) s = writer.commit();
  return s;
}

Status write_file_atomic(const std::string& path, std::string_view text,
                         IoStats* stats) {
  return write_file_atomic(
      path,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
      stats);
}

namespace {

MapInterceptor* g_map_interceptor = nullptr;

MapInterceptor::Decision map_intercept(MapOp op, const std::string& path) {
  if (g_map_interceptor == nullptr) return {};
  return g_map_interceptor->on_op(op, path);
}

}  // namespace

std::string_view map_op_name(MapOp op) {
  switch (op) {
    case MapOp::kOpen: return "open";
    case MapOp::kStat: return "stat";
    case MapOp::kMap: return "map";
  }
  return "?";
}

void set_map_interceptor(MapInterceptor* interceptor) {
  g_map_interceptor = interceptor;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    mapped_ = other.mapped_;
    size_ = other.size_;
    empty_ok_ = other.empty_ok_;
    other.mapped_ = nullptr;
    other.size_ = 0;
    other.empty_ok_ = false;
    other.path_.clear();
  }
  return *this;
}

void MappedFile::close() {
  if (mapped_ != nullptr) ::munmap(mapped_, size_);
  mapped_ = nullptr;
  size_ = 0;
  empty_ok_ = false;
  path_.clear();
}

Status MappedFile::open(const std::string& path) {
  close();

  const auto injected = [&path](MapOp op) {
    return Status::io_error(std::string("injected fault at ") +
                            std::string(map_op_name(op)))
        .with_context(path);
  };

  MapInterceptor::Decision d = map_intercept(MapOp::kOpen, path);
  if (d.fail) return injected(MapOp::kOpen);
  const int fd = open_retry(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const Status s = errno == ENOENT ? Status::not_found(errno_text())
                                     : Status::io_error(errno_text());
    return s.with_context(path);
  }

  d = map_intercept(MapOp::kStat, path);
  struct ::stat st {};
  if (d.fail || ::fstat(fd, &st) != 0) {
    const Status s = d.fail ? injected(MapOp::kStat)
                            : Status::io_error("stat: " + errno_text())
                                  .with_context(path);
    close_quietly(fd);
    return s;
  }
  std::size_t size = st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0;
  if (d.truncate_to != static_cast<std::size_t>(-1)) {
    size = std::min(size, d.truncate_to);
  }

  if (size == 0) {
    // Zero-length mmap is EINVAL by spec; an empty snapshot file is still a
    // successful open whose bytes() are the empty span (the codec then
    // reports "bad magic", same as the eager read path).
    close_quietly(fd);
    path_ = path;
    empty_ok_ = true;
    return Status();
  }

  d = map_intercept(MapOp::kMap, path);
  void* mapped = d.fail ? MAP_FAILED
                        : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the fd is not needed
  // once mmap has succeeded (or failed).
  close_quietly(fd);
  if (mapped == MAP_FAILED) {
    if (d.fail) return injected(MapOp::kMap);
    return Status::io_error("mmap: " + errno_text()).with_context(path);
  }
  path_ = path;
  mapped_ = mapped;
  size_ = size;
  return Status();
}

}  // namespace spider
