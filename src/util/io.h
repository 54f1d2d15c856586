// Robust file I/O, centralized so every reader and writer in the project
// shares the same failure discipline:
//
//   * reads loop over short reads and retry EINTR (signals during a nightly
//     collection run must not look like corrupt snapshots);
//   * whole-file writes (AtomicFileWriter, whole-buffer or appended in
//     pieces) go to a same-directory temp file, fsync the file,
//     atomically rename into place, then fsync the parent directory — a
//     crash mid-write leaves either the old file or the new one, never a
//     torn .scol/PSV/.sckpt image, and the rename itself is durable across
//     power loss (rename alone only updates the in-memory dirent);
//   * every failure is a typed Status naming the file and the errno text.
//
// The low-level loops take an abstract RawReadFn so the fault-injection
// harness (util/fault.h FaultyFile) can drive them with deliberately
// awkward read schedules without interposing on real syscalls. The write
// path has the mirror-image seam: a WriteInterceptor consulted before each
// stage of every atomic write, which lets util/fault.h's WriteFaultInjector
// fail a stage, tear the bytes that land, or simulate the process dying
// mid-write (temp file left behind, every later write dead) — the
// kill-point sweep of the checkpoint layer (DESIGN.md §14) is built on it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace spider {

/// One read attempt: fill up to `count` bytes of `buf`, returning the byte
/// count, 0 at end-of-file, or -1 with errno set (POSIX read semantics).
using RawReadFn = std::function<long(void* buf, std::size_t count)>;

/// Retry/short-read counters, for tests and diagnostics.
struct IoStats {
  std::uint64_t eintr_retries = 0;
  std::uint64_t short_reads = 0;   // reads that returned less than asked
  std::uint64_t short_writes = 0;  // writes that accepted less than offered
};

/// Reads exactly `count` bytes via `read_fn`, looping over short reads and
/// retrying EINTR. Fails kTruncated if EOF arrives first.
Status read_exactly(const RawReadFn& read_fn, void* buf, std::size_t count,
                    IoStats* stats = nullptr);

/// Reads until EOF via `read_fn`, appending to `out`, with the same retry
/// discipline. `size_hint` pre-reserves (pass the stat() size when known).
Status read_until_eof(const RawReadFn& read_fn, std::vector<std::uint8_t>* out,
                      std::size_t size_hint = 0, IoStats* stats = nullptr);

/// Slurps a whole file. The overloads share one implementation; the string
/// form exists for text formats (PSV) that parse via string_view.
Status read_file(const std::string& path, std::vector<std::uint8_t>* out,
                 IoStats* stats = nullptr);
Status read_file(const std::string& path, std::string* out,
                 IoStats* stats = nullptr);

/// The observable stages of an atomic write, in execution order.
enum class WriteOp : std::uint8_t {
  kOpen = 0,   // create the same-directory temp file
  kWrite,      // write the payload into the temp file
  kSyncFile,   // fsync the temp file (data durable before the rename)
  kRename,     // atomic rename over the destination
  kSyncDir,    // fsync the parent directory (rename durable)
};
std::string_view write_op_name(WriteOp op);

/// Test seam consulted before every stage of an atomic write. The
/// decision can fail the stage cleanly (temp removed, destination
/// untouched) or simulate the process dying at that stage: partial effects
/// land exactly as a crash would leave them and the temp file is NOT
/// cleaned up (a dead process runs no destructors).
class WriteInterceptor {
 public:
  virtual ~WriteInterceptor() = default;

  struct Decision {
    bool fail = false;   // stage fails with an injected io error
    bool crash = false;  // simulated process death at this stage
    /// Crash at kWrite/kSyncFile: how many payload bytes survive in the
    /// temp file (clamped to the payload size).
    std::size_t keep_bytes = static_cast<std::size_t>(-1);
    /// Crash at kRename: whether the rename landed before the "death"
    /// (both outcomes are real states a power loss can leave).
    bool complete_rename = false;
  };
  /// `path` is the destination file. Called once per stage per write
  /// (kWrite once per append).
  virtual Decision on_op(WriteOp op, const std::string& path) = 0;
};

/// Installs a process-wide interceptor for every AtomicFileWriter (and so
/// write_file_atomic); null to remove. Test-only: production writers never
/// install one.
void set_write_interceptor(WriteInterceptor* interceptor);

/// A file opened for appending: open() creates or truncates it, append()
/// loops over short writes and retries EINTR. No durability and no
/// interceptor — the building block of AtomicFileWriter's temp file, and
/// on its own a scratch spool (ScolStreamWriter's group payloads).
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  Status open(const std::string& path);
  Status append(std::span<const std::uint8_t> bytes, IoStats* stats = nullptr);
  Status sync();
  void close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  /// Bytes appended since open().
  std::uint64_t size() const { return size_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

/// The one atomic-write implementation: a same-directory temp file that
/// replaces `path` on commit() via fsync + atomic rename + parent-directory
/// fsync. Bytes arrive through any number of append() calls, so a writer
/// that produces its file in pieces gets the same crash discipline as a
/// whole-buffer write_file_atomic. The WriteInterceptor is consulted before
/// each stage: kOpen in open(), kWrite once per append(), kSyncFile,
/// kRename and kSyncDir in commit(). Until commit() renames, `path` is
/// untouched; any failure (or abort(), or destruction) removes the temp
/// file — except a simulated crash, which leaves it behind as a dead
/// process would.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter() { abort(); }
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  Status open(const std::string& path, IoStats* stats = nullptr);
  Status append(std::span<const std::uint8_t> bytes);
  /// Appends the whole contents of `file`, one bounded append() per chunk.
  Status append_file(const std::string& file);
  Status commit();
  void abort();

 private:
  /// Fails the write: the temp file is removed, `s` gains the destination
  /// as context.
  Status fail(Status s);
  /// Simulated death at `op`: the temp file stays, the writer is inert.
  Status crash(WriteOp op);

  std::string path_;  // destination
  std::string tmp_;   // temp file to remove on failure; empty = none
  AppendFile temp_;
  IoStats* stats_ = nullptr;
};

/// Writes `bytes` to `path` through one AtomicFileWriter. On any failure
/// the temp file is removed and the previous `path` contents (if any) are
/// untouched.
Status write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes,
                         IoStats* stats = nullptr);
Status write_file_atomic(const std::string& path, std::string_view text,
                         IoStats* stats = nullptr);

/// The observable stages of MappedFile::open, in execution order.
enum class MapOp : std::uint8_t {
  kOpen = 0,  // open(2) the file read-only
  kStat,      // fstat(2) for the length
  kMap,       // mmap(2) the whole extent
};
std::string_view map_op_name(MapOp op);

/// Test seam consulted before every stage of MappedFile::open — the mmap
/// mirror of WriteInterceptor. A failed stage surfaces as a clean Status
/// (fd closed, nothing mapped); there is no crash mode because an aborted
/// open leaves no on-disk state behind.
class MapInterceptor {
 public:
  virtual ~MapInterceptor() = default;

  struct Decision {
    bool fail = false;  // stage fails with an injected io error
    /// At kStat: report this many bytes instead of the real length
    /// (simulates a file that shrinks between directory scan and map, the
    /// "partial map" case — the map succeeds but covers fewer bytes than
    /// the caller believed were there).
    std::size_t truncate_to = static_cast<std::size_t>(-1);
  };
  virtual Decision on_op(MapOp op, const std::string& path) = 0;
};

/// Installs a process-wide interceptor for MappedFile::open (null to
/// remove). Test-only: production readers never install one.
void set_map_interceptor(MapInterceptor* interceptor);

/// Read-only memory map of a whole file. Decoders borrow the bytes for
/// zero-copy access to column blocks; the map lives until close() or
/// destruction, so spans handed out must not outlive the MappedFile.
/// Move-only (the destructor owns the munmap).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { close(); }
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Opens and maps `path` read-only, retrying EINTR on the open. An empty
  /// file maps to an empty span (mmap of length zero is not attempted —
  /// POSIX rejects it). Any failure leaves the object closed.
  Status open(const std::string& path);

  void close();

  bool is_open() const { return mapped_ || empty_ok_; }
  const std::string& path() const { return path_; }
  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(mapped_), size_};
  }

 private:
  std::string path_;
  void* mapped_ = nullptr;
  std::size_t size_ = 0;
  bool empty_ok_ = false;  // open() succeeded on a zero-length file
};

}  // namespace spider
