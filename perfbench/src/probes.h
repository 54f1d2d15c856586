// Isolated layer probes for the traced run: single calls into public layer
// functions, timed from outside, that split what the study pass does in
// one go (read + checksum + decode, the diff join, the checkpoint file).
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "bench.h"
#include "util/parallel.h"

namespace spiderbench {

class Tracer;

/// The .scol columns in ColumnMask bit order.
inline constexpr std::array<const char*, 9> kColumnNames = {
    "paths", "atime", "ctime", "mtime", "uid", "gid", "mode", "inode", "osts"};

struct ProbeResults {
  /// read_scol_file with no column materialized: read + checksum of every
  /// block, ms per week (each read the fastest of three).
  double checksum_ms = 0;
  /// read_scol_file with one column, minus checksum_ms, ms per week. atime
  /// and ctime are coded against mtime, so theirs include mtime's decode.
  std::array<double, 9> decode_ms{};
  /// diff_snapshots on every adjacent non-gap pair: DiffBreakdown phases
  /// in ms per pair, and mean class shares.
  std::size_t diff_pairs = 0;
  double diff_build_ms = 0, diff_probe_ms = 0, diff_sweep_ms = 0;
  double new_frac = 0, updated_frac = 0, deleted_frac = 0;
  /// load_checkpoint / save_checkpoint round trip of a .sckpt.
  double checkpoint_bytes = 0, checkpoint_load_ms = 0, checkpoint_save_ms = 0;
  bool checkpoint_round_trip = false;  // the re-saved file is byte-identical
};

/// Per-column decode probes over every file of the series.
bool probe_columns(const Prepared& prep, Tracer& tracer, ProbeResults* out);

/// Standalone diff of every adjacent non-gap pair on `pool`.
bool probe_diffs(const Prepared& prep, spider::ThreadPool& pool,
                 Tracer& tracer, ProbeResults* out);

/// Loads `checkpoint` and saves it to `copy`, `reps` times; reports the
/// median of each and checks that the copy equals the original.
bool probe_checkpoint(const std::string& checkpoint, const std::string& copy,
                      int reps, Tracer& tracer, ProbeResults* out);

}  // namespace spiderbench
