#include "study/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/hash_index.h"
#include "engine/spill.h"
#include "engine/stream.h"
#include "study/checkpoint.h"

namespace spider {

namespace {

/// Columns the adjacent-snapshot diff reads: the path join plus the three
/// timestamps and mode (file/dir split, file counts).
constexpr ColumnMask kDiffColumns = kColMaskPaths | kColMaskAtime |
                                    kColMaskCtime | kColMaskMtime |
                                    kColMaskMode;

/// Rough resident bytes per decoded snapshot row (fixed columns, path and
/// OST-list bytes, per-week index overhead), used to predict a week's
/// footprint from the .scol header alone — before anything is decoded —
/// when deciding resident vs out-of-core under StudyOptions::memory_budget.
constexpr std::size_t kResidentBytesPerRow = 160;

/// Rough spilled bytes per row (41-byte record header + average path),
/// sizing the spill fan-out so a loaded partition pair stays well inside
/// the budget's slice.
constexpr std::size_t kSpillBytesPerRow = 96;

/// Bridges a StudyAnalyzer onto the engine's ScanKernel interface for the
/// week currently being analyzed.
class AnalyzerKernel : public ScanKernel {
 public:
  explicit AnalyzerKernel(StudyAnalyzer* analyzer) : analyzer_(analyzer) {}

  void set_observation(const WeekObservation* obs) { obs_ = obs; }

  std::unique_ptr<ScanChunkState> make_chunk_state() const override {
    return analyzer_->make_chunk_state();
  }
  void observe_chunk(ScanChunkState* state, const ScanMorsel& m) override {
    analyzer_->observe_chunk(state, *obs_, m);
  }
  void merge_chunks(ScanStateList states, ThreadPool*) override {
    // Analyzers take the pool through obs_->pool instead — it is the same
    // pool, and the WeekObservation carries it to observe() too.
    analyzer_->merge(*obs_, states);
  }

 private:
  StudyAnalyzer* analyzer_;
  const WeekObservation* obs_ = nullptr;
};

/// One decoded week in flight between the visiting thread and analysis:
/// either owned outright (moved out of the source) or a pointer into a
/// fully materialized source (stable_snapshots() == true). Either way,
/// retaining the previous week is a move of this struct — the O(n)
/// per-week deep copy of the old runner is gone.
///
/// When any analyzer wants the diff, the week's partitioned index rides
/// along: it is built on the visiting thread right after decode, so with
/// prefetch on the build of week N's index overlaps week N-1's analysis,
/// and by the time week N becomes `prev` its build side is already up. The
/// index stores no table pointer (moving this struct relocates `owned`),
/// so the move is safe.
struct PendingWeek {
  std::size_t week = 0;
  Snapshot owned;
  const Snapshot* view = nullptr;
  std::unique_ptr<PartitionedPathIndex> index;
  /// Incremental mode only: the week's directory rows, indexed for the
  /// diff's directory side. Like `index`, detached from the table so the
  /// struct stays movable.
  std::unique_ptr<DetachedPathIndex> dir_index;
  /// Checkpointing only: the source's gap timeline up to (not including)
  /// this week, captured on the visiting thread — the source mutates its
  /// gap list during traversal, so the analyst thread must not read it.
  std::vector<SeriesGap> gaps_so_far;

  const Snapshot& snap() const { return view ? *view : owned; }
};

/// Ascending union of disjoint, already-ascending row lists.
std::vector<std::uint32_t> merged_union(
    std::initializer_list<std::span<const std::uint32_t>> lists) {
  std::size_t total = 0;
  for (const auto& list : lists) total += list.size();
  std::vector<std::uint32_t> out;
  out.reserve(total);
  for (const auto& list : lists) {
    out.insert(out.end(), list.begin(), list.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Structural validation of a loaded checkpoint against THIS run's
/// configuration: same hash function, same projection, same grain, and an
/// analyzer roster that lines up id-for-id with resumable state for every
/// entry. Content validation (does the checkpointed week still match the
/// source?) happens later, against the re-decoded snapshot.
Status validate_checkpoint(const StudyCheckpoint& ckpt,
                           std::span<StudyAnalyzer* const> analyzers,
                           ColumnMask columns, std::size_t grain) {
  if (ckpt.hash_probe != checkpoint_hash_probe()) {
    return Status::failed_precondition(
        "hash-function drift: the checkpoint's probe fingerprint does not "
        "match this build");
  }
  if (ckpt.columns_mask != columns) {
    return Status::failed_precondition(
        "column projection changed: checkpoint mask " +
        std::to_string(ckpt.columns_mask) + ", this run " +
        std::to_string(columns));
  }
  if (ckpt.grain != grain) {
    return Status::failed_precondition(
        "scan grain changed: checkpoint " + std::to_string(ckpt.grain) +
        ", this run " + std::to_string(grain));
  }
  if (ckpt.analyzers.size() != analyzers.size()) {
    return Status::failed_precondition(
        "analyzer roster changed: checkpoint has " +
        std::to_string(ckpt.analyzers.size()) + " analyzers, this run " +
        std::to_string(analyzers.size()));
  }
  for (std::size_t i = 0; i < analyzers.size(); ++i) {
    const AnalyzerCheckpoint& a = ckpt.analyzers[i];
    if (a.id != analyzers[i]->state_id()) {
      return Status::failed_precondition(
          "analyzer roster changed at position " + std::to_string(i) +
          ": checkpoint '" + a.id + "', this run '" +
          std::string(analyzers[i]->state_id()) + "'");
    }
    if (!a.has_state) {
      return Status::failed_precondition(
          "analyzer '" + a.id +
          "' recorded a re-baseline marker (no serializable state)");
    }
    if (a.version != analyzers[i]->state_version()) {
      return Status::failed_precondition(
          "analyzer '" + a.id + "' state version skew: checkpoint v" +
          std::to_string(a.version) + ", this build v" +
          std::to_string(analyzers[i]->state_version()));
    }
  }
  return Status();
}

/// The diff as a scan kernel (DESIGN.md §11): registered FIRST, so within
/// every chunk its probe runs before any analyzer observes the same rows,
/// and sibling kernels may read the chunk's classification through the
/// DiffChunkProvider interface. merge_chunks assembles the week's
/// DiffResult (serial, chunk-ordered) before any analyzer's merge runs —
/// merge-time consumers of obs.diff see the complete result.
class DiffScanKernel : public ScanKernel, public DiffChunkProvider {
 public:
  /// Arms the kernel for one week (null index = inactive week: no diff,
  /// and the kernel is a no-op in the scan). Must be called before every
  /// scan — it also resets the chunk registry.
  /// On delta weeks (StudyOptions::incremental) `record_prev` turns on the
  /// prev-row mapping and `dir_index` the directory diff.
  void set_week(const PartitionedPathIndex* index, const SnapshotTable* prev,
                DiffResult* out, std::size_t grain, std::size_t cur_files,
                bool record_prev = false,
                const DetachedPathIndex* dir_index = nullptr) {
    index_ = index;
    prev_ = prev;
    out_ = out;
    cur_files_ = cur_files;
    grain_ = grain == 0 ? kScanGrainRows : grain;
    record_prev_ = record_prev;
    dir_index_ = dir_index;
    chunk_rows_.clear();
    if (index_ != nullptr && index_->size() > 0) {
      // Value-initialization zeroes the atomics (C++20).
      matched_.reset(new std::atomic<std::uint8_t>[index_->size()]());
    } else {
      matched_.reset();
    }
    if (dir_index_ != nullptr && dir_index_->size() > 0) {
      dir_matched_.reset(
          new std::atomic<std::uint8_t>[dir_index_->size()]());
    } else {
      dir_matched_.reset();
    }
  }

  std::unique_ptr<ScanChunkState> make_chunk_state() const override {
    if (index_ == nullptr) return nullptr;
    auto state = std::make_unique<DiffKernelChunk>();
    state->rows.record_prev = record_prev_;
    // make_chunk_state runs serially in chunk order before the scan, so
    // the registry index equals the chunk index.
    chunk_rows_.push_back(&state->rows);
    return state;
  }

  void observe_chunk(ScanChunkState* state, const ScanMorsel& m) override {
    if (index_ == nullptr) return;
    // The fused kernel only ever runs on resident weeks (streamed weeks
    // diff through the spill join before their scan), so the morsel's
    // base is 0 and global rows are table rows.
    const DiffDirProbe dirs{dir_index_, dir_matched_.get()};
    diff_probe_range(*index_, *prev_, *m.table, m.begin, m.end,
                     matched_.get(),
                     &static_cast<DiffKernelChunk*>(state)->rows,
                     dir_index_ != nullptr ? &dirs : nullptr);
  }

  void merge_chunks(ScanStateList, ThreadPool* pool) override {
    if (index_ == nullptr) return;
    DiffFinalizeExtras extras;
    extras.prev_rows = record_prev_;
    extras.dirs = dir_index_ != nullptr;
    if (dir_index_ != nullptr) {
      extras.prev_dir_rows = dir_index_->rows();
      extras.dir_matched = dir_matched_.get();
    }
    diff_finalize(index_->file_rows(), matched_.get(),
                  std::span<const DiffChunkRows* const>(chunk_rows_), pool,
                  out_, &extras);
    out_->prev_files = index_->size();
    out_->cur_files = cur_files_;
  }

  const DiffChunkRows* chunk_rows(std::size_t begin) const override {
    const std::size_t chunk = begin / grain_;
    return chunk < chunk_rows_.size() ? chunk_rows_[chunk] : nullptr;
  }

 private:
  struct DiffKernelChunk : ScanChunkState {
    DiffChunkRows rows;
  };

  const PartitionedPathIndex* index_ = nullptr;
  const SnapshotTable* prev_ = nullptr;
  DiffResult* out_ = nullptr;
  std::size_t grain_ = kScanGrainRows;
  std::size_t cur_files_ = 0;
  bool record_prev_ = false;
  const DetachedPathIndex* dir_index_ = nullptr;
  mutable std::vector<const DiffChunkRows*> chunk_rows_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> matched_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dir_matched_;
};

}  // namespace

void run_study(SnapshotSource& source,
               std::span<StudyAnalyzer* const> analyzers,
               const StudyOptions& options) {
  bool need_diff = false;
  bool any_delta = false;
  ColumnMask columns = kColMaskNone;
  for (StudyAnalyzer* analyzer : analyzers) {
    need_diff = need_diff || analyzer->wants_diff();
    any_delta = any_delta || analyzer->supports_delta();
    columns |= analyzer->columns_needed();
  }
  // Incremental mode is diff-driven: the WeekDelta is built from the
  // classification even for analyzers that never asked for the diff.
  const bool incremental = options.incremental && any_delta;
  if (incremental) need_diff = true;
  if (need_diff) columns |= kDiffColumns;
  source.set_columns(columns);

  std::vector<AnalyzerKernel> kernels;
  kernels.reserve(analyzers.size());
  for (StudyAnalyzer* analyzer : analyzers) kernels.emplace_back(analyzer);
  DiffScanKernel diff_kernel;
  // Two kernel rosters: the full one for scan (re-baseline) weeks, and —
  // in incremental mode — a reduced one for delta weeks that leaves the
  // delta-capable analyzers out of the shared scan entirely. The diff
  // kernel must be first in both: sibling kernels read its per-chunk
  // output during the scan (see DiffChunkProvider). Weeks whose diff goes
  // through the spill join before the scan (streamed weeks and their
  // successors) run the full roster with the diff kernel disarmed.
  std::vector<ScanKernel*> kernel_ptrs;
  std::vector<ScanKernel*> scan_only_kernel_ptrs;
  kernel_ptrs.reserve(kernels.size() + 1);
  if (need_diff) {
    kernel_ptrs.push_back(&diff_kernel);
    scan_only_kernel_ptrs.push_back(&diff_kernel);
  }
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    kernel_ptrs.push_back(&kernels[i]);
    if (!analyzers[i]->supports_delta()) {
      scan_only_kernel_ptrs.push_back(&kernels[i]);
    }
  }

  ScanOptions scan_options;
  scan_options.grain = options.grain;
  scan_options.pool = options.pool;

  // --- Checkpoint setup (DESIGN.md §14) ---
  CheckpointReport scratch_report;
  CheckpointReport* report =
      options.checkpoint_report != nullptr ? options.checkpoint_report
                                           : &scratch_report;
  *report = CheckpointReport{};
  const bool ckpt_wanted = !options.checkpoint.path.empty();
  // The checkpoint serializes the incremental engine's retained state; a
  // pure scan run has nothing worth saving, so checkpointing rides on
  // incremental mode only.
  const bool ckpt_enabled = ckpt_wanted && incremental;
  if (ckpt_wanted && !incremental) {
    report->rebaseline_reason =
        "checkpointing requires incremental mode; running without";
  }
  const std::size_t ckpt_every =
      options.checkpoint.every == 0 ? 1 : options.checkpoint.every;

  // --- Out-of-core mode (DESIGN.md §15) ---
  // A fully materialized source has nothing to stream, and a checkpointed
  // run fingerprints whole tables, so both force every week resident.
  const bool stable = source.stable_snapshots();
  bool out_of_core = options.memory_budget > 0 && !ckpt_enabled && !stable;
  namespace fs = std::filesystem;
  std::string spill_dir;
  if (out_of_core && need_diff) {
    // Scratch directory for the spill join's partition files, private to
    // this run. If no scratch space exists the budget cannot be honored;
    // falling back to resident keeps the results correct.
    static std::atomic<std::uint64_t> run_counter{0};
    std::error_code ec;
    const fs::path base = fs::temp_directory_path(ec);
    if (!ec) {
      const fs::path dir =
          base / ("spider-spill-" +
                  std::to_string(static_cast<unsigned long>(::getpid())) +
                  "-" + std::to_string(run_counter.fetch_add(1)));
      fs::create_directories(dir, ec);
      if (!ec) spill_dir = dir.string();
    }
    if (spill_dir.empty()) out_of_core = false;
  }

  StudyCheckpoint restored;
  bool resume_pending = false;
  if (ckpt_enabled && options.checkpoint.resume) {
    Status s = load_checkpoint(options.checkpoint.path, &restored);
    if (s.ok()) {
      s = validate_checkpoint(restored, analyzers, columns, options.grain);
    }
    if (s.ok()) {
      resume_pending = true;
    } else if (s.code() != StatusCode::kNotFound) {
      // A missing checkpoint is an ordinary fresh run; anything else —
      // corruption, truncation, version skew, roster drift — is a
      // re-baseline worth reporting.
      report->rebaseline_reason = s.to_string();
    }
  }

  // Analysis state. Touched only by whichever thread runs analyze() —
  // the caller without prefetch, the pipeline thread with it. (In
  // out-of-core mode the whole pass is synchronous on the visiting
  // thread, so there is exactly one toucher either way.)
  PendingWeek prev;
  bool have_prev = false;
  std::size_t last_week = 0;
  bool resume_failed = false;
  std::size_t weeks_since_ckpt = 0;

  // Out-of-core bookkeeping. When the previous week streamed, its rows
  // survive only as spill partitions: prev.snap().table is an empty shell
  // and the next diff goes through spill_diff_join whichever way the
  // current week arrives.
  SpilledSide prev_spill;
  bool have_prev_spill = false;
  bool prev_streamed = false;
  std::uint64_t spill_seq = 0;

  auto drop_prev_spill = [&] {
    if (!have_prev_spill) return;
    for (const std::string& f : prev_spill.files) {
      std::error_code ec;
      fs::remove(f, ec);
    }
    prev_spill = SpilledSide{};
    have_prev_spill = false;
  };

  // Spills a RESIDENT table for one side of an out-of-core join. The
  // regenerate hook re-derives the whole side from the table (identical
  // bytes — the spill is deterministic), so checksum damage in scratch
  // files heals as long as the table is alive, which it is for the
  // duration of the join.
  auto spill_table = [&](const SnapshotTable& table, std::uint32_t bits,
                         SpilledSide* out) -> Status {
    SpillPartitionWriter::Options wopts;
    wopts.dir = spill_dir;
    wopts.stem = "s" + std::to_string(spill_seq++);
    wopts.bits = bits;
    SpillPartitionWriter writer;
    Status s = writer.open(wopts);
    if (s.ok()) s = writer.add_table(table);
    if (s.ok()) s = writer.finish();
    if (!s.ok()) return s;
    *out = writer.side();
    out->regenerate = [&table, wopts](std::size_t) -> Status {
      SpillPartitionWriter w;
      Status rs = w.open(wopts);
      if (rs.ok()) rs = w.add_table(table);
      if (rs.ok()) rs = w.finish();
      return rs;
    };
    return Status();
  };

  auto write_checkpoint = [&]() {
    StudyCheckpoint ckpt;
    ckpt.week = prev.week;
    ckpt.taken_at = prev.snap().taken_at;
    ckpt.degraded = prev.snap().degraded;
    ckpt.table_fingerprint = table_fingerprint(prev.snap().table, columns);
    ckpt.columns_mask = columns;
    ckpt.grain = options.grain;
    ckpt.hash_probe = checkpoint_hash_probe();
    // Keep pre-resume damage alive across checkpoint generations: the
    // source never re-read those weeks, so its own gap list cannot
    // contain them.
    ckpt.gaps = report->restored_gaps.empty()
                    ? prev.gaps_so_far
                    : merge_gap_timelines(report->restored_gaps,
                                          prev.gaps_so_far);
    ckpt.analyzers.reserve(analyzers.size());
    for (StudyAnalyzer* analyzer : analyzers) {
      AnalyzerCheckpoint a;
      a.id = std::string(analyzer->state_id());
      a.version = analyzer->state_version();
      StateWriter w(&a.blob);
      a.has_state = analyzer->save_state(w);
      if (!a.has_state) a.blob.clear();
      ckpt.analyzers.push_back(std::move(a));
    }
    // Best-effort: a failed write leaves the previous checkpoint on disk
    // intact (atomic replace), and the study itself continues.
    if (save_checkpoint(options.checkpoint.path, ckpt).ok()) {
      ++report->checkpoints_written;
    } else {
      ++report->write_failures;
    }
  };

  // Content validation + state restore against the re-decoded
  // checkpointed week. On success the week becomes `prev` without being
  // analyzed (it already was, before the crash). Any mismatch abandons
  // the resume with analyzer state untouched.
  auto try_resume = [&](const PendingWeek& cur) -> bool {
    if (cur.week != restored.week ||
        cur.snap().taken_at != restored.taken_at ||
        cur.snap().degraded != restored.degraded ||
        table_fingerprint(cur.snap().table, columns) !=
            restored.table_fingerprint) {
      report->rebaseline_reason =
          "checkpointed week " + std::to_string(restored.week) +
          " no longer matches the source (position or content changed)";
      return false;
    }
    for (std::size_t i = 0; i < analyzers.size(); ++i) {
      StateReader r(restored.analyzers[i].blob);
      if (!analyzers[i]->load_state(r) || !r.exhausted()) {
        // Unreachable short of a bug: the blob passed its section
        // checksum and its version check. load_state is atomic per
        // analyzer, so falling back to the full run is the best effort.
        report->rebaseline_reason = "analyzer '" +
                                    restored.analyzers[i].id +
                                    "' failed to restore its state";
        return false;
      }
    }
    report->resumed = true;
    report->resumed_week = static_cast<std::size_t>(restored.week);
    report->restored_gaps = std::move(restored.gaps);
    return true;
  };

  // The one WeekObservation builder. Resident weeks pass their table's
  // counts; streamed weeks — whose snapshot is an empty shell — pass the
  // streaming pre-pass's counts and skip the retained-state upkeep, which
  // cannot be rebuilt from a shell (the next resident week re-baselines:
  // the delta_active gate in analyze()).
  auto observe_week = [&](const PendingWeek& cur, std::size_t file_count,
                          std::size_t dir_count, bool streamed) {
    WeekObservation obs;
    obs.week = cur.week;
    obs.snap = &cur.snap();
    obs.prev = have_prev ? &prev.snap() : nullptr;
    obs.gap_before = have_prev && cur.week != last_week + 1;
    obs.pool = options.pool;
    obs.incremental = incremental && !streamed;
    obs.file_count = file_count;
    obs.dir_count = dir_count;
    return obs;
  };

  auto analyze = [&](PendingWeek&& cur) {
    if (resume_failed) return;  // draining an abandoned resume traversal
    if (resume_pending) {
      resume_pending = false;
      if (try_resume(cur)) {
        prev = std::move(cur);
        have_prev = true;
        last_week = prev.week;
        return;
      }
      resume_failed = true;
      return;
    }
    WeekObservation obs =
        observe_week(cur, cur.snap().table.file_count(),
                     cur.snap().table.dir_count(), /*streamed=*/false);

    DiffResult diff;
    const bool diff_active = need_diff && have_prev && !obs.gap_before;
    // A salvage-damaged snapshot (on either side of the diff) forces a
    // full-scan re-baseline: the diff still runs — the scan-path access
    // accounting is unchanged — but the delta consumers fall back to their
    // kernels and rebuild retained state. A streamed previous week also
    // re-baselines: its table is a shell, so neither the prev-row mapping
    // nor the retained-state upkeep that week could run is available.
    const bool delta_active =
        incremental && diff_active && !cur.snap().degraded &&
        !prev.snap().degraded && !prev_streamed;
    // Disarmed unless the fused arm below arms it for this week.
    diff_kernel.set_week(nullptr, nullptr, nullptr, options.grain, 0);
    if (diff_active && prev_streamed) {
      // The previous week exists only as spill partitions: spill the
      // current (resident) table at the retained side's fan-out and join
      // on disk. Consumed unfused — obs.diff is final before the scan.
      SpilledSide cur_side;
      Status s = spill_table(cur.snap().table, prev_spill.bits, &cur_side);
      if (s.ok()) {
        s = spill_diff_join(prev_spill, cur_side, DiffOptions{}, &diff);
      }
      for (const std::string& f : cur_side.files) {
        std::error_code ec;
        fs::remove(f, ec);
      }
      if (s.ok()) {
        obs.diff = &diff;
      } else {
        // Unrecoverable scratch damage. Analyze the week as if preceded
        // by a gap — diff-based analyzers annotate it instead of the
        // whole study failing.
        obs.gap_before = true;
      }
    } else if (diff_active) {
      diff_kernel.set_week(prev.index.get(), &prev.snap().table, &diff,
                           options.grain, obs.file_count,
                           /*record_prev=*/delta_active,
                           delta_active ? prev.dir_index.get() : nullptr);
      obs.diff = &diff;
      obs.diff_chunks = &diff_kernel;
    }

    for (AnalyzerKernel& kernel : kernels) kernel.set_observation(&obs);
    scan_table(cur.snap().table,
               delta_active ? scan_only_kernel_ptrs : kernel_ptrs,
               scan_options);

    if (delta_active) {
      WeekDelta delta;
      delta.diff = &diff;
      delta.prev = &prev.snap().table;
      delta.cur = &cur.snap().table;
      delta.added_rows = merged_union({diff.new_rows, diff.new_dir_rows});
      delta.touched_rows = merged_union(
          {delta.added_rows, diff.updated_rows, diff.changed_dir_rows});
      for (StudyAnalyzer* analyzer : analyzers) {
        if (analyzer->supports_delta()) analyzer->apply_delta(obs, delta);
      }
    }

    prev = std::move(cur);
    have_prev = true;
    last_week = prev.week;
    drop_prev_spill();
    prev_streamed = false;

    if (ckpt_enabled && ++weeks_since_ckpt >= ckpt_every) {
      weeks_since_ckpt = 0;
      write_checkpoint();
    }
  };

  // One out-of-core week, synchronous on the visiting thread (the group
  // reader lives only for the duration of the visit). Two passes over the
  // mapped image:
  //
  //   Pass A (serial, group order): decode each group into a recycled
  //   staging table, replaying the eager decoder's salvage accounting
  //   verbatim (note_success / dispose_failure — scol.h documents the
  //   replay contract), spill the diff-relevant columns partition-wise,
  //   and count rows/files/dirs for merge-time sizing. A fatal verdict
  //   (strict policy) returns the raw status: the source records a gap
  //   byte-identical to the eager path's.
  //
  //   Pass B: the shared analyzer scan, fed group-at-a-time through
  //   ScolMorselSource with the damaged groups masked out. The diff was
  //   joined through the spill layer between the passes, so obs.diff is
  //   final before any kernel runs (unfused consumption).
  auto analyze_streamed = [&](const WeekGroupStream& stream) -> Status {
    const ScolGroupReader& reader = *stream.reader;
    SalvageReport sreport = reader.make_report();
    std::vector<std::uint8_t> skip(reader.group_count(), 0);
    const bool spilling = need_diff;
    const std::uint32_t bits =
        have_prev_spill ? prev_spill.bits
                        : spill_bits_for(reader.rows(), kSpillBytesPerRow,
                                         options.memory_budget / 4);
    SpillPartitionWriter writer;
    SpillPartitionWriter::Options wopts;
    if (spilling) {
      wopts.dir = spill_dir;
      wopts.stem = "s" + std::to_string(spill_seq++);
      wopts.bits = bits;
      const Status s = writer.open(wopts);
      if (!s.ok()) return s;
    }
    std::size_t rows = 0, files = 0, dirs = 0;
    SnapshotTable staging;
    for (std::size_t g = 0; g < reader.group_count(); ++g) {
      staging.clear();
      Status s = reader.decode_group(g, &staging);
      if (!s.ok()) {
        s = reader.dispose_failure(g, std::move(s), &sreport);
        if (!s.ok()) return s;
        skip[g] = 1;
        continue;
      }
      reader.note_success(g, &sreport);
      if (spilling) {
        // Global row numbers continue across surviving groups only — the
        // row numbering the eager salvage splice produces.
        s = writer.add_table(staging, rows);
        if (!s.ok()) return s;
      }
      rows += staging.size();
      files += staging.file_count();
      dirs += staging.dir_count();
    }
    if (spilling) {
      const Status s = writer.finish();
      if (!s.ok()) return s;
    }

    PendingWeek cur;
    cur.week = stream.week;
    cur.owned.taken_at = stream.taken_at;
    cur.owned.degraded = !sreport.clean();

    WeekObservation obs = observe_week(cur, files, dirs, /*streamed=*/true);

    DiffResult diff;
    const bool diff_active = need_diff && have_prev && !obs.gap_before;
    if (diff_active) {
      SpilledSide cur_side = writer.side();
      cur_side.regenerate = [&](std::size_t) -> Status {
        // Re-derives every partition from the mapped image; the spill is
        // deterministic, so the rewrite is byte-identical.
        SpillPartitionWriter w;
        Status rs = w.open(wopts);
        std::size_t base = 0;
        SnapshotTable t;
        for (std::size_t g = 0; rs.ok() && g < reader.group_count(); ++g) {
          if (skip[g]) continue;
          t.clear();
          rs = reader.decode_group(g, &t);
          if (rs.ok()) rs = w.add_table(t, base);
          base += t.size();
        }
        if (rs.ok()) rs = w.finish();
        return rs;
      };
      SpilledSide prev_side;
      bool prev_side_scratch = false;
      Status s;
      if (prev_streamed) {
        prev_side = prev_spill;
      } else {
        s = spill_table(prev.snap().table, bits, &prev_side);
        prev_side_scratch = true;
      }
      if (s.ok()) {
        s = spill_diff_join(prev_side, cur_side, DiffOptions{}, &diff);
      }
      if (prev_side_scratch) {
        for (const std::string& f : prev_side.files) {
          std::error_code ec;
          fs::remove(f, ec);
        }
      }
      if (s.ok()) {
        obs.diff = &diff;
      } else {
        obs.gap_before = true;  // same degradation as the resident arm
      }
    }

    for (AnalyzerKernel& kernel : kernels) kernel.set_observation(&obs);
    // The diff (if any) was joined through the spill layer above; the
    // fused kernel sits the streamed scan out.
    diff_kernel.set_week(nullptr, nullptr, nullptr, options.grain, 0);
    {
      ScolMorselSource::Options mopts;
      mopts.pool = options.pool;
      mopts.prefetch = options.prefetch;
      mopts.skip = skip;
      ScolMorselSource msource(&reader, std::move(mopts));
      const Status s = scan_stream(msource, kernel_ptrs, scan_options);
      if (!s.ok()) {
        // A group that validated in pass A failed in pass B — scratch or
        // mapping-level I/O decay. No analyzer merged (scan_stream aborts
        // before merges), so gapping the week keeps the study consistent.
        writer.remove_files();
        return s;
      }
    }

    prev = std::move(cur);
    have_prev = true;
    last_week = prev.week;
    drop_prev_spill();
    prev_streamed = true;
    if (spilling) {
      // Retained for the next week's join. No regenerate: the reader dies
      // with this visit, so trailer checksums are the only line of
      // defense from here on.
      prev_spill = writer.side();
      have_prev_spill = true;
    }
    return Status();
  };

  // Streams any week whose predicted footprint overflows its slice of the
  // budget (half for the current week, half for the retained previous
  // one).
  auto stream_chooser = [&](std::size_t, std::int64_t,
                            std::uint64_t rows_hint) {
    return rows_hint >
           options.memory_budget / 2 / kResidentBytesPerRow;
  };

  // When the diff is wanted, every decoded week gets its partitioned index
  // here, on the visiting thread: the week is the NEXT diff's build side,
  // and with prefetch on this build overlaps the current week's analysis.
  // (The mutex hand-off of the prefetch slot sequences the build before
  // any probe of it.)
  auto attach_index = [&](PendingWeek& pending) {
    if (need_diff) {
      pending.index = std::make_unique<PartitionedPathIndex>(
          pending.snap().table, options.pool);
      if (incremental) {
        pending.dir_index = std::make_unique<DetachedPathIndex>(
            pending.snap().table, dir_rows_of(pending.snap().table));
      }
    }
  };
  // Checkpointing only: snapshot the source's gap list (the visiting
  // thread is the one mutating it, so reading it here is race-free) up to
  // this week, for the analyst thread's checkpoint writes.
  auto capture_gaps = [&](PendingWeek& pending) {
    if (!ckpt_enabled) return;
    for (const SeriesGap& gap : source.gaps()) {
      if (gap.week < pending.week) pending.gaps_so_far.push_back(gap);
    }
  };
  auto make_pending_const = [&](std::size_t week, const Snapshot& snap) {
    PendingWeek pending;
    pending.week = week;
    pending.view = &snap;
    attach_index(pending);
    capture_gaps(pending);
    return pending;
  };
  auto make_pending_move = [&](std::size_t week, Snapshot&& snap) {
    PendingWeek pending;
    pending.week = week;
    pending.owned = std::move(snap);
    attach_index(pending);
    capture_gaps(pending);
    return pending;
  };

  auto run_pass = [&](std::size_t first_slot) {
    if (out_of_core) {
      // Streamed weeks must be analyzed during the visit — the group
      // reader lives only that long — so the whole pass runs on the
      // visiting thread. The depth-1 week double-buffer is traded for the
      // group-level decode-ahead inside each streamed week's scan
      // (ScolMorselSource honors options.prefetch).
      source.visit_streaming(first_slot, stream_chooser,
                             [&](std::size_t week, Snapshot&& snap) {
                               analyze(make_pending_move(week,
                                                         std::move(snap)));
                             },
                             analyze_streamed);
      return;
    }
    if (!options.prefetch) {
      if (stable) {
        source.visit_from(first_slot,
                          [&](std::size_t week, const Snapshot& snap) {
                            analyze(make_pending_const(week, snap));
                          });
      } else {
        source.visit_move_from(first_slot,
                               [&](std::size_t week, Snapshot&& snap) {
                                 analyze(
                                     make_pending_move(week, std::move(snap)));
                               });
      }
      return;
    }
    // Depth-1 double buffer: the caller keeps visiting (decoding) while a
    // pipeline thread analyzes, one week in flight. Analysis still runs
    // strictly in arrival order on a single thread, so results are
    // identical with prefetch on or off.
    std::mutex mu;
    std::condition_variable slot_free, slot_filled;
    std::optional<PendingWeek> slot;
    bool done = false;

    std::thread analyst([&] {
      for (;;) {
        std::unique_lock<std::mutex> lock(mu);
        slot_filled.wait(lock, [&] { return slot.has_value() || done; });
        if (!slot.has_value()) return;
        PendingWeek cur = std::move(*slot);
        slot.reset();
        slot_free.notify_one();
        lock.unlock();
        analyze(std::move(cur));
      }
    });

    auto enqueue = [&](PendingWeek&& pending) {
      std::unique_lock<std::mutex> lock(mu);
      slot_free.wait(lock, [&] { return !slot.has_value(); });
      slot = std::move(pending);
      slot_filled.notify_one();
    };

    if (stable) {
      source.visit_from(first_slot,
                        [&](std::size_t week, const Snapshot& snap) {
                          enqueue(make_pending_const(week, snap));
                        });
    } else {
      source.visit_move_from(first_slot,
                             [&](std::size_t week, Snapshot&& snap) {
                               enqueue(
                                   make_pending_move(week, std::move(snap)));
                             });
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      slot_filled.notify_one();
    }
    analyst.join();
  };

  run_pass(resume_pending ? static_cast<std::size_t>(restored.week) : 0);
  if (resume_pending || resume_failed) {
    // The resume never materialized: either validation failed at the
    // first arriving week, or no week at or past the checkpointed slot
    // arrived at all (the file vanished or decayed into a gap). Analyzer
    // state is untouched in both cases, so the full run is correct.
    if (resume_pending && report->rebaseline_reason.empty()) {
      report->rebaseline_reason =
          "checkpointed week " + std::to_string(restored.week) +
          " never arrived from the source";
    }
    resume_pending = false;
    resume_failed = false;
    prev = PendingWeek{};
    have_prev = false;
    last_week = 0;
    weeks_since_ckpt = 0;
    run_pass(0);
  }

  for (StudyAnalyzer* analyzer : analyzers) analyzer->finish();
  drop_prev_spill();
  if (!spill_dir.empty()) {
    std::error_code ec;
    fs::remove_all(spill_dir, ec);
  }
}

void run_study(SnapshotSource& source, StudyAnalyzer& analyzer,
               const StudyOptions& options) {
  StudyAnalyzer* list[] = {&analyzer};
  run_study(source, list, options);
}

}  // namespace spider
