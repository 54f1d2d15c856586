// Figs 7-9: the file/directory census.
//   Fig 7 — unique files and directories per science domain across all
//           snapshots, and the directory:entry ratio;
//   Fig 8(a) — CDF of per-project maximum directory depth;
//   Fig 8(b) — CDF of unique file counts per user and per project;
//   Fig 9 — per-domain directory-depth five-number summaries.
// "Unique" counts deduplicate by path across the whole series (deleted
// files still count once), exactly as the paper aggregates.
#pragma once

#include <string>
#include <vector>

#include "engine/flat_map.h"
#include "engine/u64set.h"
#include "study/resolve.h"
#include "study/runner.h"
#include "util/stats.h"

namespace spider {

struct CensusResult {
  // Fig 7.
  std::vector<std::uint64_t> files_by_domain;
  std::vector<std::uint64_t> dirs_by_domain;
  std::uint64_t total_files = 0;
  std::uint64_t total_dirs = 0;
  double dir_fraction(std::size_t domain) const;

  // Fig 8(b).
  EmpiricalCdf files_per_user;
  EmpiricalCdf files_per_project;
  std::uint64_t max_files_one_user = 0;
  std::uint64_t max_files_one_project = 0;
  double median_files_per_user = 0;
  double median_files_per_project = 0;

  // Fig 8(a) / Fig 9.
  EmpiricalCdf project_max_depth;
  std::vector<FiveNumber> depth_by_domain;  // over unique directories
  std::uint64_t max_depth = 0;

  // Empty directories in the final snapshot (the paper notes the purge
  // "deletes only files but not directories", leaving empty dirs behind
  // that users are responsible for cleaning up).
  std::uint64_t final_empty_dirs = 0;
  std::uint64_t final_dirs = 0;
  double final_empty_dir_fraction() const {
    return final_dirs == 0 ? 0.0
                           : static_cast<double>(final_empty_dirs) /
                                 static_cast<double>(final_dirs);
  }
};

class CensusAnalyzer : public StudyAnalyzer {
 public:
  explicit CensusAnalyzer(const Resolver& resolver);

  ColumnMask columns_needed() const override {
    return kColMaskPaths | kColMaskUid | kColMaskGid | kColMaskMode;
  }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  /// Delta port: the unique-entry census consumes only new rows (a matched
  /// row kept its path, so its hash was already claimed), and the per-week
  /// empty-directory census rolls forward two retained reference-count
  /// maps — parent hash -> rows naming it as parent, and live dir hashes —
  /// adjusted only by created and deleted rows (renames don't exist;
  /// updated rows keep their paths).
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override;
  void finish() override;

  std::string_view state_id() const override { return "census"; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const CensusResult& result() const { return result_; }
  std::string render() const;

 private:
  void rebuild_live_maps(const SnapshotTable& table);

  const Resolver& resolver_;
  U64Set distinct_;
  std::vector<std::uint64_t> files_by_user_;     // dense user index
  std::vector<std::uint64_t> files_by_project_;  // dense project index
  std::vector<std::uint16_t> max_depth_by_project_;
  std::vector<std::vector<double>> dir_depths_by_domain_;
  /// Retained live-population state for the delta path, rebuilt on every
  /// full-scan week of an incremental run (baseline and re-baseline):
  /// reference counts of parent-path hashes over all rows, and of dir-path
  /// hashes. Signed so transient decrement-then-increment orders are safe.
  FlatMap<std::int64_t> parent_live_;
  FlatMap<std::int64_t> dirs_live_;
  CensusResult result_;
};

}  // namespace spider
