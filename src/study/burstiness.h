// Fig 17: burstiness of file operations, measured as the coefficient of
// variation of timestamps within each snapshot interval.
//
// Metric (the paper leaves it implicit; see DESIGN.md §4): for every
// (project, interval) with at least 100 qualifying files, take the mtimes
// of the interval's *new* files (write side) or the atimes of its
// *readonly* files (read side), expressed in seconds since the interval
// start, and compute cv = stddev / mean. Lower cv = burstier. Per-domain
// distributions (five-number summaries over project-intervals) reproduce
// the paper's box plot.
#pragma once

#include <string>
#include <vector>

#include "study/resolve.h"
#include "study/runner.h"
#include "util/stats.h"

namespace spider {

struct BurstinessResult {
  std::vector<FiveNumber> write_cv_by_domain;
  std::vector<FiveNumber> read_cv_by_domain;
  /// Medians across all qualifying project-intervals.
  double overall_write_cv_median = 0;
  double overall_read_cv_median = 0;
  std::size_t qualifying_write_samples = 0;
  std::size_t qualifying_read_samples = 0;
  /// Intervals excluded because a series gap sat between the snapshots
  /// (gap-spanning windows would smear several activity cycles into one
  /// cv sample).
  std::size_t gap_pairs_skipped = 0;
};

class BurstinessAnalyzer : public StudyAnalyzer {
 public:
  /// `min_files`: the paper excludes projects accessing fewer than 100
  /// files in a week; scale-reduced runs pass a proportionally smaller
  /// threshold.
  explicit BurstinessAnalyzer(const Resolver& resolver,
                              std::size_t min_files = 100);

  bool wants_diff() const override { return true; }
  /// atime/mtime feed the cv samples; gid keys the project grouping. The
  /// diff's own columns arrive via the runner's diff mask.
  ColumnMask columns_needed() const override {
    return kColMaskAtime | kColMaskMtime | kColMaskGid;
  }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  void finish() override;

  const BurstinessResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  std::size_t min_files_;
  std::vector<std::vector<double>> write_samples_;  // per domain
  std::vector<std::vector<double>> read_samples_;
  BurstinessResult result_;
};

}  // namespace spider
