// Fig 13: weekly access-pattern breakdown from adjacent-snapshot diffs —
// new / deleted / readonly / updated / untouched — plus the study-wide
// averages the paper reports (3% readonly, 10% updated, 76% untouched,
// 13% deleted, 22% new).
#pragma once

#include <string>
#include <vector>

#include "study/runner.h"

namespace spider {

struct AccessPatternWeek {
  std::int64_t date = 0;
  double new_frac = 0, deleted_frac = 0, readonly_frac = 0, updated_frac = 0,
         untouched_frac = 0;
};
// Checkpointed as a raw vector image: must stay padding-free.
template <>
inline constexpr bool kRawSerializable<AccessPatternWeek> =
    sizeof(AccessPatternWeek) == sizeof(std::int64_t) + 5 * sizeof(double);

struct AccessPatternsResult {
  std::vector<AccessPatternWeek> weeks;
  double avg_new = 0, avg_deleted = 0, avg_readonly = 0, avg_updated = 0,
         avg_untouched = 0;
  /// Adjacent-week pairs excluded because a series gap (missing/corrupt
  /// week) sat between them; the averages cover the remaining pairs.
  std::size_t gap_pairs_skipped = 0;
};

class AccessPatternsAnalyzer : public StudyAnalyzer {
 public:
  bool wants_diff() const override { return true; }
  /// Week-level only: everything it reads comes from the shared diff (the
  /// runner adds the diff's columns), so no per-row scan work and no
  /// chunk state — the default merge() forwards to observe() once a week.
  /// Merge-time reads are safe under the fused diff kernel too: the
  /// kernel's merge runs first (registration order) and completes
  /// obs.diff before this analyzer's merge sees it.
  ColumnMask columns_needed() const override { return kColMaskNone; }
  void observe(const WeekObservation& obs) override;
  /// Consumes only the week's DiffResult — already O(1) in snapshot size —
  /// so the delta port is observe() itself; on delta weeks obs.diff is
  /// final by the time apply_delta runs.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs, const WeekDelta&) override {
    observe(obs);
  }
  void finish() override;

  std::string_view state_id() const override { return "access-patterns"; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const AccessPatternsResult& result() const { return result_; }
  std::string render() const;

 private:
  AccessPatternsResult result_;
};

}  // namespace spider
