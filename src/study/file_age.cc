#include "study/file_age.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/stats.h"
#include "util/table.h"
#include "util/timeutil.h"

namespace spider {

namespace {

std::int64_t age_seconds(const SnapshotTable& table, std::size_t row) {
  return std::max<std::int64_t>(0, table.atime(row) - table.mtime(row));
}

/// Exact-integer mean: both scan and delta paths feed the same formula, so
/// the average never depends on accumulation order.
double mean_age_days(std::int64_t sum_seconds, std::size_t count) {
  if (count == 0) return 0.0;
  return static_cast<double>(sum_seconds) /
         (static_cast<double>(count) * static_cast<double>(kSecondsPerDay));
}

/// percentile_sorted(days, 50) over the converted multiset, without
/// materializing the double vector: seconds -> days is strictly monotonic
/// (and injective for any realistic age), so converting the two
/// interpolation endpoints reproduces the double-path result exactly.
double median_age_days(std::span<const std::int64_t> sorted) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return seconds_to_days(sorted[0]);
  const double pos = 0.5 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const double a = seconds_to_days(sorted[lo]);
  const double b = seconds_to_days(sorted[hi]);
  return a + frac * (b - a);
}

struct FileAgeChunk : ScanChunkState {
  std::int64_t sum = 0;
  std::vector<std::int64_t> ages;  // row order
};

}  // namespace

std::unique_ptr<ScanChunkState> FileAgeAnalyzer::make_chunk_state() const {
  return std::make_unique<FileAgeChunk>();
}

void FileAgeAnalyzer::observe_chunk(ScanChunkState* state,
                                    const WeekObservation&,
                                    const ScanMorsel& m) {
  auto* chunk = static_cast<FileAgeChunk*>(state);
  const SnapshotTable& table = *m.table;
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const std::size_t r = m.local(i);
    if (table.is_dir(r)) continue;
    const std::int64_t age = age_seconds(table, r);
    chunk->sum += age;
    chunk->ages.push_back(age);
  }
}

void FileAgeAnalyzer::merge(const WeekObservation& obs, ScanStateList states) {
  std::int64_t sum = 0;
  std::vector<std::int64_t> ages;
  ages.reserve(obs.file_count);
  for (const auto& state : states) {
    const auto* chunk = static_cast<const FileAgeChunk*>(state.get());
    sum += chunk->sum;
    ages.insert(ages.end(), chunk->ages.begin(), chunk->ages.end());
  }
  std::sort(ages.begin(), ages.end());
  FileAgePoint point;
  point.date = obs.snap->taken_at;
  point.avg_age_days = mean_age_days(sum, ages.size());
  point.median_age_days = median_age_days(ages);
  result_.points.push_back(point);
  if (obs.incremental) {
    live_sum_ = sum;
    live_ages_ = std::move(ages);
  }
}

void FileAgeAnalyzer::apply_delta(const WeekObservation& obs,
                                  const WeekDelta& delta) {
  const SnapshotTable& cur = *delta.cur;
  const SnapshotTable& prev = *delta.prev;
  const DiffResult& diff = *delta.diff;

  // Ages leaving the population: deleted files, plus the stale prev-side
  // ages of files whose atime or mtime moved this week.
  std::vector<std::int64_t> removed;
  removed.reserve(diff.deleted_rows.size() + diff.readonly_prev_rows.size() +
                  diff.updated_prev_rows.size());
  for (const std::uint32_t row : diff.deleted_rows) {
    removed.push_back(age_seconds(prev, row));
  }
  for (const std::uint32_t row : diff.readonly_prev_rows) {
    removed.push_back(age_seconds(prev, row));
  }
  for (const std::uint32_t row : diff.updated_prev_rows) {
    removed.push_back(age_seconds(prev, row));
  }
  std::sort(removed.begin(), removed.end());

  std::vector<std::int64_t> added;
  added.reserve(diff.new_rows.size() + diff.readonly_rows.size() +
                diff.updated_rows.size());
  for (const std::uint32_t row : diff.new_rows) {
    added.push_back(age_seconds(cur, row));
  }
  for (const std::uint32_t row : diff.readonly_rows) {
    added.push_back(age_seconds(cur, row));
  }
  for (const std::uint32_t row : diff.updated_rows) {
    added.push_back(age_seconds(cur, row));
  }
  std::sort(added.begin(), added.end());

  for (const std::int64_t age : removed) live_sum_ -= age;
  for (const std::int64_t age : added) live_sum_ += age;

  // Multiset difference then merge; every removed age is present by
  // construction (it was in the previous snapshot's population).
  std::vector<std::int64_t> kept;
  kept.reserve(live_ages_.size() - removed.size());
  std::size_t r = 0;
  for (const std::int64_t age : live_ages_) {
    if (r < removed.size() && removed[r] == age) {
      ++r;
      continue;
    }
    kept.push_back(age);
  }
  std::vector<std::int64_t> next(kept.size() + added.size());
  std::merge(kept.begin(), kept.end(), added.begin(), added.end(),
             next.begin());

  FileAgePoint point;
  point.date = obs.snap->taken_at;
  point.avg_age_days = mean_age_days(live_sum_, next.size());
  point.median_age_days = median_age_days(next);
  result_.points.push_back(point);
  live_ages_ = std::move(next);
}

bool FileAgeAnalyzer::save_state(StateWriter& w) const {
  w.i64(live_sum_);
  w.vec(live_ages_);
  w.vec(result_.points);
  return true;
}

bool FileAgeAnalyzer::load_state(StateReader& r) {
  const std::int64_t live_sum = r.i64();
  std::vector<std::int64_t> live_ages;
  std::vector<FileAgePoint> points;
  if (!r.vec(&live_ages) || !r.vec(&points) || !r.ok()) return false;
  live_sum_ = live_sum;
  live_ages_ = std::move(live_ages);
  result_.points = std::move(points);
  return true;
}

void FileAgeAnalyzer::finish() {
  if (result_.points.empty()) return;
  std::vector<double> averages;
  std::size_t above = 0;
  for (const FileAgePoint& p : result_.points) {
    averages.push_back(p.avg_age_days);
    if (p.avg_age_days > result_.purge_days) ++above;
  }
  result_.median_of_averages = percentile(averages, 50.0);
  result_.max_of_averages = *std::max_element(averages.begin(), averages.end());
  result_.fraction_above_purge =
      static_cast<double>(above) / static_cast<double>(result_.points.size());
}

std::string FileAgeAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 16: average file age (atime - mtime) per snapshot, purge window "
     << result_.purge_days << " days\n";
  AsciiTable t({"snapshot", "avg age (days)", "median age (days)"});
  const std::size_t step =
      std::max<std::size_t>(1, result_.points.size() / 14);
  for (std::size_t i = 0; i < result_.points.size(); i += step) {
    const FileAgePoint& p = result_.points[i];
    t.add_row({date_iso(p.date), format_double(p.avg_age_days, 1),
               format_double(p.median_age_days, 1)});
  }
  t.print(os);
  os << "median of snapshot averages: "
     << format_double(result_.median_of_averages, 0)
     << " days (paper: 138); max: "
     << format_double(result_.max_of_averages, 0)
     << " (paper: 214); above the purge window in "
     << format_percent(result_.fraction_above_purge)
     << " of snapshots (paper: 86%)\n";
  return os.str();
}

}  // namespace spider
