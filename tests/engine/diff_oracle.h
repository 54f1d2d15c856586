// The test suite's independent diff oracle: a serial sort-merge join that
// shares no code with engine/diff.cc — its own row gathering, sort,
// classifier and output ordering — so a defect in the production join's
// probe, classifier or finalize step cannot cancel out against it.
//
// Both sides' file rows are sorted by (path hash, path) and merged; the
// matched pairs are classified on timestamp equality (the Fig 13 rules in
// engine/diff.h), and every list is finally re-sorted into diff_snapshots'
// ascending-current-row contract, prev-row lists kept index-parallel.
// Directories get the same walk when DiffOptions::dirs is set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/diff.h"
#include "snapshot/table.h"

namespace spider {
namespace oracle_detail {

/// Ascending rows of `table` that are directories (dirs) or files (!dirs).
inline std::vector<std::uint32_t> rows_where(const SnapshotTable& table,
                                             bool dirs) {
  std::vector<std::uint32_t> rows;
  for (std::size_t row = 0; row < table.size(); ++row) {
    if (table.is_dir(row) == dirs) {
      rows.push_back(static_cast<std::uint32_t>(row));
    }
  }
  return rows;
}

/// `rows` sorted by (path hash, path).
inline std::vector<std::uint32_t> sorted_by_path(
    const SnapshotTable& table, std::vector<std::uint32_t> rows) {
  std::sort(rows.begin(), rows.end(),
            [&table](std::uint32_t a, std::uint32_t b) {
              if (table.path_hash(a) != table.path_hash(b)) {
                return table.path_hash(a) < table.path_hash(b);
              }
              return table.path(a) < table.path(b);
            });
  return rows;
}

/// Merges the (hash, path)-sorted rows of both sides, calling
/// on_deleted(prev_row), on_new(cur_row) or on_matched(prev_row, cur_row).
template <typename OnDeleted, typename OnNew, typename OnMatched>
void merge_sorted(const SnapshotTable& prev, const SnapshotTable& cur,
                  const std::vector<std::uint32_t>& lhs,
                  const std::vector<std::uint32_t>& rhs, OnDeleted on_deleted,
                  OnNew on_new, OnMatched on_matched) {
  std::size_t i = 0, j = 0;
  while (i < lhs.size() && j < rhs.size()) {
    const std::uint32_t a = lhs[i];
    const std::uint32_t b = rhs[j];
    const std::uint64_t ha = prev.path_hash(a);
    const std::uint64_t hb = cur.path_hash(b);
    if (ha < hb || (ha == hb && prev.path(a) < cur.path(b))) {
      on_deleted(a);
      ++i;
    } else if (ha == hb && prev.path(a) == cur.path(b)) {
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

/// Sorts index-parallel (cur, prev) lists by cur row. Cur rows are unique,
/// so the pair sort is a sort by cur row.
inline void co_sort(std::vector<std::uint32_t>& cur_rows,
                    std::vector<std::uint32_t>& prev_rows) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t i = 0; i < cur_rows.size(); ++i) {
    pairs.emplace_back(cur_rows[i], prev_rows[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    cur_rows[i] = pairs[i].first;
    prev_rows[i] = pairs[i].second;
  }
}

}  // namespace oracle_detail

/// The oracle: same DiffResult contract as diff_snapshots, serial.
inline DiffResult diff_snapshots_sortmerge(const SnapshotTable& prev,
                                           const SnapshotTable& cur,
                                           const DiffOptions& options = {}) {
  using namespace oracle_detail;
  DiffResult result;
  result.prev_files = prev.file_count();
  result.cur_files = cur.file_count();
  result.has_prev_rows = options.prev_rows;
  // Prev rows are recorded unconditionally and dropped at the end when
  // not requested, so the classifier below has one shape.
  std::vector<std::uint32_t> readonly_prev, updated_prev, untouched_prev;

  merge_sorted(
      prev, cur, sorted_by_path(prev, rows_where(prev, false)),
      sorted_by_path(cur, rows_where(cur, false)),
      [&](std::uint32_t a) { result.deleted_rows.push_back(a); },
      [&](std::uint32_t b) { result.new_rows.push_back(b); },
      [&](std::uint32_t a, std::uint32_t b) {
        const bool same_atime = cur.atime(b) == prev.atime(a);
        const bool same_mtime = cur.mtime(b) == prev.mtime(a);
        const bool same_ctime = cur.ctime(b) == prev.ctime(a);
        if (!same_mtime || !same_ctime) {
          result.updated_rows.push_back(b);
          updated_prev.push_back(a);
        } else if (!same_atime) {
          result.readonly_rows.push_back(b);
          readonly_prev.push_back(a);
        } else {
          result.untouched_rows.push_back(b);
          untouched_prev.push_back(a);
        }
      });

  std::sort(result.new_rows.begin(), result.new_rows.end());
  std::sort(result.deleted_rows.begin(), result.deleted_rows.end());
  co_sort(result.readonly_rows, readonly_prev);
  co_sort(result.updated_rows, updated_prev);
  co_sort(result.untouched_rows, untouched_prev);
  if (options.prev_rows) {
    result.readonly_prev_rows = std::move(readonly_prev);
    result.updated_prev_rows = std::move(updated_prev);
    result.untouched_prev_rows = std::move(untouched_prev);
  }

  if (options.dirs) {
    result.has_dir_diff = true;
    merge_sorted(
        prev, cur, sorted_by_path(prev, rows_where(prev, true)),
        sorted_by_path(cur, rows_where(cur, true)),
        [&](std::uint32_t a) { result.deleted_dir_rows.push_back(a); },
        [&](std::uint32_t b) { result.new_dir_rows.push_back(b); },
        [&](std::uint32_t a, std::uint32_t b) {
          // "Changed" = any of the three timestamps differs.
          if (cur.atime(b) != prev.atime(a) || cur.mtime(b) != prev.mtime(a) ||
              cur.ctime(b) != prev.ctime(a)) {
            result.changed_dir_rows.push_back(b);
            result.changed_dir_prev_rows.push_back(a);
          }
        });
    std::sort(result.new_dir_rows.begin(), result.new_dir_rows.end());
    std::sort(result.deleted_dir_rows.begin(), result.deleted_dir_rows.end());
    co_sort(result.changed_dir_rows, result.changed_dir_prev_rows);
  }
  return result;
}

}  // namespace spider
