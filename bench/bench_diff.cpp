// Diff join benchmark: diff_snapshots, the radix-partitioned join
// (DESIGN.md §11), versus the PRE-REWRITE diff_snapshots, vendored below as
// `legacy` so the baseline doesn't move when the library improves.
//
// For each of two scale factors the harness generates one adjacent weekly
// snapshot pair and times build / probe / sweep of both joins at several
// thread counts, best-of --reps. One diff = one week of the study's join
// work, so `total ms` is exactly the diff time-per-week. Every run is
// checked byte-identical against the legacy 1-thread reference before any
// number is reported, and the results land in BENCH_diff.json.
//
// Flags: --scale / --scale2 (the two factors), --seed (bench_common),
// --reps=<n> best-of-n (default 3), --out=<path> for the JSON.
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/diff.h"
#include "snapshot/series.h"
#include "synth/generator.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace spider;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The seed's path index, frozen: 4-byte row slots (row + 1, 0 = empty),
/// no in-slot fingerprint, so every occupied candidate is confirmed
/// through a random read of the hash column. The library's indexes have
/// since gained fingerprint slots, partitioning and a Bloom pre-filter —
/// the baseline must not inherit any of that.
class LegacySeedPathIndex {
 public:
  static constexpr std::uint32_t kNotFound = 0xffff'ffffu;
  explicit LegacySeedPathIndex(const SnapshotTable& table, bool files_only)
      : table_(table) {
    const std::size_t rows = table.size();
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(rows * 2, 16));
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::size_t row = 0; row < rows; ++row) {
      if (files_only && table.is_dir(row)) continue;
      std::uint64_t slot = table.path_hash(row) & mask_;
      for (;;) {
        if (slots_[slot] == 0) {
          slots_[slot] = static_cast<std::uint32_t>(row) + 1;
          break;
        }
        const std::uint32_t other = slots_[slot] - 1;
        if (table_.path_hash(other) == table.path_hash(row) &&
            table_.path(other) == table.path(row)) {
          break;  // duplicate path: keep the first row
        }
        slot = (slot + 1) & mask_;
      }
    }
  }
  std::uint32_t lookup(std::uint64_t hash, std::string_view path) const {
    std::uint64_t slot = hash & mask_;
    for (;;) {
      const std::uint32_t stored = slots_[slot];
      if (stored == 0) return kNotFound;
      const std::uint32_t row = stored - 1;
      if (table_.path_hash(row) == hash && table_.path(row) == path) {
        return row;
      }
      slot = (slot + 1) & mask_;
    }
  }

 private:
  const SnapshotTable& table_;
  std::vector<std::uint32_t> slots_;  // row + 1; 0 = empty
  std::uint64_t mask_ = 0;
};

/// The seed's diff_snapshots, frozen: whole-table seed index built
/// serially, match flags over every previous-week row (directories
/// included, zeroed one by one), parallel probe with three random
/// timestamp-column reads per hit, serial deleted sweep re-testing is_dir
/// per row. Only the pool is threaded through so thread-count settings
/// compare like for like.
DiffResult legacy_diff_snapshots(const SnapshotTable& prev,
                                 const SnapshotTable& cur, ThreadPool* pool,
                                 DiffBreakdown* breakdown) {
  DiffResult result;
  result.prev_files = prev.file_count();
  result.cur_files = cur.file_count();

  auto mark = std::chrono::steady_clock::now();
  const LegacySeedPathIndex index(prev, /*files_only=*/true);
  std::unique_ptr<std::atomic<std::uint8_t>[]> matched(
      new std::atomic<std::uint8_t>[prev.size()]);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    matched[i].store(0, std::memory_order_relaxed);
  }
  breakdown->build_s = seconds_since(mark);
  mark = std::chrono::steady_clock::now();

  struct Partial {
    std::vector<std::uint32_t> rows[4];  // new, updated, readonly, untouched
  };
  constexpr std::size_t kGrain = 8192;
  const std::size_t n = cur.size();
  const std::size_t chunks = n == 0 ? 0 : (n + kGrain - 1) / kGrain;
  std::vector<Partial> partials(chunks);

  parallel_for_chunked(
      n, kGrain,
      [&](std::size_t begin, std::size_t end) {
        Partial& p = partials[begin / kGrain];
        for (std::size_t row = begin; row < end; ++row) {
          if (cur.is_dir(row)) continue;
          const std::uint32_t prev_row =
              index.lookup(cur.path_hash(row), cur.path(row));
          if (prev_row == LegacySeedPathIndex::kNotFound) {
            p.rows[0].push_back(static_cast<std::uint32_t>(row));
            continue;
          }
          matched[prev_row].store(1, std::memory_order_relaxed);
          const bool atime_same = cur.atime(row) == prev.atime(prev_row);
          const bool mtime_same = cur.mtime(row) == prev.mtime(prev_row);
          const bool ctime_same = cur.ctime(row) == prev.ctime(prev_row);
          if (mtime_same && ctime_same && atime_same) {
            p.rows[3].push_back(static_cast<std::uint32_t>(row));
          } else if (mtime_same && ctime_same) {
            p.rows[2].push_back(static_cast<std::uint32_t>(row));
          } else {
            p.rows[1].push_back(static_cast<std::uint32_t>(row));
          }
        }
      },
      pool);
  breakdown->probe_s = seconds_since(mark);
  mark = std::chrono::steady_clock::now();

  std::size_t totals[4] = {0, 0, 0, 0};
  for (const Partial& p : partials) {
    for (int k = 0; k < 4; ++k) totals[k] += p.rows[k].size();
  }
  result.new_rows.reserve(totals[0]);
  result.updated_rows.reserve(totals[1]);
  result.readonly_rows.reserve(totals[2]);
  result.untouched_rows.reserve(totals[3]);
  for (Partial& p : partials) {
    result.new_rows.insert(result.new_rows.end(), p.rows[0].begin(),
                           p.rows[0].end());
    result.updated_rows.insert(result.updated_rows.end(), p.rows[1].begin(),
                               p.rows[1].end());
    result.readonly_rows.insert(result.readonly_rows.end(), p.rows[2].begin(),
                                p.rows[2].end());
    result.untouched_rows.insert(result.untouched_rows.end(),
                                 p.rows[3].begin(), p.rows[3].end());
  }
  for (std::size_t row = 0; row < prev.size(); ++row) {
    if (prev.is_dir(row)) continue;
    if (matched[row].load(std::memory_order_relaxed) == 0) {
      result.deleted_rows.push_back(static_cast<std::uint32_t>(row));
    }
  }
  breakdown->sweep_s = seconds_since(mark);
  return result;
}

bool results_equal(const DiffResult& a, const DiffResult& b) {
  return a.prev_files == b.prev_files && a.cur_files == b.cur_files &&
         a.new_rows == b.new_rows && a.readonly_rows == b.readonly_rows &&
         a.updated_rows == b.updated_rows &&
         a.untouched_rows == b.untouched_rows &&
         a.deleted_rows == b.deleted_rows;
}

struct Timing {
  DiffBreakdown phases;
  double total = 0;
  bool identical = true;
};

/// Best-of-reps timing of one join; every rep's result is checked against
/// the reference.
template <typename Fn>
Timing time_strategy(int reps, const DiffResult& reference, Fn&& fn) {
  Timing best;
  best.total = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    DiffBreakdown phases;
    const DiffResult result = fn(&phases);
    const double total = phases.build_s + phases.probe_s + phases.sweep_s;
    if (!results_equal(result, reference)) best.identical = false;
    if (total < best.total) {
      best.total = total;
      best.phases = phases;
    }
  }
  return best;
}

struct StrategyRow {
  std::string name;
  Timing timing;
};

struct Setting {
  unsigned threads;
  std::vector<StrategyRow> strategies;
};

std::string ms(double seconds) { return format_double(1000.0 * seconds, 2); }

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double scale_a = args.get_double("scale", 2e-4);
  const double scale_b = args.get_double("scale2", 1e-3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20150105));
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("== Diff join — radix-partitioned vs legacy ==\n");
  std::printf(
      "one adjacent weekly pair per scale; total ms = diff time-per-week; "
      "best of %d rep(s)\n\n",
      reps);

  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  struct ScaleReport {
    double scale;
    std::size_t prev_rows, cur_rows, prev_files, cur_files;
    std::vector<Setting> settings;
    bool identical = true;
  };
  std::vector<ScaleReport> reports;

  for (const double scale : {scale_a, scale_b}) {
    FacilityConfig config;
    config.scale = scale;
    config.weeks = 2;
    config.seed = seed;
    config.maintenance_gaps = false;
    FacilityGenerator generator(config);
    std::vector<Snapshot> snaps;
    generator.visit_move(
        [&](std::size_t, Snapshot&& snap) { snaps.push_back(std::move(snap)); });
    if (snaps.size() < 2) {
      std::fprintf(stderr, "generator produced %zu week(s), need 2\n",
                   snaps.size());
      return 1;
    }
    const SnapshotTable& prev = snaps[0].table;
    const SnapshotTable& cur = snaps[1].table;

    ScaleReport report;
    report.scale = scale;
    report.prev_rows = prev.size();
    report.cur_rows = cur.size();
    report.prev_files = prev.file_count();
    report.cur_files = cur.file_count();

    // The bit-identity yardstick for both joins at every thread count.
    ThreadPool one(1);
    DiffBreakdown ref_phases;
    const DiffResult reference =
        legacy_diff_snapshots(prev, cur, &one, &ref_phases);

    std::printf("scale %g: prev %s rows / cur %s rows (%s / %s files)\n",
                scale, format_with_commas(prev.size()).c_str(),
                format_with_commas(cur.size()).c_str(),
                format_with_commas(prev.file_count()).c_str(),
                format_with_commas(cur.file_count()).c_str());

    AsciiTable table({"threads", "strategy", "build ms", "probe ms",
                      "sweep ms", "total ms", "vs legacy"});
    for (const unsigned threads : thread_counts) {
      ThreadPool pool(threads);
      Setting setting;
      setting.threads = threads;

      const Timing legacy =
          time_strategy(reps, reference, [&](DiffBreakdown* phases) {
            return legacy_diff_snapshots(prev, cur, &pool, phases);
          });
      setting.strategies.push_back({"legacy", legacy});

      const Timing partitioned =
          time_strategy(reps, reference, [&](DiffBreakdown* phases) {
            return diff_snapshots(prev, cur, &pool, phases);
          });
      setting.strategies.push_back({"partitioned", partitioned});

      for (const StrategyRow& row : setting.strategies) {
        if (!row.timing.identical) report.identical = false;
        table.add_row({std::to_string(threads), row.name,
                       ms(row.timing.phases.build_s),
                       ms(row.timing.phases.probe_s),
                       ms(row.timing.phases.sweep_s), ms(row.timing.total),
                       format_double(legacy.total / row.timing.total, 2) +
                           "x"});
      }
      report.settings.push_back(std::move(setting));
    }
    table.print(std::cout);
    std::printf("bit-identity self-check: %s\n\n",
                report.identical ? "ok (both joins, all thread counts)"
                                 : "FAILED");
    reports.push_back(std::move(report));
    if (!reports.back().identical) return 1;
  }

  const std::string json_path = args.get("out", "BENCH_diff.json");
  std::ofstream json(json_path);
  json << "{\n  \"reps\": " << reps << ",\n  \"hardware_threads\": " << hw
       << ",\n  \"scales\": [\n";
  for (std::size_t s = 0; s < reports.size(); ++s) {
    const ScaleReport& report = reports[s];
    json << "    {\n      \"scale\": " << report.scale
         << ",\n      \"prev_rows\": " << report.prev_rows
         << ",\n      \"cur_rows\": " << report.cur_rows
         << ",\n      \"prev_files\": " << report.prev_files
         << ",\n      \"cur_files\": " << report.cur_files
         << ",\n      \"bit_identical\": "
         << (report.identical ? "true" : "false")
         << ",\n      \"settings\": [\n";
    for (std::size_t i = 0; i < report.settings.size(); ++i) {
      const Setting& setting = report.settings[i];
      double legacy_total = 0, partitioned_total = 0;
      json << "        {\"threads\": " << setting.threads;
      for (const StrategyRow& row : setting.strategies) {
        if (row.name == "legacy") legacy_total = row.timing.total;
        if (row.name == "partitioned") partitioned_total = row.timing.total;
        json << ", \"" << row.name << "_ms\": {\"build\": "
             << 1000.0 * row.timing.phases.build_s
             << ", \"probe\": " << 1000.0 * row.timing.phases.probe_s
             << ", \"sweep\": " << 1000.0 * row.timing.phases.sweep_s
             << ", \"total\": " << 1000.0 * row.timing.total << "}";
      }
      json << ", \"speedup_partitioned_vs_legacy\": "
           << legacy_total / partitioned_total << "}"
           << (i + 1 < report.settings.size() ? "," : "") << "\n";
    }
    json << "      ]\n    }" << (s + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
