#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "engine/diff.h"
#include "snapshot/scol.h"
#include "study/checkpoint.h"
#include "trace.h"
#include "util/io.h"

namespace spiderbench {

using namespace spider;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// One timed read_scol_file under `columns`, in ms; negative on failure.
double timed_read(const std::string& file, ColumnMask columns, Tracer& tracer,
                  std::uint32_t name, std::int64_t week) {
  ScolOptions options;
  options.columns = columns;
  SnapshotTable table;
  const Tracer::Scope scope(tracer, name, week);
  const std::int64_t start = now_ns();
  const Status s = read_scol_file(file, &table, options);
  const double ms = static_cast<double>(now_ns() - start) / 1e6;
  return s.ok() ? ms : -1;
}

}  // namespace

bool probe_columns(const Prepared& prep, Tracer& tracer, ProbeResults* out) {
  const std::uint32_t checksum_name = tracer.intern("probe.snapshot.checksum");
  std::array<std::uint32_t, kColumnNames.size()> names{};
  for (std::size_t c = 0; c < kColumnNames.size(); ++c) {
    names[c] = tracer.intern(std::string("probe.snapshot.decode.") +
                             kColumnNames[c]);
  }
  // The fastest of a few reads: single-column decodes cost about as much
  // as the scheduling noise of one read.
  constexpr int kReps = 3;
  auto fastest = [&](const std::string& file, ColumnMask columns,
                     std::uint32_t name, std::int64_t week) {
    double best = -1;
    for (int rep = 0; rep < kReps; ++rep) {
      const double ms = timed_read(file, columns, tracer, name, week);
      if (ms < 0) return -1.0;
      best = best < 0 ? ms : std::min(best, ms);
    }
    return best;
  };
  double checksum_total = 0;
  std::array<double, kColumnNames.size()> decode_total{};
  for (std::size_t w = 0; w < prep.files.size(); ++w) {
    const std::string& file = prep.files[w].path;
    const auto week = static_cast<std::int64_t>(w);
    const double base = fastest(file, kColMaskNone, checksum_name, week);
    if (base < 0) return false;
    checksum_total += base;
    for (std::size_t c = 0; c < kColumnNames.size(); ++c) {
      const double ms = fastest(file, ColumnMask{1u} << c, names[c], week);
      if (ms < 0) return false;
      decode_total[c] += ms - base;
    }
  }
  const auto weeks = static_cast<double>(prep.files.size());
  out->checksum_ms = checksum_total / weeks;
  for (std::size_t c = 0; c < kColumnNames.size(); ++c) {
    out->decode_ms[c] = decode_total[c] / weeks;
  }
  return true;
}

bool probe_diffs(const Prepared& prep, ThreadPool& pool, Tracer& tracer,
                 ProbeResults* out) {
  const std::uint32_t name = tracer.intern("probe.engine.diff");
  DirectorySeries series;
  if (!series.open(prep.series_dir).ok()) return false;
  const std::vector<std::size_t> slots = file_slots(series);
  ScolOptions options;
  options.columns = kColMaskPaths | kColMaskAtime | kColMaskCtime |
                    kColMaskMtime | kColMaskMode;
  SnapshotTable prev;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    SnapshotTable cur;
    if (!read_scol_file(series.files()[i], &cur, options).ok()) return false;
    if (i > 0 && slots[i] == slots[i - 1] + 1) {
      DiffBreakdown breakdown;
      DiffResult diff;
      {
        const Tracer::Scope scope(tracer, name,
                                  static_cast<std::int64_t>(slots[i]));
        diff = diff_snapshots(prev, cur, &pool, &breakdown);
      }
      ++out->diff_pairs;
      out->diff_build_ms += breakdown.build_s * 1e3;
      out->diff_probe_ms += breakdown.probe_s * 1e3;
      out->diff_sweep_ms += breakdown.sweep_s * 1e3;
      out->new_frac += diff.new_fraction();
      out->updated_frac += diff.updated_fraction();
      out->deleted_frac += diff.deleted_fraction();
    }
    prev = std::move(cur);
  }
  if (out->diff_pairs == 0) return false;
  const auto pairs = static_cast<double>(out->diff_pairs);
  out->diff_build_ms /= pairs;
  out->diff_probe_ms /= pairs;
  out->diff_sweep_ms /= pairs;
  out->new_frac /= pairs;
  out->updated_frac /= pairs;
  out->deleted_frac /= pairs;
  return true;
}

bool probe_checkpoint(const std::string& checkpoint, const std::string& copy,
                      int reps, Tracer& tracer, ProbeResults* out) {
  const std::uint32_t load_name = tracer.intern("probe.study.checkpoint.load");
  const std::uint32_t save_name = tracer.intern("probe.study.checkpoint.save");
  std::vector<double> load_ms, save_ms;
  for (int rep = 0; rep < reps; ++rep) {
    StudyCheckpoint ckpt;
    std::int64_t start = now_ns();
    {
      const Tracer::Scope scope(tracer, load_name, -1);
      if (!load_checkpoint(checkpoint, &ckpt).ok()) return false;
    }
    load_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    start = now_ns();
    {
      const Tracer::Scope scope(tracer, save_name, -1);
      if (!save_checkpoint(copy, ckpt).ok()) return false;
    }
    save_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  std::vector<std::uint8_t> original, resaved;
  if (!read_file(checkpoint, &original).ok() ||
      !read_file(copy, &resaved).ok()) {
    return false;
  }
  out->checkpoint_bytes = static_cast<double>(original.size());
  out->checkpoint_load_ms = median(load_ms);
  out->checkpoint_save_ms = median(save_ms);
  out->checkpoint_round_trip = original == resaved;
  std::error_code ec;
  std::filesystem::remove(copy, ec);
  return true;
}

}  // namespace spiderbench
