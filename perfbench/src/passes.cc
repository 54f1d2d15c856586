#include "bench.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "snapshot/scol.h"
#include "study/checkpoint.h"
#include "synth/infer.h"
#include "trace.h"

namespace spiderbench {

namespace fs = std::filesystem;
using namespace spider;

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS
/// counter (VmHWM) at the current RSS, so the next read measures one pass.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// A field of /proc/self/status in kB ("VmHWM:", "VmRSS:"), or 0.
double proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

/// Bytes this process has passed to write(2) and friends (/proc/self/io).
std::uint64_t write_chars() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// Snapshots delivered by a run, with their rows and bytes: the whole
/// directory, or on a resumed run only the files past the checkpointed
/// slot.
void analyzed_weeks(const Prepared& prep, const DirectorySeries& series,
                    const CheckpointReport& report, PassOutcome* out) {
  const std::vector<std::size_t> slots = file_slots(series);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (report.resumed && slots[i] <= report.resumed_week) continue;
    ++out->weeks;
    const fs::path name = fs::path(series.files()[i]).filename();
    for (const SeriesFile& f : prep.files) {
      if (fs::path(f.path).filename() == name) {
        out->rows += f.rows;
        out->bytes += f.bytes;
      }
    }
  }
}

/// FullStudy's analyzers, parallel to kAnalyzerLabels.
std::array<StudyAnalyzer*, kAnalyzerLabels.size()> registration_order(
    FullStudy& s) {
  return {&s.user_profile, &s.participation,   &s.census,   &s.extensions,
          &s.languages,    &s.access_patterns, &s.striping, &s.growth,
          &s.file_age,     &s.burstiness,      &s.network,  &s.collaboration};
}

std::vector<std::string> describe(std::span<const SeriesGap> gaps) {
  std::vector<std::string> out;
  for (const SeriesGap& gap : gaps) out.push_back(gap.describe());
  return out;
}

}  // namespace

std::vector<std::size_t> file_slots(const DirectorySeries& series) {
  // Collection holes (gaps without a file) occupy slots of their own; a
  // file that failed to decode keeps its slot and shows up as a gap too.
  std::set<std::size_t> holes;
  for (const SeriesGap& gap : series.gaps()) {
    if (gap.file.empty()) holes.insert(gap.week);
  }
  std::vector<std::size_t> slots;
  std::size_t slot = 0;
  for (std::size_t i = 0; i < series.files().size(); ++i, ++slot) {
    while (holes.count(slot) != 0) ++slot;
    slots.push_back(slot);
  }
  return slots;
}

std::string checkpoint_outline(std::span<const std::uint8_t> image) {
  StudyCheckpoint ckpt;
  if (!decode_checkpoint(image, &ckpt).ok()) return {};
  std::string out = "week " + std::to_string(ckpt.week) + " taken_at " +
                    std::to_string(ckpt.taken_at) + " degraded " +
                    std::to_string(ckpt.degraded) + " fingerprint " +
                    std::to_string(ckpt.table_fingerprint) + " columns " +
                    std::to_string(ckpt.columns_mask) + " grain " +
                    std::to_string(ckpt.grain) + " probe " +
                    std::to_string(ckpt.hash_probe) + "\n";
  for (const SeriesGap& gap : ckpt.gaps) out += gap.describe() + "\n";
  for (const AnalyzerCheckpoint& a : ckpt.analyzers) {
    out += "'" + a.id + "' v" + std::to_string(a.version) +
           (a.has_state ? " state " : " marker ") +
           std::to_string(a.blob.size()) + "\n";
  }
  return out;
}

bool Bundle::matches(const Bundle& other) const {
  return analysis == other.analysis && gaps == other.gaps &&
         (quality.empty() || quality == other.quality);
}

std::uint64_t Bundle::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string* s : {&analysis, &quality}) {
    for (const unsigned char c : *s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

Bundle render_bundle(const FullStudy& study) {
  Bundle b;
  b.analysis = study.render_table1();
  b.analysis += study.user_profile.render();
  b.analysis += study.participation.render();
  b.analysis += study.census.render();
  b.analysis += study.extensions.render();
  b.analysis += study.languages.render();
  b.analysis += study.access_patterns.render();
  b.analysis += study.striping.render();
  b.analysis += study.growth.render();
  b.analysis += study.file_age.render();
  b.analysis += study.burstiness.render();
  b.analysis += study.network.render();
  b.analysis += study.collaboration.render();
  b.quality = study.render_data_quality();
  b.gaps = describe(study.gaps());
  return b;
}

std::uint64_t Prepared::rows() const {
  std::uint64_t n = 0;
  for (const SeriesFile& f : files) n += f.rows;
  return n;
}

std::uint64_t Prepared::bytes() const {
  std::uint64_t n = 0;
  for (const SeriesFile& f : files) n += f.bytes;
  return n;
}

PassOutcome run_pass(const Prepared& prep, const std::string& dir,
                     const StudyOptions& options, const Bundle& expect,
                     Tracer* tracer) {
  PassOutcome out;
  DirectorySeries series;
  if (!series.open(dir).ok()) return out;
  StudyOptions run_options = options;
  run_options.checkpoint_report = &out.checkpoint;

  reset_peak_rss();
  const std::uint64_t wchar_before = write_chars();
  const std::int64_t start = now_ns();
  auto study = std::make_unique<FullStudy>(*prep.resolver, kBurstMinFiles);
  Bundle bundle;
  if (tracer == nullptr) {
    study->run(series, run_options);
    bundle = render_bundle(*study);
  } else {
    const Tracer::Scope pass(*tracer, tracer->intern("pass"), -1);
    tracer->set_root(pass.id());
    TracedSource source(series, *tracer);
    std::vector<std::unique_ptr<TracedAnalyzer>> proxies;
    std::vector<StudyAnalyzer*> roster;
    const auto analyzers = registration_order(*study);
    for (std::size_t i = 0; i < analyzers.size(); ++i) {
      proxies.push_back(std::make_unique<TracedAnalyzer>(
          *analyzers[i], kAnalyzerLabels[i], *tracer));
      roster.push_back(proxies.back().get());
    }
    run_study(source, roster, run_options);
    // FullStudy::run's gap bookkeeping, through the public pieces: the
    // source's timeline, unioned with any gaps a resume restored.
    const auto live = source.gaps();
    const std::vector<SeriesGap> gaps =
        out.checkpoint.restored_gaps.empty()
            ? std::vector<SeriesGap>(live.begin(), live.end())
            : merge_gap_timelines(out.checkpoint.restored_gaps, live);
    bundle.analysis = render_bundle(*study).analysis;
    bundle.gaps = describe(gaps);
    out.weeks_streamed = source.weeks_streamed();
    tracer->set_root(0);
  }
  out.seconds = seconds_since(start);
  out.write_bytes = write_chars() - wchar_before;
  out.peak_rss_mb = proc_status_kb("VmHWM:") / 1024.0;
  out.correct = bundle.matches(expect);
  study.reset();
  analyzed_weeks(prep, series, out.checkpoint, &out);
  return out;
}

bool prepare(std::uint64_t seed, const std::string& work_dir, int setup_reps,
             bool incremental, Tracer* tracer, Prepared* out,
             std::string* error) {
  Prepared& p = *out;
  p.seed = seed;
  p.config.seed = seed;
  p.config.scale = kScale;
  p.config.weeks = kWeeks;
  p.series_dir = (fs::path(work_dir) / "series").string();
  p.inc_dir = (fs::path(work_dir) / "incremental").string();
  p.checkpoint = (fs::path(work_dir) / "study.sckpt").string();
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  if (ec) {
    *error = "cannot create " + work_dir + ": " + ec.message();
    return false;
  }

  FacilityGenerator generator(p.config);
  Status s = save_series_streamed(generator, p.series_dir);
  if (!s.ok()) {
    *error = "generating the series: " + s.to_string();
    return false;
  }

  {
    DirectorySeries listing;
    s = listing.open(p.series_dir);
    if (!s.ok() || listing.count() < 3) {
      *error = "the generated series is unusable: " + s.to_string();
      return false;
    }
    p.slots = listing.count() + listing.gaps().size();
    for (const std::string& file : listing.files()) {
      ScolGroupReader reader;
      s = reader.open(file);
      if (!s.ok()) {
        *error = s.to_string();
        return false;
      }
      p.files.push_back(SeriesFile{file, reader.rows(),
                                   static_cast<std::uint64_t>(
                                       fs::file_size(file, ec)),
                                   reader.group_count()});
    }
  }
  std::uint64_t min_rows = p.files.front().rows;
  for (const SeriesFile& f : p.files) min_rows = std::min(min_rows, f.rows);
  // The runner streams a week whose header row count exceeds
  // budget / 2 / (its resident bytes-per-row estimate, 160 today); this
  // budget streams every week even if that estimate drops to 40.
  p.stream_budget = static_cast<std::size_t>(min_rows) * 80;

  const std::uint32_t infer_name =
      tracer != nullptr ? tracer->intern("synth.infer") : 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    p.resolver.reset();
    p.plan.reset();
    const std::int64_t start = now_ns();
    DirectorySeries series;
    s = series.open(p.series_dir);
    if (!s.ok()) {
      *error = s.to_string();
      return false;
    }
    const std::int64_t infer_start = now_ns();
    p.plan = std::make_unique<FacilityPlan>(infer_facility(series));
    const std::int64_t infer_end = now_ns();
    p.resolver = std::make_unique<Resolver>(*p.plan);
    p.setup_s.push_back(seconds_since(start));
    p.infer_s.push_back(static_cast<double>(infer_end - infer_start) / 1e9);
    if (tracer != nullptr) {
      tracer->record(infer_name, infer_start, infer_end, -1);
    }
  }

  ThreadPool serial(1);
  StudyOptions reference_options;
  reference_options.pool = &serial;
  reference_options.prefetch = false;
  auto reference = [&](const std::string& dir, Bundle* bundle) {
    DirectorySeries series;
    if (!series.open(dir).ok()) return false;
    FullStudy study(*p.resolver, kBurstMinFiles);
    study.run(series, reference_options);
    *bundle = render_bundle(study);
    if (dir == p.series_dir) p.churn = study.access_patterns.result().weeks;
    // Collection holes have no file; a gap naming a file failed to decode.
    return std::all_of(study.gaps().begin(), study.gaps().end(),
                       [](const SeriesGap& g) { return g.file.empty(); });
  };
  if (!reference(p.series_dir, &p.reference)) {
    *error = "the reference pass saw decode failures";
    return false;
  }

  p.landing = p.files.back().path;
  if (incremental) {
    fs::create_directories(p.inc_dir, ec);
    for (std::size_t i = 0; i + 1 < p.files.size(); ++i) {
      const fs::path from(p.files[i].path);
      fs::create_hard_link(from, fs::path(p.inc_dir) / from.filename(), ec);
      if (ec) fs::copy_file(from, fs::path(p.inc_dir) / from.filename(), ec);
      if (ec) {
        *error = "staging the first N-1 weeks: " + ec.message();
        return false;
      }
    }
    if (!reference(p.inc_dir, &p.reference_prefix)) {
      *error = "the prefix reference pass saw decode failures";
      return false;
    }
  }
  // Write the generated series back now, so that the kernel's delayed
  // writeback does not land inside a timed pass.
  const int dir_fd = open(work_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    syncfs(dir_fd);
    close(dir_fd);
  }
  return true;
}

}  // namespace spiderbench
