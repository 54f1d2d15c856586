// spiderbench: the end-to-end SpiderStudy benchmark.
//
// One run prepares paper-calibrated series on disk from --seed, measures
// set-up (open + infer + Resolver), computes a reference bundle per series,
// and then drives one workload through the public API for --seconds. Every
// pass's rendered bundle is checked against its series' reference. main.cc
// holds the CLI and the workloads; this header the pieces they share.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "study/access_patterns.h"
#include "study/full_study.h"
#include "study/runner.h"
#include "synth/generator.h"
#include "synth/plan.h"

namespace spiderbench {

class Tracer;

/// The series every workload runs on: generator defaults (maintenance gaps
/// on) at a volume scale and week count that keep one pass near a second
/// on a 4-thread machine, so a run holds several passes.
inline constexpr double kScale = 1e-4;
inline constexpr std::size_t kWeeks = 14;
/// Fig 17's files-per-project-week filter, floored for small scales
/// exactly as analyze_series and the bench harnesses do.
inline constexpr std::size_t kBurstMinFiles = 10;
/// Never use this seed while developing a change; it is kept for the
/// final check of a performance claim.
inline constexpr std::uint64_t kHeldOutSeed = 20160815;

/// FullStudy's analyzers in its registration order (full_study.cc), under
/// the names the layer metrics use.
inline constexpr std::array<const char*, 12> kAnalyzerLabels = {
    "user_profile", "participation",   "census",   "extensions",
    "languages",    "access_patterns", "striping", "growth",
    "file_age",     "burstiness",      "network",  "collaboration",
};

/// Everything a study pass renders, split so that a pass driven through
/// run_study (the traced one, which cannot reach FullStudy's private gap
/// timeline) is compared on exactly what it produced.
struct Bundle {
  std::string analysis;  // render_table1() + the twelve analyzer renders
  std::string quality;   // render_data_quality(); empty for traced passes
  std::vector<std::string> gaps;  // SeriesGap::describe() of the timeline

  /// True when every rendered byte and the gap timeline match `other`.
  /// A traced bundle has no quality text; the inputs of that text (the
  /// gap timeline and the growth, access and burstiness results inside
  /// `analysis`) are compared instead.
  bool matches(const Bundle& other) const;
  /// FNV-1a of analysis + quality, for the record.
  std::uint64_t digest() const;
};

Bundle render_bundle(const spider::FullStudy& study);

/// One .scol file of the prepared series, in date order.
struct SeriesFile {
  std::string path;
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::size_t groups = 0;
};

/// One prepared series: the snapshots on disk, the plan inferred from
/// them, and the reference results.
struct Prepared {
  std::uint64_t seed = 0;  // the generator's
  spider::FacilityConfig config;
  std::string series_dir;   // all N snapshots
  std::string inc_dir;      // the first N-1 snapshots (incremental-ckpt)
  std::string landing;      // the Nth snapshot, linked into inc_dir later
  std::string checkpoint;   // the incremental run's .sckpt
  std::size_t slots = 0;    // week slots of the timeline, gaps included
  std::vector<SeriesFile> files;
  std::unique_ptr<spider::FacilityPlan> plan;
  std::unique_ptr<spider::Resolver> resolver;
  std::vector<double> setup_s;  // one per set-up repetition
  std::vector<double> infer_s;  // infer_facility's share of each
  Bundle reference;             // all N snapshots
  Bundle reference_prefix;      // the first N-1 (incremental-ckpt only)
  std::vector<spider::AccessPatternWeek> churn;
  /// Below every week's estimated resident footprint, so every week of
  /// study-streamed goes out of core.
  std::size_t stream_budget = 0;

  std::uint64_t rows() const;
  std::uint64_t bytes() const;
};

/// The timeline slot of each file of an opened (and, for decode gaps,
/// visited) series, parallel to series.files().
std::vector<std::size_t> file_slots(const spider::DirectorySeries& series);

/// Everything in a .sckpt image except the analyzer blobs' bytes: the
/// runner position, gap timeline, roster, versions, which analyzers saved
/// state and each blob's size. Empty when the image does not decode.
/// Blob bytes are left out because some analyzers serialize structs with
/// padding (GrowthPoint), so two runs of the same study can differ there.
std::string checkpoint_outline(std::span<const std::uint8_t> image);

/// Generates the series for `seed` under `work_dir` (replacing whatever
/// was there), runs `setup_reps` timed set-ups, and computes the reference
/// bundles: 1 thread, prefetch off, resident, scan mode — outside any timed
/// span — and flushes the new files to disk. The prefix reference and the
/// N-1 directory are built only for `incremental`. With a tracer each
/// infer_facility call records a synth.infer span. Returns false with `error` set on any failure.
bool prepare(std::uint64_t seed, const std::string& work_dir, int setup_reps,
             bool incremental, Tracer* tracer, Prepared* out,
             std::string* error);

/// What one study pass did.
struct PassOutcome {
  double seconds = 0;          // study run + render
  std::size_t weeks = 0;       // snapshots analyzed
  std::uint64_t rows = 0;      // rows of those snapshots
  std::uint64_t bytes = 0;     // .scol bytes of those snapshots
  double peak_rss_mb = 0;      // process peak RSS during the pass
  bool correct = false;        // bundle matches the expected one
  spider::CheckpointReport checkpoint;
  std::size_t weeks_streamed = 0;  // traced passes only
  std::uint64_t write_bytes = 0;   // /proc/self/io wchar over the pass
};

/// Opens `dir` (untimed), then runs and renders the whole study in one
/// timed span and compares the bundle with `expect`. With a tracer the
/// pass runs through TracedSource and TracedAnalyzer proxies, in
/// FullStudy's registration order, under a "pass" span.
PassOutcome run_pass(const Prepared& prep, const std::string& dir,
                     const spider::StudyOptions& options,
                     const Bundle& expect, Tracer* tracer);

}  // namespace spiderbench
