// Churn-sweep determinism suite for the incremental study engine
// (DESIGN.md §13): with StudyOptions::incremental on, the delta-capable
// analyzers leave the shared scan and consume the week's diff instead —
// and every rendered byte must match the full-scan pipeline anyway, across
// thread counts, prefetch modes, churn rates from zero to half the
// namespace, gapped series, and salvage-damaged weeks that force a
// full-scan re-baseline.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/full_study.h"
#include "synth/generator.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/parallel.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

std::string render_bundle(const FullStudy& study) {
  std::string out;
  out += study.render_table1();
  out += study.render_data_quality();
  out += study.user_profile.render();
  out += study.participation.render();
  out += study.census.render();
  out += study.extensions.render();
  out += study.languages.render();
  out += study.access_patterns.render();
  out += study.striping.render();
  out += study.growth.render();
  out += study.file_age.render();
  out += study.burstiness.render();
  out += study.network.render();
  out += study.collaboration.render();
  return out;
}

std::string run_bundle(SnapshotSource& source, const Resolver& resolver,
                       const StudyOptions& options) {
  FullStudy study(resolver, /*burst_min_files=*/5);
  study.run(source, options);
  return render_bundle(study);
}

/// Materializes a deterministic churn-mode series: every week rewrites,
/// deletes, and creates fixed fractions of the namespace.
void make_churn_series(double churn, SnapshotSeries* series,
                       FacilityGenerator** generator_out) {
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 8;
  config.maintenance_gaps = false;
  config.churn_create = churn;
  config.churn_update = churn;
  config.churn_delete = churn;
  auto* generator = new FacilityGenerator(config);
  generator->visit_move(
      [&](std::size_t, Snapshot&& snap) { series->add(std::move(snap)); });
  *generator_out = generator;
}

TEST(IncrementalStudyTest, ChurnSweepMatchesScanPipeline) {
  for (const double churn : {0.0, 0.01, 0.05, 0.5}) {
    SnapshotSeries series;
    FacilityGenerator* generator = nullptr;
    make_churn_series(churn, &series, &generator);
    Resolver resolver(generator->plan());

    // Reference: the full-scan pipeline, serial configuration.
    ThreadPool one(1);
    StudyOptions scan;
    scan.pool = &one;
    scan.prefetch = false;
    const std::string reference = run_bundle(series, resolver, scan);
    ASSERT_GT(reference.size(), 1000u) << "churn=" << churn;

    for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
      for (const bool prefetch : {false, true}) {
        ThreadPool pool(threads);
        StudyOptions options;
        options.pool = &pool;
        options.prefetch = prefetch;
        options.incremental = true;
        EXPECT_EQ(run_bundle(series, resolver, options), reference)
            << "churn=" << churn << " threads=" << threads
            << " prefetch=" << prefetch;
      }
    }
    delete generator;
  }
}

TEST(IncrementalStudyTest, GappedSeriesForcesRebaseline) {
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 12;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  Resolver resolver(generator.plan());

  // A hole at slot 5: the week after it must re-baseline with a full scan
  // (no diff spans a gap), then delta weeks resume.
  SnapshotSeries series;
  std::vector<Snapshot> snaps;
  generator.visit_move(
      [&](std::size_t, Snapshot&& snap) { snaps.push_back(std::move(snap)); });
  for (std::size_t w = 0; w < snaps.size(); ++w) {
    if (w == 5) {
      series.add_gap(snaps[w].taken_at,
                     Status::corruption("injected test gap"));
      continue;
    }
    series.add(std::move(snaps[w]));
  }

  ThreadPool one(1);
  StudyOptions scan;
  scan.pool = &one;
  scan.prefetch = false;
  const std::string reference = run_bundle(series, resolver, scan);
  EXPECT_NE(reference.find("gap"), std::string::npos);

  for (const unsigned threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = true;
    options.incremental = true;
    EXPECT_EQ(run_bundle(series, resolver, options), reference)
        << "threads=" << threads;
  }
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void corrupt_scol_file(const std::string& file, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(file, &bytes).ok());
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(bytes, &layout).ok());
  FaultInjector injector(seed);
  injector.bit_flip(&bytes, layout.payload_start, bytes.size());
  ASSERT_TRUE(
      write_file_atomic(file, std::span<const std::uint8_t>(bytes)).ok());
}

// A salvage-damaged week decodes with rows missing (Snapshot::degraded):
// the diffs touching it are unreliable for delta consumption, so both the
// damaged week and its successor must re-baseline via the full scan — and
// the rendered study must still match the scan pipeline byte-for-byte.
TEST(IncrementalStudyTest, SalvagedWeekForcesRebaseline) {
  TempDir dir("spider_incremental_salvage_test");
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 9;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  std::string error;
  ASSERT_TRUE(save_series(generator, dir.path(), &error)) << error;

  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir.path(), &error)) << error;
  ASSERT_EQ(probe.files().size(), 9u);
  corrupt_scol_file(probe.files()[4], /*seed=*/31);

  Resolver resolver(generator.plan());
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;

  DirectorySeries scan_series;
  ASSERT_TRUE(scan_series.open(dir.path(), &error)) << error;
  scan_series.set_scol_options(salvage);
  ThreadPool one(1);
  StudyOptions scan;
  scan.pool = &one;
  scan.prefetch = false;
  const std::string reference = run_bundle(scan_series, resolver, scan);
  ASSERT_GT(reference.size(), 1000u);

  for (const unsigned threads : {2u, 7u}) {
    for (const bool prefetch : {false, true}) {
      DirectorySeries series;
      ASSERT_TRUE(series.open(dir.path(), &error)) << error;
      series.set_scol_options(salvage);
      ThreadPool pool(threads);
      StudyOptions options;
      options.pool = &pool;
      options.prefetch = prefetch;
      options.incremental = true;
      EXPECT_EQ(run_bundle(series, resolver, options), reference)
          << "threads=" << threads << " prefetch=" << prefetch;
    }
  }
}

}  // namespace
}  // namespace spider
