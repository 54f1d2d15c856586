// Determinism harness for the morsel-driven study pipeline (DESIGN.md §10):
// every rendered result — Table 1, the data-quality report, and all twelve
// analyzer renders — must be byte-identical to the 1-thread reference at
// every thread count and with the decode prefetch on or off, including on
// gapped and fault-damaged series. Two oracles back the production paths:
// the sort-merge diff oracle checks the fused diff kernel week by week, and
// a naive std::unordered_map recomputation checks the flat aggregation
// layer's census and extension counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../engine/diff_oracle.h"
#include "engine/diff.h"
#include "snapshot/record.h"
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

/// Every user-visible string the study produces, concatenated. Two runs
/// agree iff this bundle is byte-identical.
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
                       const StudyOptions& options,
                       std::size_t burst_min_files = 10) {
  FullStudy study(resolver, burst_min_files);
  study.run(source, options);
  return render_bundle(study);
}

/// Shared fixture: simulate once, materialize in memory, re-analyze under
/// many thread settings.
class ScanDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FacilityConfig config;
    config.scale = 0.0001;
    config.weeks = 24;
    // The generator outlives the resolver: Resolver references its plan.
    generator_ = new FacilityGenerator(config);
    resolver_ = new Resolver(generator_->plan());
    series_ = new SnapshotSeries();
    generator_->visit_move([&](std::size_t, Snapshot&& snap) {
      series_->add(std::move(snap));
    });
  }
  static void TearDownTestSuite() {
    delete series_;
    delete resolver_;
    delete generator_;
    series_ = nullptr;
    resolver_ = nullptr;
    generator_ = nullptr;
  }

  static FacilityGenerator* generator_;
  static SnapshotSeries* series_;
  static Resolver* resolver_;
};

FacilityGenerator* ScanDeterminismTest::generator_ = nullptr;
SnapshotSeries* ScanDeterminismTest::series_ = nullptr;
Resolver* ScanDeterminismTest::resolver_ = nullptr;

TEST_F(ScanDeterminismTest, BundleIdenticalAcrossThreadCounts) {
  // Reference: one worker, no prefetch — the configuration closest to the
  // old serial runner.
  ThreadPool one(1);
  StudyOptions ref_options;
  ref_options.pool = &one;
  ref_options.prefetch = false;
  const std::string reference = run_bundle(*series_, *resolver_, ref_options);
  ASSERT_GT(reference.size(), 1000u);

  for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = true;
    const std::string bundle = run_bundle(*series_, *resolver_, options);
    EXPECT_EQ(bundle, reference) << "threads=" << threads << " prefetch=on";
  }

  // Prefetch off at a non-trivial thread count: the pipeline overlap must
  // not change results either.
  {
    ThreadPool pool(7);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = false;
    EXPECT_EQ(run_bundle(*series_, *resolver_, options), reference)
        << "threads=7 prefetch=off";
  }
}

/// Checks every week's runner-delivered diff against the sort-merge
/// oracle (tests/engine/diff_oracle.h, which shares no code with the fused
/// kernel), recomputed here from obs.prev and obs.snap: the fused kernel —
/// and on delta weeks its prev-row mapping and directory diff — must equal
/// the oracle list for list. Runs in merge(), after the fused kernel
/// finalized the week.
class DiffRecorder : public StudyAnalyzer {
 public:
  bool wants_diff() const override { return true; }

  void observe(const WeekObservation& obs) override {
    const std::string week = "week " + std::to_string(obs.week);
    if ((obs.diff != nullptr) != (obs.prev != nullptr && !obs.gap_before)) {
      mismatches.push_back(week + ": diff delivered iff prev and no gap");
    }
    if (obs.diff == nullptr) return;
    const DiffResult& got = *obs.diff;
    DiffOptions options;
    options.prev_rows = got.has_prev_rows;
    options.dirs = got.has_dir_diff;
    const DiffResult want =
        diff_snapshots_sortmerge(obs.prev->table, obs.snap->table, options);
    const auto check = [&](const char* field, const auto& a, const auto& b) {
      if (a != b) mismatches.push_back(week + ": " + field);
    };
    check("new_rows", got.new_rows, want.new_rows);
    check("readonly_rows", got.readonly_rows, want.readonly_rows);
    check("updated_rows", got.updated_rows, want.updated_rows);
    check("untouched_rows", got.untouched_rows, want.untouched_rows);
    check("deleted_rows", got.deleted_rows, want.deleted_rows);
    check("readonly_prev_rows", got.readonly_prev_rows,
          want.readonly_prev_rows);
    check("updated_prev_rows", got.updated_prev_rows, want.updated_prev_rows);
    check("untouched_prev_rows", got.untouched_prev_rows,
          want.untouched_prev_rows);
    check("new_dir_rows", got.new_dir_rows, want.new_dir_rows);
    check("changed_dir_rows", got.changed_dir_rows, want.changed_dir_rows);
    check("changed_dir_prev_rows", got.changed_dir_prev_rows,
          want.changed_dir_prev_rows);
    check("deleted_dir_rows", got.deleted_dir_rows, want.deleted_dir_rows);
    check("prev_files", got.prev_files, want.prev_files);
    check("cur_files", got.cur_files, want.cur_files);
    ++diffed_weeks;
    if (got.has_prev_rows && got.has_dir_diff) ++delta_weeks;
  }

  std::vector<std::string> mismatches;
  std::size_t diffed_weeks = 0;
  std::size_t delta_weeks = 0;
};

TEST_F(ScanDeterminismTest, FusedDiffMatchesSortMergeOracleEveryWeek) {
  for (const bool incremental : {false, true}) {
    for (const unsigned threads : {1u, 2u, 7u}) {
      for (const bool prefetch : {false, true}) {
        // Census is delta-capable, so incremental runs have delta weeks:
        // the recorder then sees the diff with its prev-row mapping and
        // directory diff.
        CensusAnalyzer census(*resolver_);
        DiffRecorder recorder;
        StudyAnalyzer* roster[] = {&census, &recorder};
        ThreadPool pool(threads);
        StudyOptions options;
        options.pool = &pool;
        options.prefetch = prefetch;
        options.incremental = incremental;
        run_study(*series_, roster, options);
        const std::string where = "threads=" + std::to_string(threads) +
                                  " prefetch=" + std::to_string(prefetch) +
                                  " incremental=" +
                                  std::to_string(incremental);
        EXPECT_TRUE(recorder.mismatches.empty())
            << where << ": " << recorder.mismatches.front();
        EXPECT_GT(recorder.diffed_weeks, 10u) << where;
        if (incremental) {
          EXPECT_EQ(recorder.delta_weeks, recorder.diffed_weeks) << where;
        } else {
          EXPECT_EQ(recorder.delta_weeks, 0u) << where;
        }
      }
    }
  }
}

/// Census and extensions aggregates recomputed naively — std::unordered_map
/// and std::unordered_set keyed by path and extension strings — as the
/// oracle for the flat aggregation layer (dictionary-encoded extension
/// group-by, FlatMap chunk states, radix-partitioned census merge).
struct NaiveAggregates {
  // Census: first-seen unique entries by domain, final-week empty dirs.
  std::vector<std::uint64_t> files_by_domain;
  std::vector<std::uint64_t> dirs_by_domain;
  std::uint64_t total_files = 0;
  std::uint64_t total_dirs = 0;
  std::uint64_t final_empty_dirs = 0;
  std::uint64_t final_dirs = 0;
  // Extensions: unique files per extension, and per-week file counts.
  std::unordered_map<std::string, std::uint64_t> unique_by_ext;
  std::uint64_t unique_files = 0;
  std::uint64_t unique_no_extension = 0;
  std::vector<std::unordered_map<std::string, std::uint64_t>> weekly_by_ext;
  std::vector<std::uint64_t> weekly_files;
  std::vector<std::uint64_t> weekly_none;
};

NaiveAggregates naive_aggregates(SnapshotSource& source,
                                 const Resolver& resolver) {
  NaiveAggregates out;
  out.files_by_domain.assign(domain_count(), 0);
  out.dirs_by_domain.assign(domain_count(), 0);
  std::unordered_set<std::string> census_seen, ext_seen;
  source.visit([&](std::size_t, const Snapshot& snap) {
    const SnapshotTable& table = snap.table;
    std::unordered_set<std::string> parents;
    for (std::size_t i = 0; i < table.size(); ++i) {
      parents.insert(std::string(path_parent(table.path(i))));
    }
    out.final_empty_dirs = 0;
    out.final_dirs = 0;
    auto& weekly = out.weekly_by_ext.emplace_back();
    std::uint64_t files = 0, none = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
      const std::string path(table.path(i));
      const bool is_dir = table.is_dir(i);
      if (is_dir) {
        ++out.final_dirs;
        if (parents.count(path) == 0) ++out.final_empty_dirs;
      }
      if (census_seen.insert(path).second) {
        const int project = resolver.project_of_gid(table.gid(i));
        const int domain =
            project < 0 ? -1
                        : resolver.plan()
                              .projects[static_cast<std::size_t>(project)]
                              .domain;
        auto& by_domain = is_dir ? out.dirs_by_domain : out.files_by_domain;
        ++(is_dir ? out.total_dirs : out.total_files);
        if (domain >= 0) ++by_domain[static_cast<std::size_t>(domain)];
      }
      if (is_dir) continue;
      const std::string ext(path_extension(path));
      ++files;
      if (ext.empty()) {
        ++none;
      } else {
        ++weekly[ext];
      }
      if (ext_seen.insert(path).second) {
        ++out.unique_files;
        if (ext.empty()) {
          ++out.unique_no_extension;
        } else {
          ++out.unique_by_ext[ext];
        }
      }
    }
    out.weekly_files.push_back(files);
    out.weekly_none.push_back(none);
  });
  return out;
}

TEST_F(ScanDeterminismTest, AggregationMatchesNaiveReference) {
  const NaiveAggregates naive = naive_aggregates(*series_, *resolver_);
  // Every extension, in the analyzer's order: count desc, then name.
  std::vector<std::pair<std::string, std::uint64_t>> ranked(
      naive.unique_by_ext.begin(), naive.unique_by_ext.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  ASSERT_GT(ranked.size(), 20u);
  ASSERT_GT(naive.total_dirs, 0u);

  struct Config {
    unsigned threads;
    bool incremental;
  };
  for (const Config config : {Config{1, false}, Config{2, false},
                              Config{7, false}, Config{0, false},
                              Config{7, true}}) {  // 0 = hardware
    const std::string where = "threads=" + std::to_string(config.threads) +
                              " incremental=" +
                              std::to_string(config.incremental);
    CensusAnalyzer census(*resolver_);
    // top_k past the extension count: global_top lists every extension.
    ExtensionsAnalyzer extensions(*resolver_, /*top_k=*/1u << 20);
    StudyAnalyzer* roster[] = {&census, &extensions};
    ThreadPool pool(config.threads);
    StudyOptions options;
    options.pool = &pool;
    options.incremental = config.incremental;
    run_study(*series_, roster, options);

    const CensusResult& c = census.result();
    EXPECT_EQ(c.files_by_domain, naive.files_by_domain) << where;
    EXPECT_EQ(c.dirs_by_domain, naive.dirs_by_domain) << where;
    EXPECT_EQ(c.total_files, naive.total_files) << where;
    EXPECT_EQ(c.total_dirs, naive.total_dirs) << where;
    EXPECT_EQ(c.final_empty_dirs, naive.final_empty_dirs) << where;
    EXPECT_EQ(c.final_dirs, naive.final_dirs) << where;

    const ExtensionsResult& e = extensions.result();
    EXPECT_EQ(e.global_top, ranked) << where;
    EXPECT_EQ(e.unique_files, naive.unique_files) << where;
    EXPECT_EQ(e.unique_no_extension, naive.unique_no_extension) << where;
    // Weekly counts surface as shares of the week's files; the analyzer
    // divides the same integers, so the comparison is exact.
    ASSERT_EQ(e.share_top.size(), naive.weekly_files.size()) << where;
    for (std::size_t w = 0; w < naive.weekly_files.size(); ++w) {
      const double files = static_cast<double>(
          std::max<std::uint64_t>(1, naive.weekly_files[w]));
      EXPECT_EQ(e.share_none[w],
                static_cast<double>(naive.weekly_none[w]) / files)
          << where << " week " << w;
      ASSERT_EQ(e.share_top[w].size(), ranked.size()) << where;
      for (std::size_t k = 0; k < ranked.size(); ++k) {
        const auto it = naive.weekly_by_ext[w].find(ranked[k].first);
        const std::uint64_t count =
            it == naive.weekly_by_ext[w].end() ? 0 : it->second;
        EXPECT_EQ(e.share_top[w][k], static_cast<double>(count) / files)
            << where << " week " << w << " ext " << ranked[k].first;
      }
    }
  }
}

TEST_F(ScanDeterminismTest, SmallGrainsForceManyChunks) {
  // A tiny grain makes every table span hundreds of chunks, exercising the
  // ordered merge far beyond what kScanGrainRows does at test scale.
  ThreadPool one(1);
  StudyOptions ref_options;
  ref_options.pool = &one;
  ref_options.prefetch = false;
  const std::string reference = run_bundle(*series_, *resolver_, ref_options);

  ThreadPool pool(4);
  StudyOptions options;
  options.pool = &pool;
  options.grain = 97;  // prime, misaligned with every table size
  const std::string bundle = run_bundle(*series_, *resolver_, options);

  // Many-chunk merges fold StreamingStats partials pairwise instead of
  // row-by-row, so only the grain — never the thread count or prefetch
  // mode — may move the last floating-point bits. Same grain, different
  // pools: byte-identical.
  ThreadPool other(2);
  StudyOptions options2 = options;
  options2.pool = &other;
  options2.prefetch = false;
  EXPECT_EQ(run_bundle(*series_, *resolver_, options2), bundle);
  ASSERT_GT(reference.size(), 1000u);
}

TEST(ScanDeterminismGapTest, GappedSeriesIdenticalAcrossThreadCounts) {
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 12;
  config.seed = 20150105;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  Resolver resolver(generator.plan());

  // Materialize with a hole at slot 5: gap_before handling and the skip
  // accounting must survive parallel analysis bit-for-bit.
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
  StudyOptions serial;
  serial.pool = &one;
  serial.prefetch = false;
  const std::string reference = run_bundle(series, resolver, serial);
  EXPECT_NE(reference.find("gap"), std::string::npos);

  for (const unsigned threads : {2u, 7u}) {
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = true;
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

/// Flips one payload bit of an on-disk v2 .scol file.
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

// A damaged on-disk series must produce the same gaps, the same
// gap_pairs_skipped counts, and the same renders through the parallel
// runner (with projection pushdown and prefetch active) as through the
// serial configuration — decode damage accounting is not allowed to
// depend on the execution schedule.
TEST(ScanDeterminismFaultTest, DamagedSeriesParityWithSerialRunner) {
  TempDir dir("spider_scan_determinism_fault_test");
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 10;
  config.seed = 20150105;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  std::string error;
  ASSERT_TRUE(save_series(generator, dir.path(), &error)) << error;

  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir.path(), &error)) << error;
  ASSERT_EQ(probe.files().size(), 10u);
  corrupt_scol_file(probe.files()[2], /*seed=*/21);
  corrupt_scol_file(probe.files()[6], /*seed=*/22);
  fs::remove(probe.files()[4]);

  Resolver resolver(generator.plan());

  // Serial configuration: decode-all columns would be the historical
  // behavior, but projection is applied by the runner in both cases; what
  // differs is the pool, the chunking, and the prefetch pipeline.
  DirectorySeries serial_series;
  ASSERT_TRUE(serial_series.open(dir.path(), &error)) << error;
  ThreadPool one(1);
  StudyOptions serial;
  serial.pool = &one;
  serial.prefetch = false;
  FullStudy serial_study(resolver, /*burst_min_files=*/5);
  serial_study.run(serial_series, serial);

  DirectorySeries parallel_series;
  ASSERT_TRUE(parallel_series.open(dir.path(), &error)) << error;
  ThreadPool pool(4);
  StudyOptions parallel;
  parallel.pool = &pool;
  parallel.prefetch = true;
  parallel.grain = 512;  // many chunks even at 5e-5 scale
  FullStudy parallel_study(resolver, /*burst_min_files=*/5);
  parallel_study.run(parallel_series, parallel);

  // Identical damage accounting...
  ASSERT_EQ(serial_study.gaps().size(), 3u);
  ASSERT_EQ(parallel_study.gaps().size(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(serial_study.gaps()[g].describe(),
              parallel_study.gaps()[g].describe());
  }
  EXPECT_EQ(serial_study.access_patterns.result().gap_pairs_skipped,
            parallel_study.access_patterns.result().gap_pairs_skipped);
  EXPECT_EQ(serial_study.burstiness.result().gap_pairs_skipped,
            parallel_study.burstiness.result().gap_pairs_skipped);
  EXPECT_EQ(serial_study.growth.result().gap_weeks,
            parallel_study.growth.result().gap_weeks);
  EXPECT_EQ(serial_study.render_data_quality(),
            parallel_study.render_data_quality());

  // ...and identical results everywhere else.
  EXPECT_EQ(render_bundle(serial_study), render_bundle(parallel_study));
}

}  // namespace
}  // namespace spider
