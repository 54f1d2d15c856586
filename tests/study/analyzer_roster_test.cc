// Roster robustness: any subset of the twelve analyzers, in any order, over
// any series shape — empty, all gaps, zero-row weeks — runs without
// crashing, and an analyzer renders the same whatever else shares its
// roster. Network and collaboration post-process participation's edges, so
// they render as in the full roster whenever participation is present and
// produce empty results when it is not.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/series.h"
#include "study/full_study.h"
#include "synth/generator.h"
#include "util/parallel.h"

namespace spider {
namespace {

constexpr std::size_t kAnalyzers = 12;
constexpr std::size_t kParticipation = 1;
constexpr std::size_t kNetwork = 10;
constexpr std::size_t kCollaboration = 11;

/// FullStudy's analyzers in FullStudy::run's registration order.
std::array<StudyAnalyzer*, kAnalyzers> analyzers_of(FullStudy& s) {
  return {&s.user_profile, &s.participation,   &s.census,   &s.extensions,
          &s.languages,    &s.access_patterns, &s.striping, &s.growth,
          &s.file_age,     &s.burstiness,      &s.network,  &s.collaboration};
}

std::string render_one(const FullStudy& s, std::size_t i) {
  switch (i) {
    case 0: return s.user_profile.render();
    case 1: return s.participation.render();
    case 2: return s.census.render();
    case 3: return s.extensions.render();
    case 4: return s.languages.render();
    case 5: return s.access_patterns.render();
    case 6: return s.striping.render();
    case 7: return s.growth.render();
    case 8: return s.file_age.render();
    case 9: return s.burstiness.render();
    case 10: return s.network.render();
    default: return s.collaboration.render();
  }
}

struct Roster {
  std::string name;
  std::vector<std::size_t> members;  // indices into analyzers_of, run order
};

/// Each analyzer alone, each leave-one-out roster, and the full roster
/// reversed (network and collaboration finish before participation).
std::vector<Roster> rosters() {
  std::vector<Roster> out;
  for (std::size_t i = 0; i < kAnalyzers; ++i) {
    out.push_back({"alone " + std::to_string(i), {i}});
    Roster without{"without " + std::to_string(i), {}};
    for (std::size_t j = 0; j < kAnalyzers; ++j) {
      if (j != i) without.members.push_back(j);
    }
    out.push_back(std::move(without));
  }
  Roster reversed{"reversed", {}};
  for (std::size_t i = kAnalyzers; i-- > 0;) reversed.members.push_back(i);
  out.push_back(std::move(reversed));
  return out;
}

/// Runs `roster` over `source` and returns each member's render, indexed
/// like analyzers_of (empty for analyzers left out).
std::vector<std::string> run_roster(SnapshotSource& source,
                                    const Resolver& resolver,
                                    const Roster& roster,
                                    const StudyOptions& options) {
  FullStudy study(resolver, /*burst_min_files=*/2);
  const auto all = analyzers_of(study);
  std::vector<StudyAnalyzer*> list;
  for (const std::size_t i : roster.members) list.push_back(all[i]);
  run_study(source, list, options);
  std::vector<std::string> renders(kAnalyzers);
  for (const std::size_t i : roster.members) {
    renders[i] = render_one(study, i);
  }
  return renders;
}

bool has(const Roster& roster, std::size_t i) {
  return std::find(roster.members.begin(), roster.members.end(), i) !=
         roster.members.end();
}

class AnalyzerRosterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FacilityConfig config;
    config.scale = 2e-5;
    config.weeks = 6;
    generator_ = std::make_unique<FacilityGenerator>(config);
    resolver_ = std::make_unique<Resolver>(generator_->plan());
  }

  /// Runs every roster over `source` in scan and incremental mode. With
  /// `compare`, each member's render must match the full roster's.
  void sweep(SnapshotSource& source, bool compare) {
    ThreadPool pool(2);
    for (const bool incremental : {false, true}) {
      StudyOptions options;
      options.pool = &pool;
      options.incremental = incremental;
      Roster full{"full", {}};
      for (std::size_t i = 0; i < kAnalyzers; ++i) full.members.push_back(i);
      const auto reference = run_roster(source, *resolver_, full, options);
      for (const Roster& roster : rosters()) {
        const auto renders = run_roster(source, *resolver_, roster, options);
        if (!compare) continue;
        for (const std::size_t i : roster.members) {
          const bool dependent = i == kNetwork || i == kCollaboration;
          if (dependent && !has(roster, kParticipation)) continue;
          EXPECT_EQ(renders[i], reference[i])
              << roster.name << ", analyzer " << i
              << ", incremental=" << incremental;
        }
      }
    }
  }

  std::unique_ptr<FacilityGenerator> generator_;
  std::unique_ptr<Resolver> resolver_;
};

TEST_F(AnalyzerRosterTest, EveryRosterRendersLikeTheFullRoster) {
  SnapshotSeries series;
  generator_->visit_move(
      [&](std::size_t, Snapshot&& snap) { series.add(std::move(snap)); });
  ASSERT_GT(series.count(), 3u);
  sweep(series, /*compare=*/true);
}

TEST_F(AnalyzerRosterTest, DependentsWithoutParticipationAreEmpty) {
  SnapshotSeries series;
  generator_->visit_move(
      [&](std::size_t, Snapshot&& snap) { series.add(std::move(snap)); });
  FullStudy study(*resolver_, /*burst_min_files=*/2);
  StudyAnalyzer* list[] = {&study.network, &study.collaboration};
  run_study(series, list);
  EXPECT_EQ(study.network.result().edges, 0u);
  EXPECT_EQ(study.collaboration.result().stats.collaborating_pairs, 0u);
}

TEST_F(AnalyzerRosterTest, EmptySeries) {
  SnapshotSeries series;
  sweep(series, /*compare=*/false);
}

TEST_F(AnalyzerRosterTest, AllGapSeries) {
  SnapshotSeries series;
  for (std::int64_t w = 0; w < 4; ++w) {
    series.add_gap(1420000000 + w * 7 * 86400,
                   Status::corruption("injected test gap"));
  }
  sweep(series, /*compare=*/false);
}

TEST_F(AnalyzerRosterTest, ZeroRowWeeks) {
  SnapshotSeries series;
  for (std::int64_t w = 0; w < 4; ++w) {
    Snapshot snap;
    snap.taken_at = 1420000000 + w * 7 * 86400;
    series.add(std::move(snap));
  }
  sweep(series, /*compare=*/false);
}

}  // namespace
}  // namespace spider
