// Fig 6: user participation across projects — CDF of projects per user,
// CDF of users per project, and per-domain median users per project.
// Membership is *observed from the snapshots* (a user participates in a
// project when they own entries under it), exactly as the paper built its
// file-generation network. The observed edges feed the network and
// collaboration analyzers downstream.
#pragma once

#include <string>
#include <vector>

#include "engine/u64set.h"
#include "graph/bipartite.h"
#include "study/resolve.h"
#include "study/runner.h"
#include "util/stats.h"

namespace spider {

struct ParticipationResult {
  std::vector<MembershipEdge> observed;  // dense (user, project) pairs
  EmpiricalCdf projects_per_user;
  EmpiricalCdf users_per_project;
  std::vector<double> median_users_by_domain;  // 0 when domain inactive
  double mean_users_per_project = 0;
  double frac_multi_project_users = 0;  // participate in > 1 project
  double frac_gt2_project_users = 0;    // > 2 projects
  double frac_ge8_project_users = 0;    // >= 8 projects
  std::size_t active_users = 0;
  std::size_t active_projects = 0;
};

class ParticipationAnalyzer : public StudyAnalyzer {
 public:
  explicit ParticipationAnalyzer(const Resolver& resolver);

  ColumnMask columns_needed() const override {
    return kColMaskUid | kColMaskGid;
  }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override;
  void merge(const WeekObservation& obs, ScanStateList states) override;

  /// Delta port: a (user, project) pair new to the study can only ride on
  /// a row whose uid/gid differ from last week, and POSIX moves ctime on
  /// chown/chgrp — so readonly and untouched rows cannot carry new pairs
  /// and only the week's touched rows need probing.
  bool supports_delta() const override { return true; }
  void apply_delta(const WeekObservation& obs,
                   const WeekDelta& delta) override;
  void finish() override;

  std::string_view state_id() const override { return "participation"; }
  /// 2: pairs_ selects slots by mix64(key). A version-1 slot image would
  /// load cleanly and then miss every key, so it must re-baseline.
  std::uint32_t state_version() const override { return 2; }
  bool save_state(StateWriter& w) const override;
  bool load_state(StateReader& r) override;

  const ParticipationResult& result() const { return result_; }
  std::string render() const;

 private:
  const Resolver& resolver_;
  U64SetRaw pairs_;  // (user << 32) | project
  ParticipationResult result_;
};

}  // namespace spider
