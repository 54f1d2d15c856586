#include "study/participation.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/table.h"

namespace spider {

ParticipationAnalyzer::ParticipationAnalyzer(const Resolver& resolver)
    : resolver_(resolver) {}

namespace {
/// Candidate (user, project) keys in row order. The scan only *filters*:
/// pairs_ is frozen during the scan, so contains() is a safe concurrent
/// read that drops keys seen in earlier weeks; a chunk-local set drops
/// repeats within the chunk. Cross-chunk first-seen resolution — the
/// order-dependent part — happens in merge().
struct ParticipationChunk : ScanChunkState {
  std::vector<std::uint64_t> candidates;
  U64SetRaw local;
};
}  // namespace

std::unique_ptr<ScanChunkState> ParticipationAnalyzer::make_chunk_state()
    const {
  return std::make_unique<ParticipationChunk>();
}

void ParticipationAnalyzer::observe_chunk(ScanChunkState* state,
                                          const WeekObservation&,
                                          const ScanMorsel& m) {
  auto* chunk = static_cast<ParticipationChunk*>(state);
  const SnapshotTable& table = *m.table;
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const std::size_t r = m.local(i);
    const int user = resolver_.user_of_uid(table.uid(r));
    const int project = resolver_.project_of_gid(table.gid(r));
    if (user < 0 || project < 0) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(user) << 32) |
                              static_cast<std::uint32_t>(project);
    if (pairs_.contains(key)) continue;
    if (chunk->local.insert(key)) chunk->candidates.push_back(key);
  }
}

void ParticipationAnalyzer::merge(const WeekObservation&,
                                  ScanStateList states) {
  for (const auto& state : states) {
    const auto* chunk = static_cast<const ParticipationChunk*>(state.get());
    for (const std::uint64_t key : chunk->candidates) {
      if (!pairs_.insert(key)) continue;
      result_.observed.push_back(
          MembershipEdge{static_cast<std::uint32_t>(key >> 32),
                         static_cast<std::uint32_t>(key & 0xffffffffu)});
    }
  }
}

void ParticipationAnalyzer::apply_delta(const WeekObservation&,
                                        const WeekDelta& delta) {
  const SnapshotTable& table = *delta.cur;
  for (const std::uint32_t row : delta.touched_rows) {
    const int user = resolver_.user_of_uid(table.uid(row));
    const int project = resolver_.project_of_gid(table.gid(row));
    if (user < 0 || project < 0) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(user) << 32) |
                              static_cast<std::uint32_t>(project);
    if (pairs_.insert(key)) {
      result_.observed.push_back(
          MembershipEdge{static_cast<std::uint32_t>(user),
                         static_cast<std::uint32_t>(project)});
    }
  }
}

bool ParticipationAnalyzer::save_state(StateWriter& w) const {
  pairs_.save_state(w);
  w.vec(result_.observed);
  return true;
}

bool ParticipationAnalyzer::load_state(StateReader& r) {
  U64SetRaw pairs;
  std::vector<MembershipEdge> observed;
  if (!pairs.load_state(r) || !r.vec(&observed)) return false;
  pairs_ = std::move(pairs);
  result_.observed = std::move(observed);
  return true;
}

void ParticipationAnalyzer::finish() {
  const auto& plan = resolver_.plan();
  std::vector<std::uint32_t> per_user(plan.users.size(), 0);
  std::vector<std::uint32_t> per_project(plan.projects.size(), 0);
  for (const MembershipEdge& edge : result_.observed) {
    ++per_user[edge.user];
    ++per_project[edge.project];
  }

  std::vector<double> user_counts, project_counts;
  std::size_t multi = 0, gt2 = 0, ge8 = 0;
  for (const std::uint32_t count : per_user) {
    if (count == 0) continue;
    user_counts.push_back(count);
    if (count > 1) ++multi;
    if (count > 2) ++gt2;
    if (count >= 8) ++ge8;
  }
  result_.active_users = user_counts.size();
  if (result_.active_users > 0) {
    const double n = static_cast<double>(result_.active_users);
    result_.frac_multi_project_users = static_cast<double>(multi) / n;
    result_.frac_gt2_project_users = static_cast<double>(gt2) / n;
    result_.frac_ge8_project_users = static_cast<double>(ge8) / n;
  }

  std::vector<std::vector<double>> by_domain(domain_count());
  double member_total = 0;
  for (std::size_t p = 0; p < per_project.size(); ++p) {
    const std::size_t size = per_project[p];
    if (size == 0) continue;
    project_counts.push_back(static_cast<double>(size));
    member_total += static_cast<double>(size);
    by_domain[static_cast<std::size_t>(plan.projects[p].domain)].push_back(
        static_cast<double>(size));
  }
  result_.active_projects = project_counts.size();
  if (result_.active_projects > 0) {
    result_.mean_users_per_project =
        member_total / static_cast<double>(result_.active_projects);
  }
  result_.median_users_by_domain.assign(domain_count(), 0.0);
  for (std::size_t d = 0; d < by_domain.size(); ++d) {
    if (!by_domain[d].empty()) {
      result_.median_users_by_domain[d] = percentile(by_domain[d], 50.0);
    }
  }
  result_.projects_per_user = EmpiricalCdf(std::move(user_counts));
  result_.users_per_project = EmpiricalCdf(std::move(project_counts));
}

std::string ParticipationAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 6: participation (" << result_.active_users << " users, "
     << result_.active_projects << " projects, "
     << result_.observed.size() << " memberships)\n"
     << "  users in >1 project:  "
     << format_percent(result_.frac_multi_project_users)
     << "   (paper: >60%)\n"
     << "  users in >2 projects: "
     << format_percent(result_.frac_gt2_project_users)
     << "   (paper: ~20%)\n"
     << "  users in >=8 projects: "
     << format_percent(result_.frac_ge8_project_users)
     << "  (paper: ~2%)\n"
     << "  mean users per project: "
     << format_double(result_.mean_users_per_project, 2) << "\n"
     << "  projects with <3 users: "
     << format_percent(result_.users_per_project.fraction_at_most(2.0))
     << " (paper: ~40%)\n"
     << "  projects with >10 users: "
     << format_percent(1.0 -
                       result_.users_per_project.fraction_at_most(10.0))
     << " (paper: ~20%)\n";

  os << "\nFig 6(c): median users per project by domain (>=10 highlighted)\n";
  AsciiTable t({"domain", "median users/project"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const double median = result_.median_users_by_domain[d];
    if (median <= 0) continue;
    std::string cell = format_double(median, 1);
    if (median >= 10) cell += "  **";
    t.add_row({profiles[d].id, cell});
  }
  t.print(os);
  return os.str();
}

}  // namespace spider
