#include "study/user_profile.h"

#include <sstream>
#include <utility>

#include "util/table.h"

namespace spider {

namespace {
const char* org_name(OrgType org) {
  switch (org) {
    case OrgType::kGovernment: return "government/natl-lab";
    case OrgType::kAcademia: return "academia";
    case OrgType::kIndustry: return "industry";
    case OrgType::kOther: return "other (intl. institutes)";
  }
  return "?";
}
}  // namespace

double UserProfileResult::org_fraction(OrgType org) const {
  if (active_users == 0) return 0.0;
  return static_cast<double>(by_org[static_cast<std::size_t>(org)]) /
         static_cast<double>(active_users);
}

namespace {
struct UserProfileChunk : ScanChunkState {
  std::vector<std::uint8_t> seen;  // by dense user index, lazily sized
  std::size_t unknown = 0;
};
}  // namespace

UserProfileAnalyzer::UserProfileAnalyzer(const Resolver& resolver)
    : resolver_(resolver), seen_(resolver.plan().users.size(), 0) {}

std::unique_ptr<ScanChunkState> UserProfileAnalyzer::make_chunk_state() const {
  return std::make_unique<UserProfileChunk>();
}

void UserProfileAnalyzer::observe_chunk(ScanChunkState* state,
                                        const WeekObservation&,
                                        const ScanMorsel& m) {
  auto* chunk = static_cast<UserProfileChunk*>(state);
  const SnapshotTable& table = *m.table;
  if (chunk->seen.empty()) chunk->seen.assign(seen_.size(), 0);
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const int user = resolver_.user_of_uid(table.uid(m.local(i)));
    if (user >= 0) {
      chunk->seen[static_cast<std::size_t>(user)] = 1;
    } else {
      ++chunk->unknown;
    }
  }
}

void UserProfileAnalyzer::merge(const WeekObservation&, ScanStateList states) {
  std::size_t week_unknown = 0;
  for (const auto& state : states) {
    const auto* chunk = static_cast<const UserProfileChunk*>(state.get());
    week_unknown += chunk->unknown;
    if (chunk->seen.empty()) continue;
    for (std::size_t u = 0; u < seen_.size(); ++u) seen_[u] |= chunk->seen[u];
  }
  result_.unknown_uids += week_unknown;
  live_unknown_ = week_unknown;
}

void UserProfileAnalyzer::apply_delta(const WeekObservation&,
                                      const WeekDelta& delta) {
  const SnapshotTable& cur = *delta.cur;
  const SnapshotTable& prev = *delta.prev;
  const DiffResult& diff = *delta.diff;
  for (const std::uint32_t row : delta.touched_rows) {
    const int user = resolver_.user_of_uid(cur.uid(row));
    if (user >= 0) seen_[static_cast<std::size_t>(user)] = 1;
  }
  const auto unknown_in = [&](const SnapshotTable& table,
                              std::span<const std::uint32_t> rows) {
    std::size_t n = 0;
    for (const std::uint32_t row : rows) {
      n += resolver_.user_of_uid(table.uid(row)) < 0 ? 1 : 0;
    }
    return n;
  };
  // Readonly and untouched rows kept their uid (chown moves ctime), so the
  // week's unknown total moves only with created, deleted, and rewritten
  // rows.
  live_unknown_ -= unknown_in(prev, diff.deleted_rows);
  live_unknown_ -= unknown_in(prev, diff.deleted_dir_rows);
  live_unknown_ -= unknown_in(prev, diff.updated_prev_rows);
  live_unknown_ -= unknown_in(prev, diff.changed_dir_prev_rows);
  live_unknown_ += unknown_in(cur, diff.new_rows);
  live_unknown_ += unknown_in(cur, diff.new_dir_rows);
  live_unknown_ += unknown_in(cur, diff.updated_rows);
  live_unknown_ += unknown_in(cur, diff.changed_dir_rows);
  result_.unknown_uids += live_unknown_;
}

bool UserProfileAnalyzer::save_state(StateWriter& w) const {
  w.vec(seen_);
  w.u64(live_unknown_);
  w.u64(result_.unknown_uids);
  return true;
}

bool UserProfileAnalyzer::load_state(StateReader& r) {
  std::vector<std::uint8_t> seen;
  if (!r.vec(&seen)) return false;
  const std::uint64_t live_unknown = r.u64();
  const std::uint64_t unknown_uids = r.u64();
  // The seen bitmap is sized by the resolver's user plan; a size mismatch
  // means the checkpoint came from a differently-configured study.
  if (!r.ok() || seen.size() != seen_.size()) return false;
  seen_ = std::move(seen);
  live_unknown_ = static_cast<std::size_t>(live_unknown);
  result_.unknown_uids = static_cast<std::size_t>(unknown_uids);
  return true;
}

void UserProfileAnalyzer::finish() {
  result_.by_org.assign(kOrgTypeCount, 0);
  result_.by_domain.assign(domain_count(), 0);
  result_.active_users = 0;
  const auto& users = resolver_.plan().users;
  for (std::size_t u = 0; u < users.size(); ++u) {
    if (!seen_[u]) continue;
    ++result_.active_users;
    ++result_.by_org[static_cast<std::size_t>(users[u].org)];
    ++result_.by_domain[static_cast<std::size_t>(users[u].primary_domain)];
  }
}

std::string UserProfileAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 5(a): active users by organization type (" << result_.active_users
     << " active users)\n";
  AsciiTable orgs({"organization", "users", "share"});
  for (std::size_t o = 0; o < kOrgTypeCount; ++o) {
    orgs.add_row({org_name(static_cast<OrgType>(o)),
                  std::to_string(result_.by_org[o]),
                  format_percent(result_.org_fraction(static_cast<OrgType>(o)))});
  }
  orgs.print(os);

  os << "\nFig 5(b): active users by science domain\n";
  AsciiTable doms({"domain", "users", "share"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    if (result_.by_domain[d] == 0) continue;
    doms.add_row(
        {profiles[d].id, std::to_string(result_.by_domain[d]),
         format_percent(static_cast<double>(result_.by_domain[d]) /
                        static_cast<double>(result_.active_users))});
  }
  doms.print(os);
  return os.str();
}

}  // namespace spider
