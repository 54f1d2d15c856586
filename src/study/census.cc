#include "study/census.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "engine/agg.h"
#include "util/table.h"

namespace spider {

double CensusResult::dir_fraction(std::size_t domain) const {
  const std::uint64_t files = files_by_domain[domain];
  const std::uint64_t dirs = dirs_by_domain[domain];
  const std::uint64_t total = files + dirs;
  return total == 0 ? 0.0
                    : static_cast<double>(dirs) / static_cast<double>(total);
}

CensusAnalyzer::CensusAnalyzer(const Resolver& resolver)
    : resolver_(resolver),
      files_by_user_(resolver.plan().users.size(), 0),
      files_by_project_(resolver.plan().projects.size(), 0),
      max_depth_by_project_(resolver.plan().projects.size(), 0),
      dir_depths_by_domain_(domain_count()) {
  result_.files_by_domain.assign(domain_count(), 0);
  result_.dirs_by_domain.assign(domain_count(), 0);
}

namespace {
/// A row whose path hash was absent from the cross-week distinct set when
/// the chunk scanned it — possibly first-seen, resolved in merge(). The
/// resolver lookups happen here, in parallel, so merge() stays a cheap
/// insert-and-count loop.
struct CensusCandidate {
  std::uint64_t hash = 0;
  std::uint16_t depth = 0;
  bool is_dir = false;
  std::int32_t project = -1;
  std::int32_t domain = -1;
  std::int32_t user = -1;  // files only
};

struct CensusChunk : ScanChunkState {
  std::vector<std::uint64_t> parent_hashes;  // every row's parent dir
  std::vector<std::uint64_t> dir_hashes;     // path hash of each dir row
  std::vector<CensusCandidate> candidates;   // row order
  U64Set local;                              // chunk-local candidate dedup
};
}  // namespace

std::unique_ptr<ScanChunkState> CensusAnalyzer::make_chunk_state() const {
  return std::make_unique<CensusChunk>();
}

void CensusAnalyzer::observe_chunk(ScanChunkState* state,
                                   const WeekObservation&,
                                   const ScanMorsel& m) {
  auto* chunk = static_cast<CensusChunk*>(state);
  const SnapshotTable& table = *m.table;
  chunk->parent_hashes.reserve(m.end - m.begin);
  for (std::size_t i = m.begin; i < m.end; ++i) {
    const std::size_t r = m.local(i);
    chunk->parent_hashes.push_back(hash_bytes(path_parent(table.path(r))));
    const bool is_dir = table.is_dir(r);
    if (is_dir) chunk->dir_hashes.push_back(table.path_hash(r));

    const std::uint64_t hash = table.path_hash(r);
    if (distinct_.contains(hash) || !chunk->local.insert(hash)) continue;
    CensusCandidate cand;
    cand.hash = hash;
    cand.depth = table.depth(r);
    cand.is_dir = is_dir;
    cand.project = resolver_.project_of_gid(table.gid(r));
    cand.domain =
        cand.project < 0
            ? -1
            : resolver_.plan()
                  .projects[static_cast<std::size_t>(cand.project)]
                  .domain;
    if (!is_dir) cand.user = resolver_.user_of_uid(table.uid(r));
    chunk->candidates.push_back(cand);
  }
}

void CensusAnalyzer::merge(const WeekObservation& obs, ScanStateList states) {
  // Empty-directory census for this snapshot: union the chunks' parent
  // sets, then count dirs no other entry names as parent. Set membership
  // and the counts are order-independent, so both steps may run in
  // parallel — this union is the highest-cardinality merge in the study
  // (every row contributes a parent hash) and used to be the scan's
  // serial tail.
  std::vector<std::span<const std::uint64_t>> spans;
  spans.reserve(states.size());
  for (const auto& state : states) {
    const auto* chunk = static_cast<const CensusChunk*>(state.get());
    spans.emplace_back(chunk->parent_hashes);
  }
  PartitionedU64Set parents;
  parents.build(spans, obs.pool);
  struct Tally {
    std::uint64_t empty = 0;
    std::uint64_t dirs = 0;
  };
  const Tally tally = parallel_reduce<Tally>(
      states.size(), Tally{},
      [&](Tally& acc, std::size_t c) {
        const auto* chunk = static_cast<const CensusChunk*>(states[c].get());
        acc.dirs += chunk->dir_hashes.size();
        for (const std::uint64_t h : chunk->dir_hashes) {
          if (!parents.contains(h)) ++acc.empty;
        }
      },
      [](Tally& into, Tally& from) {
        into.empty += from.empty;
        into.dirs += from.dirs;
      },
      obs.pool, /*grain=*/1);
  result_.final_empty_dirs = tally.empty;
  result_.final_dirs = tally.dirs;
  if (obs.incremental) rebuild_live_maps(obs.snap->table);

  // Unique-entry census: first-seen resolution in chunk (= row) order,
  // byte-identical to the serial scan.
  for (const auto& state : states) {
    const auto* chunk = static_cast<const CensusChunk*>(state.get());
    for (const CensusCandidate& cand : chunk->candidates) {
      if (!distinct_.insert(cand.hash)) continue;  // seen in earlier chunk
      result_.max_depth = std::max<std::uint64_t>(result_.max_depth,
                                                  cand.depth);
      if (cand.is_dir) {
        ++result_.total_dirs;
        if (cand.domain >= 0) {
          ++result_.dirs_by_domain[static_cast<std::size_t>(cand.domain)];
          dir_depths_by_domain_[static_cast<std::size_t>(cand.domain)]
              .push_back(cand.depth);
        }
        if (cand.project >= 0) {
          auto& best =
              max_depth_by_project_[static_cast<std::size_t>(cand.project)];
          best = std::max(best, cand.depth);
        }
      } else {
        ++result_.total_files;
        if (cand.domain >= 0) {
          ++result_.files_by_domain[static_cast<std::size_t>(cand.domain)];
        }
        if (cand.project >= 0) {
          ++files_by_project_[static_cast<std::size_t>(cand.project)];
        }
        if (cand.user >= 0) {
          ++files_by_user_[static_cast<std::size_t>(cand.user)];
        }
      }
    }
  }
}

void CensusAnalyzer::rebuild_live_maps(const SnapshotTable& table) {
  parent_live_.clear();
  dirs_live_.clear();
  for (std::size_t i = 0; i < table.size(); ++i) {
    ++parent_live_.slot(hash_bytes(path_parent(table.path(i))));
    if (table.is_dir(i)) ++dirs_live_.slot(table.path_hash(i));
  }
}

void CensusAnalyzer::apply_delta(const WeekObservation&,
                                 const WeekDelta& delta) {
  const SnapshotTable& cur = *delta.cur;
  const SnapshotTable& prev = *delta.prev;
  const DiffResult& diff = *delta.diff;

  // Empty-directory census: adjust the retained reference counts by the
  // rows that entered and left the namespace, then recount live dirs with
  // no live children. Updated/changed rows keep their paths, so only
  // created and deleted rows move the counts.
  for (const std::uint32_t row : delta.added_rows) {
    ++parent_live_.slot(hash_bytes(path_parent(cur.path(row))));
  }
  for (const std::uint32_t row : diff.deleted_rows) {
    --parent_live_.slot(hash_bytes(path_parent(prev.path(row))));
  }
  for (const std::uint32_t row : diff.deleted_dir_rows) {
    --parent_live_.slot(hash_bytes(path_parent(prev.path(row))));
  }
  for (const std::uint32_t row : diff.new_dir_rows) {
    ++dirs_live_.slot(cur.path_hash(row));
  }
  for (const std::uint32_t row : diff.deleted_dir_rows) {
    --dirs_live_.slot(prev.path_hash(row));
  }
  std::uint64_t dirs = 0, empty = 0;
  dirs_live_.for_each([&](std::uint64_t hash, std::int64_t count) {
    if (count <= 0) return;
    dirs += static_cast<std::uint64_t>(count);
    const std::int64_t* parents = parent_live_.find(hash);
    if (parents == nullptr || *parents <= 0) {
      empty += static_cast<std::uint64_t>(count);
    }
  });
  result_.final_empty_dirs = empty;
  result_.final_dirs = dirs;

  // Unique-entry census: only new rows can be first-seen, in the same
  // ascending order the scan path resolves candidates.
  for (const std::uint32_t row : delta.added_rows) {
    if (!distinct_.insert(cur.path_hash(row))) continue;
    const int project = resolver_.project_of_gid(cur.gid(row));
    const int domain = project < 0
                           ? -1
                           : resolver_.plan()
                                 .projects[static_cast<std::size_t>(project)]
                                 .domain;
    const std::uint16_t depth = cur.depth(row);
    result_.max_depth = std::max<std::uint64_t>(result_.max_depth, depth);
    if (cur.is_dir(row)) {
      ++result_.total_dirs;
      if (domain >= 0) {
        ++result_.dirs_by_domain[static_cast<std::size_t>(domain)];
        dir_depths_by_domain_[static_cast<std::size_t>(domain)].push_back(
            depth);
      }
      if (project >= 0) {
        auto& best = max_depth_by_project_[static_cast<std::size_t>(project)];
        best = std::max(best, depth);
      }
    } else {
      ++result_.total_files;
      if (domain >= 0) {
        ++result_.files_by_domain[static_cast<std::size_t>(domain)];
      }
      if (project >= 0) {
        ++files_by_project_[static_cast<std::size_t>(project)];
      }
      const int user = resolver_.user_of_uid(cur.uid(row));
      if (user >= 0) ++files_by_user_[static_cast<std::size_t>(user)];
    }
  }
}

bool CensusAnalyzer::save_state(StateWriter& w) const {
  distinct_.save_state(w);
  w.vec(files_by_user_);
  w.vec(files_by_project_);
  w.vec(max_depth_by_project_);
  w.vec2(dir_depths_by_domain_);
  parent_live_.save_state(w);
  dirs_live_.save_state(w);
  w.vec(result_.files_by_domain);
  w.vec(result_.dirs_by_domain);
  w.u64(result_.total_files);
  w.u64(result_.total_dirs);
  w.u64(result_.max_depth);
  w.u64(result_.final_empty_dirs);
  w.u64(result_.final_dirs);
  return true;
}

bool CensusAnalyzer::load_state(StateReader& r) {
  U64Set distinct;
  std::vector<std::uint64_t> files_by_user, files_by_project;
  std::vector<std::uint16_t> max_depth_by_project;
  std::vector<std::vector<double>> dir_depths;
  FlatMap<std::int64_t> parent_live, dirs_live;
  std::vector<std::uint64_t> files_by_domain, dirs_by_domain;
  if (!distinct.load_state(r) || !r.vec(&files_by_user) ||
      !r.vec(&files_by_project) || !r.vec(&max_depth_by_project) ||
      !r.vec2(&dir_depths) || !parent_live.load_state(r) ||
      !dirs_live.load_state(r) || !r.vec(&files_by_domain) ||
      !r.vec(&dirs_by_domain)) {
    return false;
  }
  const std::uint64_t total_files = r.u64();
  const std::uint64_t total_dirs = r.u64();
  const std::uint64_t max_depth = r.u64();
  const std::uint64_t final_empty_dirs = r.u64();
  const std::uint64_t final_dirs = r.u64();
  // Per-user/project/domain vectors are sized by the resolver's plan; a
  // mismatch means the checkpoint came from a different configuration.
  if (!r.ok() || files_by_user.size() != files_by_user_.size() ||
      files_by_project.size() != files_by_project_.size() ||
      max_depth_by_project.size() != max_depth_by_project_.size() ||
      dir_depths.size() != dir_depths_by_domain_.size() ||
      files_by_domain.size() != result_.files_by_domain.size() ||
      dirs_by_domain.size() != result_.dirs_by_domain.size()) {
    return false;
  }
  distinct_ = std::move(distinct);
  files_by_user_ = std::move(files_by_user);
  files_by_project_ = std::move(files_by_project);
  max_depth_by_project_ = std::move(max_depth_by_project);
  dir_depths_by_domain_ = std::move(dir_depths);
  parent_live_ = std::move(parent_live);
  dirs_live_ = std::move(dirs_live);
  result_.files_by_domain = std::move(files_by_domain);
  result_.dirs_by_domain = std::move(dirs_by_domain);
  result_.total_files = total_files;
  result_.total_dirs = total_dirs;
  result_.max_depth = max_depth;
  result_.final_empty_dirs = final_empty_dirs;
  result_.final_dirs = final_dirs;
  return true;
}

void CensusAnalyzer::finish() {
  std::vector<double> user_counts, project_counts, depths;
  for (const std::uint64_t c : files_by_user_) {
    if (c > 0) {
      user_counts.push_back(static_cast<double>(c));
      result_.max_files_one_user = std::max(result_.max_files_one_user, c);
    }
  }
  for (const std::uint64_t c : files_by_project_) {
    if (c > 0) {
      project_counts.push_back(static_cast<double>(c));
      result_.max_files_one_project =
          std::max(result_.max_files_one_project, c);
    }
  }
  for (const std::uint16_t d : max_depth_by_project_) {
    if (d > 0) depths.push_back(static_cast<double>(d));
  }
  result_.median_files_per_user = percentile(user_counts, 50.0);
  result_.median_files_per_project = percentile(project_counts, 50.0);
  result_.files_per_user = EmpiricalCdf(std::move(user_counts));
  result_.files_per_project = EmpiricalCdf(std::move(project_counts));
  result_.project_max_depth = EmpiricalCdf(std::move(depths));
  result_.depth_by_domain.assign(domain_count(), FiveNumber{});
  for (std::size_t d = 0; d < dir_depths_by_domain_.size(); ++d) {
    result_.depth_by_domain[d] = five_number_summary(dir_depths_by_domain_[d]);
  }
}

std::string CensusAnalyzer::render() const {
  std::ostringstream os;
  os << "Fig 7: unique entries per domain (total "
     << format_with_commas(result_.total_files) << " files, "
     << format_with_commas(result_.total_dirs) << " dirs; dirs are "
     << format_percent(static_cast<double>(result_.total_dirs) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, result_.total_files + result_.total_dirs)))
     << " of entries)\n";
  AsciiTable census({"domain", "files", "dirs", "dir share"});
  const auto profiles = domain_profiles();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    if (result_.files_by_domain[d] + result_.dirs_by_domain[d] == 0) continue;
    census.add_row({profiles[d].id,
                    format_with_commas(result_.files_by_domain[d]),
                    format_with_commas(result_.dirs_by_domain[d]),
                    format_percent(result_.dir_fraction(d))});
  }
  census.print(os);

  os << "\nFig 8(a): project max directory depth CDF\n"
     << "  projects with depth > 10: "
     << format_percent(1.0 - result_.project_max_depth.fraction_at_most(10))
     << " (paper: >30%)\n"
     << "  projects with depth > 15: "
     << format_percent(1.0 - result_.project_max_depth.fraction_at_most(15))
     << " (paper: <3%... small)\n"
     << "  deepest path: " << result_.max_depth << " (paper: 432; 2030 stf)\n";

  os << "\nFig 8(b): unique files per user / project\n"
     << "  median files per user:    "
     << format_count(result_.median_files_per_user) << "\n"
     << "  median files per project: "
     << format_count(result_.median_files_per_project) << "\n"
     << "  max files one user:       "
     << format_count(static_cast<double>(result_.max_files_one_user)) << "\n"
     << "  max files one project:    "
     << format_count(static_cast<double>(result_.max_files_one_project))
     << "\n";

  os << "\nempty directories in the final snapshot: "
     << format_with_commas(result_.final_empty_dirs) << " of "
     << format_with_commas(result_.final_dirs) << " ("
     << format_percent(result_.final_empty_dir_fraction())
     << ") — purge deletes files, never directories\n";

  os << "\nFig 9: directory depth by domain (min/q25/median/q75/max)\n";
  AsciiTable depth({"domain", "min", "q25", "median", "q75", "max"});
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const FiveNumber& fn = result_.depth_by_domain[d];
    if (fn.count == 0) continue;
    depth.add_row({profiles[d].id, format_double(fn.min, 0),
                   format_double(fn.q25, 0), format_double(fn.median, 0),
                   format_double(fn.q75, 0), format_double(fn.max, 0)});
  }
  depth.print(os);
  return os.str();
}

}  // namespace spider
