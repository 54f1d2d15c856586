#include "study/full_study.h"

#include <sstream>

#include "study/checkpoint.h"
#include "synth/langmap.h"
#include "util/table.h"

namespace spider {

FullStudy::FullStudy(const Resolver& resolver, std::size_t burst_min_files)
    : user_profile(resolver),
      participation(resolver),
      census(resolver),
      extensions(resolver),
      languages(resolver),
      striping(resolver),
      burstiness(resolver, burst_min_files),
      network(resolver, participation),
      collaboration(resolver, participation),
      resolver_(resolver) {}

void FullStudy::run(SnapshotSource& source, const StudyOptions& options) {
  // Network and collaboration read participation's observed edges, which
  // are complete once the last week merged, so finish order is free.
  StudyAnalyzer* analyzers[] = {
      &user_profile, &participation, &census,    &extensions,
      &languages,    &access_patterns, &striping, &growth,
      &file_age,     &burstiness,    &network,   &collaboration,
  };
  // Surface the checkpoint layer's outcome even when the caller did not
  // ask for a report: a resumed run must merge the restored gap timeline
  // below (the source never re-read the pre-resume weeks).
  CheckpointReport local_report;
  StudyOptions run_options = options;
  if (run_options.checkpoint_report == nullptr) {
    run_options.checkpoint_report = &local_report;
  }
  run_study(source, analyzers, run_options);
  // Snapshot the source's damage accounting (DirectorySeries discovers
  // decode failures during the traversal itself), unioned with any gaps
  // restored from a resumed checkpoint.
  const auto gaps = source.gaps();
  if (run_options.checkpoint_report->restored_gaps.empty()) {
    gaps_.assign(gaps.begin(), gaps.end());
  } else {
    gaps_ = merge_gap_timelines(run_options.checkpoint_report->restored_gaps,
                                gaps);
  }
}

std::string FullStudy::render_data_quality() const {
  std::ostringstream os;
  const std::size_t visited = growth.result().points.size();
  const std::size_t slots = visited + gaps_.size();
  if (gaps_.empty()) {
    os << "Data quality: complete series, " << visited
       << " weeks, no gaps\n";
    return os.str();
  }
  os << "Data quality: " << visited << " of " << slots
     << " week slots usable; " << gaps_.size() << " gap(s)\n";
  for (const SeriesGap& gap : gaps_) {
    os << "  " << gap.describe() << "\n";
  }
  os << "  diff pairs skipped at gaps: "
     << access_patterns.result().gap_pairs_skipped
     << " (access patterns), " << burstiness.result().gap_pairs_skipped
     << " (burstiness); " << growth.result().gap_weeks
     << " growth point(s) span a gap\n";
  return os.str();
}

std::string FullStudy::render_table1() const {
  std::ostringstream os;
  os << "Table 1: per-domain summary (measured from the synthetic series)\n";
  AsciiTable t({"domain", "#entries(K)", "depth[med,max]", "top ext (%)",
                "langs", "#OST", "write cv", "read cv", "network %",
                "collab %"});
  const auto profiles = domain_profiles();
  const auto langs = ::spider::languages();
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const std::uint64_t entries = census.result().files_by_domain[d] +
                                  census.result().dirs_by_domain[d];
    if (entries == 0) continue;
    const FiveNumber& depth = census.result().depth_by_domain[d];
    const auto& top = extensions.result().top3_by_domain[d];
    const int lang1 = languages.result().top_language(d);
    const int lang2 = languages.result().second_language(d);
    const FiveNumber& wcv = burstiness.result().write_cv_by_domain[d];
    const FiveNumber& rcv = burstiness.result().read_cv_by_domain[d];

    std::string lang_cell;
    if (lang1 >= 0) lang_cell = langs[static_cast<std::size_t>(lang1)].name;
    if (lang2 >= 0) {
      lang_cell += ", ";
      lang_cell += langs[static_cast<std::size_t>(lang2)].name;
    }
    t.add_row({profiles[d].id,
               format_double(static_cast<double>(entries) / 1000.0, 1),
               "[" + format_double(depth.median, 0) + ", " +
                   format_double(depth.max, 0) + "]",
               top.empty() ? "-" : top[0].first + " (" +
                                       format_double(top[0].second, 1) + ")",
               lang_cell.empty() ? "-" : lang_cell,
               format_double(striping.result().by_domain[d].max(), 0),
               wcv.count ? format_cv(wcv.median) : "-",
               rcv.count ? format_cv(rcv.median) : "-",
               format_percent(
                   network.result().giant_probability_by_domain[d]),
               format_percent(collaboration.result().stats.domain_share(d))});
  }
  t.print(os);
  return os.str();
}

}  // namespace spider
