// Full-study throughput harness: the shared-scan parallel runner versus
// its serial baseline (FullStudy::run on one thread with prefetch off), on
// one materialized synthetic series.
//
// Measures weeks/sec and per-week ms at 1, half, and all hardware threads
// with prefetch on, self-checks that every setting — the baseline
// included — renders byte-identical results (exit 1 otherwise), and emits
// BENCH_full_study.json (alongside the human-readable table) so the perf
// trajectory is machine-diffable across PRs.
//
// Flags: --scale / --weeks / --seed / --no-gaps (bench_common),
// --reps=<n> best-of-n timing (default 2), --out=<path> for the JSON.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.h"
#include "snapshot/series.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace spider;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Every user-visible string the study produces; two runs agree iff this
/// is byte-identical.
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

double run_study_timed(SnapshotSource& series, const Resolver& resolver,
                       std::size_t burst_min_files, ThreadPool& pool,
                       bool prefetch, std::string* bundle) {
  FullStudy study(resolver, burst_min_files);
  StudyOptions options;
  options.pool = &pool;
  options.prefetch = prefetch;
  const auto start = std::chrono::steady_clock::now();
  study.run(series, options);
  const double elapsed = seconds_since(start);
  if (bundle) *bundle = render_bundle(study);
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  auto env = bench::BenchEnv::from_args(argc, argv, /*default_scale=*/2e-4);
  env.config.weeks = static_cast<std::size_t>(args.get_int("weeks", 24));
  env.generator = std::make_unique<FacilityGenerator>(env.config);
  env.resolver = std::make_unique<Resolver>(env.generator->plan());
  env.print_header("Full-study throughput — shared-scan parallel runner",
                   "one parallel pass feeds all twelve analyzers");

  // Materialize the series so timings measure the study pass, not the
  // simulation.
  SnapshotSeries series;
  std::size_t total_rows = 0;
  env.generator->visit_move([&](std::size_t, Snapshot&& snap) {
    total_rows += snap.table.size();
    series.add(std::move(snap));
  });
  const std::size_t weeks = series.count();
  const double dweeks = static_cast<double>(weeks);
  std::printf("series: %zu weeks, %s rows total\n\n", weeks,
              format_with_commas(total_rows).c_str());

  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 2)));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned half = std::max(1u, hw / 2);
  const std::size_t burst_min = env.burst_min_files();

  auto best_of = [&](auto&& fn) {
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) best = std::min(best, fn());
    return best;
  };

  std::string baseline_bundle;
  ThreadPool serial_pool(1);
  const double baseline_s = best_of([&] {
    return run_study_timed(series, *env.resolver, burst_min, serial_pool,
                           /*prefetch=*/false, &baseline_bundle);
  });

  struct Setting {
    unsigned threads;
    double seconds;
  };
  std::vector<Setting> settings;
  for (const unsigned threads : {1u, half, hw}) {
    ThreadPool pool(threads);
    std::string bundle;
    const double s = best_of([&] {
      return run_study_timed(series, *env.resolver, burst_min, pool,
                             /*prefetch=*/true, &bundle);
    });
    if (bundle != baseline_bundle) {
      std::fprintf(stderr,
                   "FAIL: results at %u threads differ from the serial "
                   "baseline\n",
                   threads);
      return 1;
    }
    settings.push_back(Setting{threads, s});
  }

  AsciiTable out({"configuration", "per-week ms", "weeks/s", "speedup"});
  const auto row = [&](const std::string& name, double s) {
    out.add_row({name, format_double(1000.0 * s / dweeks, 1),
                 format_double(dweeks / s, 2),
                 format_double(baseline_s / s, 2) + "x"});
  };
  row("serial baseline (1 thread, no prefetch)", baseline_s);
  for (const Setting& s : settings) {
    row("parallel runner, " + std::to_string(s.threads) + " thread(s)",
        s.seconds);
  }
  out.print(std::cout);
  std::printf("\nresults byte-identical to the serial baseline across "
              "{1, %u, %u} threads\n",
              half, hw);

  const std::string json_path = args.get("out", "BENCH_full_study.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"weeks\": " << weeks << ",\n"
       << "  \"rows_total\": " << total_rows << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"serial_baseline_week_ms\": " << 1000.0 * baseline_s / dweeks
       << ",\n"
       << "  \"serial_baseline_weeks_per_s\": " << dweeks / baseline_s
       << ",\n"
       << "  \"parallel\": [\n";
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const Setting& s = settings[i];
    json << "    {\"threads\": " << s.threads
         << ", \"week_ms\": " << 1000.0 * s.seconds / dweeks
         << ", \"weeks_per_s\": " << dweeks / s.seconds
         << ", \"speedup_vs_serial\": " << baseline_s / s.seconds << "}"
         << (i + 1 < settings.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
