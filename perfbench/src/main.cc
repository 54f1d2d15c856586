// spiderbench: drives SpiderStudy through its public API the way a
// facility analyst does — a series of .scol snapshots on disk, the plan
// inferred from them, FullStudy over every week, the rendered bundle — and
// prints every metric by name and unit. The last line of standard output
// is the JSON result.
//
//   spiderbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//               --work=<scratch directory>
//   spiderbench --self-test [--seed=<n>] --work=<scratch directory>
//
// Workloads (two series per seed, generator defaults with maintenance
// gaps; the study pool is one thread or every CPU the process may use):
//   study-disk        the batch study: resident, scan mode, no checkpoint,
//                     at 1 thread and at all threads.
//   incremental-ckpt  incremental mode with a checkpoint every week over
//                     the first N-1 snapshots; then the Nth lands and a
//                     resume=true run absorbs it.
//   study-streamed    the study with a memory budget below every week's
//                     resident footprint: every week goes out of core.
//
// --trace=0 measures the end-to-end metrics; --trace=1 runs the same
// passes through forwarding proxies, adds isolated layer probes, writes a
// Chrome trace next to the work directory and prints the layer metrics.
// --self-test checks that the proxies change no output. perfbench/METRICS.md
// defines every metric.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "probes.h"
#include "study/checkpoint.h"
#include "trace.h"
#include "util/cli.h"
#include "util/io.h"
#include "util/timeutil.h"

namespace spiderbench {
namespace {

namespace fs = std::filesystem;
using namespace spider;

#ifndef SPIDERBENCH_BUILD_TYPE
#define SPIDERBENCH_BUILD_TYPE "unknown"
#endif

/// Set-up repetitions per series; setup_s is the median over all series.
constexpr int kSetupReps = 2;

/// Series a --trace 0 run measures. How many files land in the deep
/// directory chains depends on the seed and moves a pass by up to a third,
/// so each round covers several series and reports their pooled times.
constexpr int kSeriesPerRun = 2;

/// The generator seed of series `k` of the run with `seed`; two runs with
/// different seeds never share a series.
std::uint64_t series_seed(std::uint64_t seed, int k) {
  return seed * kSeriesPerRun + static_cast<std::uint64_t>(k);
}

enum class Workload { kDisk, kIncremental, kStreamed };

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> names = {
      {"study-disk", Workload::kDisk},
      {"incremental-ckpt", Workload::kIncremental},
      {"study-streamed", Workload::kStreamed},
  };
  return names;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Failure accounting: an operation is one analyzed week. A pass whose
/// bundle differs from the reference fails all of its weeks; every failed
/// checkpoint write is one more failed operation.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const PassOutcome& o) {
    const std::size_t weeks = std::max<std::size_t>(o.weeks, 1);
    attempted += weeks + o.checkpoint.write_failures;
    if (!o.correct) failed += weeks;
    failed += o.checkpoint.write_failures;
  }
};

/// Paces the measurement loop: rounds continue while the next one, as
/// long as the last, still ends within the run's seconds; at least two
/// rounds run so that every median has more than one sample.
class RoundClock {
 public:
  explicit RoundClock(double seconds)
      : deadline_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)),
        last_(now_ns()) {}

  bool another() {
    const std::int64_t now = now_ns();
    const std::int64_t round = now - last_;
    last_ = now;
    return ++rounds_ < 2 || now + round <= deadline_;
  }

 private:
  std::int64_t deadline_;
  std::int64_t last_;
  int rounds_ = 0;
};

/// The CPUs this process may run on, as nproc counts them: a container
/// pinned to a few cores of a larger host gets those few, where
/// std::thread::hardware_concurrency would report the whole host.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double per_week_ms(const PassOutcome& o) {
  return o.weeks == 0 ? 0 : o.seconds * 1e3 / static_cast<double>(o.weeks);
}

StudyOptions pass_options(Workload w, const Prepared& prep,
                          ThreadPool* pool) {
  StudyOptions o;
  o.pool = pool;
  if (w == Workload::kStreamed) o.memory_budget = prep.stream_budget;
  if (w == Workload::kIncremental) {
    // analyze_series --checkpoint: incremental, a checkpoint every week,
    // resume from an existing one.
    o.incremental = true;
    o.checkpoint.path = prep.checkpoint;
    o.checkpoint.every = 1;
    o.checkpoint.resume = true;
  }
  return o;
}

// --- incremental-ckpt -----------------------------------------------------

std::string landed_path(const Prepared& prep) {
  return (fs::path(prep.inc_dir) / fs::path(prep.landing).filename())
      .string();
}

/// Back to N-1 snapshots and no checkpoint.
void unland(const Prepared& prep) {
  std::error_code ec;
  fs::remove(landed_path(prep), ec);
  fs::remove(prep.checkpoint, ec);
}

bool land(const Prepared& prep) {
  std::error_code ec;
  fs::create_hard_link(prep.landing, landed_path(prep), ec);
  if (ec) fs::copy_file(prep.landing, landed_path(prep), ec);
  return !ec;
}

struct IncrementalRound {
  PassOutcome first;    // checkpointed run over the first N-1 snapshots
  PassOutcome resumed;  // resume=true run after the Nth landed
  std::vector<std::uint8_t> first_checkpoint, resumed_checkpoint;
};

IncrementalRound incremental_round(const Prepared& prep, ThreadPool* pool,
                                   bool with_resume, Tracer* tracer) {
  const StudyOptions options =
      pass_options(Workload::kIncremental, prep, pool);
  IncrementalRound r;
  unland(prep);
  r.first = run_pass(prep, prep.inc_dir, options, prep.reference_prefix,
                     tracer);
  (void)read_file(prep.checkpoint, &r.first_checkpoint);
  if (with_resume) {
    if (!land(prep)) return r;
    r.resumed = run_pass(prep, prep.inc_dir, options, prep.reference, tracer);
    (void)read_file(prep.checkpoint, &r.resumed_checkpoint);
  }
  return r;
}

// --- reporting ------------------------------------------------------------

std::string input_record(const Prepared& prep, unsigned nproc) {
  std::string s = "{\"nproc\":" + std::to_string(nproc) +
                  ",\"build_type\":\"" SPIDERBENCH_BUILD_TYPE "\"" +
                  ",\"seed\":" + std::to_string(prep.seed) +
                  ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
                  ",\"scale\":" + number(prep.config.scale) +
                  ",\"slots\":" + std::to_string(prep.slots) +
                  ",\"snapshots\":" + std::to_string(prep.files.size()) +
                  ",\"rows\":" + std::to_string(prep.rows()) +
                  ",\"scol_bytes\":" + std::to_string(prep.bytes()) +
                  ",\"stream_budget_bytes\":" +
                  std::to_string(prep.stream_budget);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(prep.reference.digest()));
  s += ",\"reference_digest\":\"" + std::string(digest) + "\"";
  std::string rows = ",\"rows_per_week\":[", groups = ",\"groups_per_week\":[";
  for (std::size_t i = 0; i < prep.files.size(); ++i) {
    if (i > 0) {
      rows += ',';
      groups += ',';
    }
    rows += std::to_string(prep.files[i].rows);
    groups += std::to_string(prep.files[i].groups);
  }
  s += rows + "]" + groups + "]";
  s += ",\"churn\":[";
  for (std::size_t i = 0; i < prep.churn.size(); ++i) {
    const AccessPatternWeek& w = prep.churn[i];
    s += std::string(i ? "," : "") + "{\"date\":\"" + date_iso(w.date) +
         "\",\"new\":" + number(w.new_frac) +
         ",\"updated\":" + number(w.updated_frac) +
         ",\"deleted\":" + number(w.deleted_frac) + "}";
  }
  return s + "]}";
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_ratio =
      tally.attempted == 0
          ? 1.0
          : static_cast<double>(tally.failed) /
                static_cast<double>(tally.attempted);
  std::printf("fail_ratio %s (%zu failed of %zu weeks)\n",
              number(fail_ratio).c_str(), tally.failed, tally.attempted);
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- end-to-end run -------------------------------------------------------

/// One kind of pass (all threads, one thread, resumed) on one series:
/// its wall time in every round.
struct PassSamples {
  std::vector<double> seconds;
  std::size_t weeks = 0;
  std::uint64_t rows = 0;

  void add(const PassOutcome& o) {
    seconds.push_back(o.seconds);
    weeks = o.weeks;
    rows = o.rows;
  }
};

/// One kind of pass pooled over the run's series: each series' median
/// wall time, summed. The median keeps a slow round from setting a
/// series' figure; the sum keeps a single seed's input from setting the
/// run's.
struct Pooled {
  double seconds = 0;
  std::size_t weeks = 0;
  std::uint64_t rows = 0;

  explicit Pooled(const std::vector<PassSamples>& series) {
    for (const PassSamples& p : series) {
      seconds += median(p.seconds);
      weeks += p.weeks;
      rows += p.rows;
    }
  }
  double week_ms() const {
    return weeks == 0 ? 0 : seconds * 1e3 / static_cast<double>(weeks);
  }
  double rows_per_s() const {
    return seconds <= 0 ? 0 : static_cast<double>(rows) / seconds;
  }
};

int run_end_to_end(Workload w, const std::vector<Prepared>& preps,
                   double seconds, ThreadPool& serial, ThreadPool& wide) {
  const std::size_t n = preps.size();
  std::vector<PassSamples> all_threads(n), one_thread(n), resumed(n);
  std::vector<double> peak_rss;
  Tally tally;
  // A round runs the workload's passes once on every series.
  auto round = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      const Prepared& prep = preps[k];
      if (w == Workload::kIncremental) {
        const IncrementalRound r =
            incremental_round(prep, &wide, true, nullptr);
        const IncrementalRound r1 =
            incremental_round(prep, &serial, false, nullptr);
        tally.add(r.first);
        tally.add(r.resumed);
        tally.add(r1.first);
        all_threads[k].add(r.first);
        resumed[k].add(r.resumed);
        one_thread[k].add(r1.first);
        peak_rss.push_back(r.first.peak_rss_mb);
      } else {
        const StudyOptions one = pass_options(w, prep, &serial);
        const StudyOptions all = pass_options(w, prep, &wide);
        const PassOutcome o1 =
            run_pass(prep, prep.series_dir, one, prep.reference, nullptr);
        const PassOutcome on =
            run_pass(prep, prep.series_dir, all, prep.reference, nullptr);
        tally.add(o1);
        tally.add(on);
        one_thread[k].add(o1);
        all_threads[k].add(on);
        // Scan mode has no checkpoint: absorbing a landed week is a re-run.
        resumed[k].add(on);
        peak_rss.push_back(on.peak_rss_mb);
      }
    }
  };
  RoundClock clock(seconds);
  // One untimed (but checked) pass first: the first pass of a process
  // pays for heap growth and thread start-up.
  const Prepared& first = preps.front();
  if (w == Workload::kIncremental) {
    tally.add(incremental_round(first, &wide, false, nullptr).first);
  } else {
    tally.add(run_pass(first, first.series_dir, pass_options(w, first, &wide),
                       first.reference, nullptr));
  }
  do {
    round();
  } while (clock.another());
  std::printf("rounds: %zu\n", all_threads.front().seconds.size());
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& [name, p] :
         {std::pair<const char*, const PassSamples*>{"week_ms",
                                                     &all_threads[k]},
          {"week_ms_1t", &one_thread[k]}}) {
      std::string line;
      for (const double x : p->seconds) {
        line += ' ';
        line += number(x * 1e3 / static_cast<double>(p->weeks)).substr(0, 7);
      }
      std::printf("series %zu %s samples:%s\n", k, name, line.c_str());
    }
  }

  std::vector<double> setup_s;
  for (const Prepared& prep : preps) {
    setup_s.insert(setup_s.end(), prep.setup_s.begin(), prep.setup_s.end());
  }
  const Pooled wide_passes(all_threads);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"week_ms", wide_passes.week_ms(), "ms"},
      {"rows_per_s", wide_passes.rows_per_s(), "1/s"},
      {"week_ms_1t", Pooled(one_thread).week_ms(), "ms"},
      {"resume_ms", Pooled(resumed).seconds * 1e3 / static_cast<double>(n),
       "ms"},
  };
  // Peak RSS follows the seed's deep-path volume and the allocator's
  // retained arenas too closely to hold a bound across seeds; it is a
  // layer metric of the traced run and only printed here.
  std::printf("peak_rss_mb (unbounded) %.3f\n", median(peak_rss));
  print_result(tally.failed == 0, tally, metrics);
  return 0;
}

// --- traced run -----------------------------------------------------------

/// Layer metrics derived from the spans of the traced passes.
struct SpanSummary {
  std::map<std::string, double> total_ms;  // by span name
  double self_ms = 0;      // pass wall minus the union of its child spans
  double chunks = 0;       // distinct scan chunks over all passes
};

SpanSummary summarize(const Tracer& tracer) {
  SpanSummary out;
  const std::vector<Span> spans = tracer.spans();
  std::vector<const Span*> passes;
  for (const Span& s : spans) {
    out.total_ms[tracer.name(s.name)] += s.ms();
    if (tracer.name(s.name) == "pass") passes.push_back(&s);
  }
  for (const Span* pass : passes) {
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    std::set<std::pair<std::int64_t, std::int64_t>> chunks;
    for (const Span& s : spans) {
      if (&s == pass || s.start_ns < pass->start_ns ||
          s.end_ns > pass->end_ns) {
        continue;
      }
      children.emplace_back(s.start_ns, s.end_ns);
      const std::string& name = tracer.name(s.name);
      if (name.size() > 6 && name.ends_with(".chunk")) {
        chunks.emplace(s.week, s.arg);
      }
    }
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0, cursor = pass->start_ns;
    for (const auto& [begin, end] : children) {
      const std::int64_t from = std::max(begin, cursor);
      if (end > from) {
        covered += end - from;
        cursor = end;
      }
    }
    out.self_ms +=
        static_cast<double>(pass->end_ns - pass->start_ns - covered) / 1e6;
    out.chunks += static_cast<double>(chunks.size());
  }
  return out;
}

int run_traced(Workload w, const std::string& workload_name, Prepared& prep,
               Tracer& tracer, double seconds, ThreadPool& wide,
               const std::string& trace_path, unsigned nproc) {
  Tally tally;
  bool transparent = true;
  std::vector<double> untraced_ms, traced_ms, untraced_rss;
  std::vector<PassOutcome> traced;  // every traced pass
  std::string resume_reason;
  bool resumed = false;
  RoundClock clock(seconds);
  do {
    if (w == Workload::kIncremental) {
      const IncrementalRound u = incremental_round(prep, &wide, true, nullptr);
      const IncrementalRound t = incremental_round(prep, &wide, true, &tracer);
      for (const PassOutcome* o : {&u.first, &u.resumed, &t.first,
                                   &t.resumed}) {
        tally.add(*o);
      }
      // The proxies must not change what the checkpoint layer writes. The
      // byte-for-byte comparison is --self-test's (see checkpoint_outline).
      const std::string outline = checkpoint_outline(t.first_checkpoint);
      if (outline.empty() || outline != checkpoint_outline(u.first_checkpoint) ||
          checkpoint_outline(t.resumed_checkpoint) !=
              checkpoint_outline(u.resumed_checkpoint)) {
        transparent = false;
        tally.failed += t.first.weeks + t.resumed.weeks;
      }
      untraced_ms.push_back(per_week_ms(u.first));
      untraced_rss.push_back(u.first.peak_rss_mb);
      traced_ms.push_back(per_week_ms(t.first));
      traced.push_back(t.first);
      traced.push_back(t.resumed);
      resumed = t.resumed.checkpoint.resumed;
      resume_reason = t.resumed.checkpoint.rebaseline_reason;
    } else {
      const StudyOptions all = pass_options(w, prep, &wide);
      const PassOutcome u =
          run_pass(prep, prep.series_dir, all, prep.reference, nullptr);
      const PassOutcome t =
          run_pass(prep, prep.series_dir, all, prep.reference, &tracer);
      tally.add(u);
      tally.add(t);
      untraced_ms.push_back(per_week_ms(u));
      untraced_rss.push_back(u.peak_rss_mb);
      traced_ms.push_back(per_week_ms(t));
      traced.push_back(t);
    }
  } while (clock.another());

  ProbeResults probes;
  bool probes_ok = probe_columns(prep, tracer, &probes) &&
                   probe_diffs(prep, wide, tracer, &probes);
  if (w == Workload::kIncremental) {
    probes_ok = probes_ok &&
                probe_checkpoint(prep.checkpoint, prep.checkpoint + ".copy",
                                 3, tracer, &probes) &&
                probes.checkpoint_round_trip;
  }
  if (!probes_ok) {
    std::fprintf(stderr, "spiderbench: a layer probe failed\n");
    return 1;
  }

  const SpanSummary sum = summarize(tracer);
  double weeks = 0, streamed = 0, bytes_read = 0, write_bytes = 0;
  for (const PassOutcome& o : traced) {
    weeks += static_cast<double>(o.weeks);
    streamed += static_cast<double>(o.weeks_streamed);
    bytes_read += static_cast<double>(o.bytes);
    write_bytes += static_cast<double>(o.write_bytes);
  }
  const double passes = static_cast<double>(traced.size());
  auto total = [&](const std::string& name) {
    const auto it = sum.total_ms.find(name);
    return it == sum.total_ms.end() ? 0.0 : it->second;
  };
  auto per_week = [&](const std::string& name) {
    return weeks == 0 ? 0.0 : total(name) / weeks;
  };
  double groups = 0;
  for (const SeriesFile& f : prep.files) groups += static_cast<double>(f.groups);

  std::vector<Metric> m;
  m.push_back({"snapshot.read_decode_ms", per_week("snapshot.read_decode"),
               "ms/week"});
  m.push_back({"snapshot.checksum_ms", probes.checksum_ms, "ms/week"});
  for (std::size_t c = 0; c < kColumnNames.size(); ++c) {
    m.push_back({std::string("snapshot.decode.") + kColumnNames[c] + "_ms",
                 probes.decode_ms[c], "ms/week"});
  }
  m.push_back({"snapshot.bytes_read", bytes_read / passes, "bytes"});
  m.push_back({"snapshot.groups", groups, "count"});
  m.push_back({"snapshot.scol_bytes_per_row",
               static_cast<double>(prep.bytes()) /
                   static_cast<double>(prep.rows()),
               "bytes"});
  m.push_back({"snapshot.weeks_streamed", streamed / passes, "count"});
  m.push_back({"study.runner.weeks", weeks / passes, "count"});
  m.push_back({"synth.infer_ms", median(prep.infer_s) * 1e3, "ms"});
  for (const char* a : kAnalyzerLabels) {
    const std::string base = std::string("study.") + a + ".";
    m.push_back({base + "chunk_ms", per_week(base + "chunk"), "ms/week"});
    m.push_back({base + "merge_ms", per_week(base + "merge"), "ms/week"});
    m.push_back({base + "apply_delta_ms", per_week(base + "apply_delta"),
                 "ms/week"});
    m.push_back({base + "save_state_ms", per_week(base + "save_state"),
                 "ms/week"});
  }
  m.push_back({"engine.scan.chunks", sum.chunks / passes, "count"});
  m.push_back({"engine.diff.build_ms", probes.diff_build_ms, "ms/pair"});
  m.push_back({"engine.diff.probe_ms", probes.diff_probe_ms, "ms/pair"});
  m.push_back({"engine.diff.sweep_ms", probes.diff_sweep_ms, "ms/pair"});
  m.push_back({"engine.diff.new_frac", probes.new_frac, "ratio"});
  m.push_back({"engine.diff.updated_frac", probes.updated_frac, "ratio"});
  m.push_back({"engine.diff.deleted_frac", probes.deleted_frac, "ratio"});
  m.push_back({"study.checkpoint.bytes", probes.checkpoint_bytes, "bytes"});
  m.push_back({"study.checkpoint.save_ms", probes.checkpoint_save_ms, "ms"});
  m.push_back({"study.checkpoint.load_ms", probes.checkpoint_load_ms, "ms"});
  m.push_back({"study.resume.resumed", resumed ? 1.0 : 0.0, "0/1"});
  // Checkpointed passes never go out of core (the runner keeps weeks it
  // fingerprints resident), so their writes are checkpoint bytes, not spill.
  m.push_back({"engine.spill.write_bytes",
               w == Workload::kIncremental ? 0.0 : write_bytes / passes,
               "bytes"});
  m.push_back({"study.network.finish_ms", total("study.network.finish") / passes,
               "ms"});
  m.push_back({"study.collaboration.finish_ms",
               total("study.collaboration.finish") / passes, "ms"});
  m.push_back({"study.runner.peak_rss_mb", median(untraced_rss), "MB"});
  m.push_back({"study.runner.handoff_wait_ms", per_week("runner.handoff"),
               "ms/week"});
  m.push_back({"study.runner.self_ms", weeks == 0 ? 0 : sum.self_ms / weeks,
               "ms/week"});
  const double untraced = median(untraced_ms);
  m.push_back({"trace.overhead_pct",
               untraced <= 0 ? 0 : (median(traced_ms) / untraced - 1) * 100,
               "%"});

  if (w == Workload::kIncremental) {
    // The runner names a marker by state_id, which scan-only analyzers
    // leave empty; the roster position names it here.
    std::string markers;
    std::vector<std::uint8_t> image;
    StudyCheckpoint ckpt;
    if (read_file(prep.checkpoint, &image).ok() &&
        decode_checkpoint(image, &ckpt).ok()) {
      for (std::size_t i = 0;
           i < ckpt.analyzers.size() && i < kAnalyzerLabels.size(); ++i) {
        if (ckpt.analyzers[i].has_state) continue;
        if (!markers.empty()) markers += ", ";
        markers += kAnalyzerLabels[i];
      }
    }
    std::printf("study.resume.resumed %d reason: %s (re-baseline markers: %s)\n",
                resumed ? 1 : 0,
                resume_reason.empty() ? "none" : resume_reason.c_str(),
                markers.empty() ? "none" : markers.c_str());
  }
  std::printf("proxies transparent: %s\n", transparent ? "yes" : "NO");
  std::string metadata = "{\"workload\":\"" + workload_name +
                         "\",\"input\":" + input_record(prep, nproc) + "}";
  const Status s = tracer.write_chrome_trace(trace_path, metadata);
  if (!s.ok()) {
    std::fprintf(stderr, "spiderbench: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("trace: %s (%zu traced passes)\n", trace_path.c_str(),
              traced.size());
  print_result(tally.failed == 0 && transparent, tally, m);
  return 0;
}

// --- self-test ------------------------------------------------------------

/// Prints which analyzer blobs of two .sckpt images differ, and whether a
/// second untraced image differs from the first at the same blob.
void diagnose_checkpoints(const std::vector<std::uint8_t>& traced,
                          const std::vector<std::uint8_t>& untraced,
                          const std::vector<std::uint8_t>& untraced2) {
  StudyCheckpoint t, u, u2;
  if (!decode_checkpoint(traced, &t).ok() ||
      !decode_checkpoint(untraced, &u).ok() ||
      !decode_checkpoint(untraced2, &u2).ok() ||
      t.analyzers.size() != u.analyzers.size() ||
      u.analyzers.size() != u2.analyzers.size()) {
    std::printf("    the images do not decode to the same roster\n");
    return;
  }
  if (checkpoint_outline(traced) != checkpoint_outline(untraced)) {
    std::printf("    runner position, gaps or roster differ\n");
  }
  for (std::size_t i = 0; i < t.analyzers.size(); ++i) {
    if (t.analyzers[i].blob == u.analyzers[i].blob) continue;
    std::printf("    analyzer '%s': state bytes differ%s\n",
                u.analyzers[i].id.c_str(),
                u.analyzers[i].blob != u2.analyzers[i].blob
                    ? " (and between two untraced runs)"
                    : "");
  }
}

/// The proxies must be transparent: on one seed, each workload's pass runs
/// untraced and traced, both bundles must equal the reference, and the
/// incremental runs' .sckpt images must be byte-identical. Exit 0 when
/// everything matches.
int run_self_test(const Prepared& prep, ThreadPool& wide) {
  Tracer tracer;
  bool ok = true;
  auto verdict = [&](const char* what, bool good) {
    std::printf("%-52s %s\n", what, good ? "ok" : "DIFFERS");
    ok = ok && good;
  };
  for (const Workload w : {Workload::kDisk, Workload::kStreamed}) {
    const StudyOptions options = pass_options(w, prep, &wide);
    const PassOutcome u =
        run_pass(prep, prep.series_dir, options, prep.reference, nullptr);
    const PassOutcome t =
        run_pass(prep, prep.series_dir, options, prep.reference, &tracer);
    const bool disk = w == Workload::kDisk;
    verdict(disk ? "study-disk untraced bundle" : "study-streamed untraced bundle",
            u.correct);
    verdict(disk ? "study-disk traced bundle" : "study-streamed traced bundle",
            t.correct);
  }
  const IncrementalRound u = incremental_round(prep, &wide, true, nullptr);
  const IncrementalRound u2 = incremental_round(prep, &wide, true, nullptr);
  const IncrementalRound t = incremental_round(prep, &wide, true, &tracer);
  verdict("incremental-ckpt untraced bundles",
          u.first.correct && u.resumed.correct);
  verdict("incremental-ckpt traced bundles",
          t.first.correct && t.resumed.correct);
  verdict("incremental-ckpt .sckpt after N-1 weeks, traced = untraced",
          !t.first_checkpoint.empty() &&
              t.first_checkpoint == u.first_checkpoint);
  if (t.first_checkpoint != u.first_checkpoint) {
    diagnose_checkpoints(t.first_checkpoint, u.first_checkpoint,
                         u2.first_checkpoint);
  }
  verdict("incremental-ckpt .sckpt after the resume, traced = untraced",
          !t.resumed_checkpoint.empty() &&
              t.resumed_checkpoint == u.resumed_checkpoint);
  if (t.resumed_checkpoint != u.resumed_checkpoint) {
    diagnose_checkpoints(t.resumed_checkpoint, u.resumed_checkpoint,
                         u2.resumed_checkpoint);
  }
  std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool self_test = args.has("self-test");
  const std::string workload =
      self_test ? "self-test" : args.get("workload", "");
  const auto it = workloads().find(workload);
  const double seconds = args.get_double("seconds", 0);
  const std::int64_t trace = args.get_int("trace", -1);
  const std::string work = args.get("work", "");
  if (work.empty() ||
      (!self_test && (it == workloads().end() || !args.has("seed") ||
                      !(seconds > 0) || (trace != 0 && trace != 1)))) {
    std::fprintf(stderr,
                 "usage: spiderbench --workload=<study-disk|incremental-ckpt|"
                 "study-streamed> --seed=<n> --seconds=<s> --trace=<0|1> "
                 "--work=<dir>\n"
                 "       spiderbench --self-test [--seed=<n>] --work=<dir>\n");
    return 2;
  }
  const Workload w = self_test ? Workload::kIncremental : it->second;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const fs::path work_dir = fs::absolute(fs::path(work)) /
                            (workload + "-" + std::to_string(seed));
  // The out-of-core runner spills under the temp directory; keep it in
  // the work directory.
  const fs::path tmp = work_dir.parent_path() / "tmp";
  std::error_code ec;
  fs::create_directories(tmp, ec);
  setenv("TMPDIR", tmp.c_str(), 1);

  const unsigned nproc = usable_cpus();
  ThreadPool serial(1);
  ThreadPool wide(nproc);
  Tracer tracer;
  // The traced run and the self-test work on the first series only.
  const int series = self_test || trace == 1 ? 1 : kSeriesPerRun;
  std::vector<Prepared> preps(static_cast<std::size_t>(series));
  std::printf("workload: %s  trace: %lld  seed: %llu\n", workload.c_str(),
              static_cast<long long>(trace),
              static_cast<unsigned long long>(seed));
  for (int k = 0; k < series; ++k) {
    std::string error;
    if (!prepare(series_seed(seed, k),
                 (work_dir / ("series-" + std::to_string(k))).string(),
                 kSetupReps, w == Workload::kIncremental,
                 trace == 1 ? &tracer : nullptr, &preps[k], &error)) {
      std::fprintf(stderr, "spiderbench: %s\n", error.c_str());
      fs::remove_all(work_dir, ec);
      return 1;
    }
    std::printf("input: %s\n", input_record(preps[k], nproc).c_str());
  }
  std::fflush(stdout);
  Prepared& prep = preps.front();

  int rc = 0;
  if (self_test) {
    rc = run_self_test(prep, wide);
  } else if (trace == 0) {
    rc = run_end_to_end(w, preps, seconds, serial, wide);
  } else {
    const fs::path trace_path = work_dir.parent_path().parent_path() /
                                "traces" /
                                (workload + "-" + std::to_string(seed) +
                                 ".json");
    fs::create_directories(trace_path.parent_path(), ec);
    rc = run_traced(w, workload, prep, tracer, seconds, wide,
                    trace_path.string(), nproc);
  }
  fs::remove_all(work_dir, ec);
  return rc;
}

}  // namespace
}  // namespace spiderbench

int main(int argc, char** argv) { return spiderbench::run(argc, argv); }
