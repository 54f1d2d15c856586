// In-memory span recorder and the forwarding proxies the traced run wraps
// around SpiderStudy's layers.
//
// The program under test is not instrumented: every span is recorded here,
// at a layer boundary the benchmark can reach through the public API. A
// TracedAnalyzer forwards every StudyAnalyzer virtual to a real analyzer
// and times the calls the runner makes into it; a TracedSource forwards
// every SnapshotSource virtual and times the gaps between visitor calls
// (read + decode) and the visitor calls themselves (the runner's side).
// Spans go to per-thread buffers, so recording takes no lock after a
// thread's first span.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/series.h"
#include "study/runner.h"
#include "util/status.h"

namespace spiderbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

struct Span {
  std::uint32_t name = 0;    // Tracer::name() index
  std::uint32_t thread = 0;  // buffer index, one per recording thread
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t week = -1;  // series slot, -1 when not tied to a week
  std::int64_t arg = -1;   // chunk spans: the morsel's first global row

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers a span name. Not thread-safe: intern every name before the
  /// traced code starts running.
  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Span over the lifetime of the scope, on the calling thread. Spans
  /// opened while another scope of this thread is live become its
  /// children; others hang off the root set by set_root().
  class Scope {
   public:
    Scope(Tracer& tracer, std::uint32_t name, std::int64_t week,
          std::int64_t arg = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  /// Records a finished span whose interval the caller measured.
  void record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t week);

  /// Parent for spans opened with no enclosing scope on their thread
  /// (pool workers, the runner's pipeline thread).
  void set_root(std::uint64_t id) { root_.store(id); }

  /// Every span recorded so far. Call only while no traced code runs.
  std::vector<Span> spans() const;

  /// Writes a Chrome trace-event file (one track per recording thread).
  /// `metadata_json` is a JSON object stored under "otherData".
  spider::Status write_chrome_trace(const std::string& path,
                                    const std::string& metadata_json) const;

 private:
  struct ThreadBuffer {
    std::uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  // ids of live scopes, innermost last
  };
  ThreadBuffer& buffer();

  const std::uint64_t generation_;
  std::vector<std::string> names_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> root_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration and spans())
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Forwards every StudyAnalyzer virtual to `inner`, recording a span
/// around each call the runner makes per chunk, week or run.
class TracedAnalyzer final : public spider::StudyAnalyzer {
 public:
  /// `label` names the spans: study.<label>.{chunk,merge,apply_delta,
  /// finish,save_state,load_state}.
  TracedAnalyzer(spider::StudyAnalyzer& inner, std::string_view label,
                 Tracer& tracer);

  bool wants_diff() const override { return inner_.wants_diff(); }
  spider::ColumnMask columns_needed() const override {
    return inner_.columns_needed();
  }
  std::unique_ptr<spider::ScanChunkState> make_chunk_state() const override {
    return inner_.make_chunk_state();
  }
  void observe_chunk(spider::ScanChunkState* state,
                     const spider::WeekObservation& obs,
                     const spider::ScanMorsel& m) override;
  void merge(const spider::WeekObservation& obs,
             spider::ScanStateList states) override;
  void observe(const spider::WeekObservation& obs) override {
    inner_.observe(obs);
  }
  bool supports_delta() const override { return inner_.supports_delta(); }
  void apply_delta(const spider::WeekObservation& obs,
                   const spider::WeekDelta& delta) override;
  void finish() override;
  std::string_view state_id() const override { return inner_.state_id(); }
  std::uint32_t state_version() const override {
    return inner_.state_version();
  }
  bool save_state(spider::StateWriter& w) const override;
  bool load_state(spider::StateReader& r) override;

 private:
  spider::StudyAnalyzer& inner_;
  Tracer& tracer_;
  std::uint32_t chunk_, merge_, apply_delta_, finish_, save_state_,
      load_state_;
};

/// Forwards every SnapshotSource virtual to `inner`. Records, on the
/// visiting thread:
///   snapshot.read_decode   — from the previous visitor return (or the
///                            traversal start) to the next visitor call;
///   runner.handoff         — a resident visitor call on a pipelined pass
///                            (index build + waiting for the analyst);
///   runner.analyze_sync    — a visitor call that analyzes the week on
///                            the visiting thread (out-of-core passes).
class TracedSource final : public spider::SnapshotSource {
 public:
  TracedSource(spider::SnapshotSource& inner, Tracer& tracer);

  std::size_t count() const override { return inner_.count(); }
  void visit(const spider::SnapshotVisitor& visitor) override;
  void visit_move(const spider::SnapshotMoveVisitor& visitor) override;
  void visit_from(std::size_t first_slot,
                  const spider::SnapshotVisitor& visitor) override;
  void visit_move_from(std::size_t first_slot,
                       const spider::SnapshotMoveVisitor& visitor) override;
  void visit_streaming(
      std::size_t first_slot, const spider::StreamChooser& chooser,
      const spider::SnapshotMoveVisitor& move_visitor,
      const spider::SnapshotStreamVisitor& stream_visitor) override;
  bool stable_snapshots() const override { return inner_.stable_snapshots(); }
  void set_columns(spider::ColumnMask columns) override {
    inner_.set_columns(columns);
  }
  std::span<const spider::SeriesGap> gaps() const override {
    return inner_.gaps();
  }

  /// Weeks delivered as group streams (out of core) so far.
  std::size_t weeks_streamed() const { return weeks_streamed_; }

 private:
  /// Wraps a per-week visitor body: records the read/decode interval that
  /// preceded it, then runs `body` inside a span named `call_name`.
  template <typename Body>
  auto around(std::int64_t& mark, std::uint32_t call_name, std::size_t week,
              Body&& body);

  spider::SnapshotSource& inner_;
  Tracer& tracer_;
  std::uint32_t read_decode_, handoff_, analyze_sync_;
  std::size_t weeks_streamed_ = 0;
};

}  // namespace spiderbench
