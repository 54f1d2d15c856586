#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "util/io.h"

namespace spiderbench {

namespace {

std::atomic<std::uint64_t> g_tracer_generation{1};

/// The calling thread's buffer in the tracer it last recorded into.
struct ThreadCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : generation_(g_tracer_generation.fetch_add(1)) {}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->index = static_cast<std::uint32_t>(buffers_.size());
    buf->spans.reserve(4096);
    t_cache.generation = generation_;
    t_cache.buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuffer*>(t_cache.buffer);
}

Tracer::Scope::Scope(Tracer& tracer, std::uint32_t name, std::int64_t week,
                     std::int64_t arg)
    : tracer_(tracer) {
  ThreadBuffer& buf = tracer_.buffer();
  span_.name = name;
  span_.thread = buf.index;
  span_.id = tracer_.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buf.open.empty() ? tracer_.root_.load() : buf.open.back();
  span_.week = week;
  span_.arg = arg;
  buf.open.push_back(span_.id);
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  span_.end_ns = now_ns();
  ThreadBuffer& buf = tracer_.buffer();
  buf.open.pop_back();
  buf.spans.push_back(span_);
}

void Tracer::record(std::uint32_t name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t week) {
  ThreadBuffer& buf = buffer();
  Span span;
  span.name = name;
  span.thread = buf.index;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buf.open.empty() ? root_.load() : buf.open.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.week = week;
  buf.spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

spider::Status Tracer::write_chrome_trace(
    const std::string& path, const std::string& metadata_json) const {
  const std::vector<Span> all = spans();
  const std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
     << ",\"traceEvents\":[";
  std::size_t threads = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads = buffers_.size();
  }
  for (std::size_t t = 0; t < threads; ++t) {
    os << (t == 0 ? "" : ",")
       << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << t
       << ",\"args\":{\"name\":\"thread " << t << "\"}}";
  }
  char buf[64];
  for (const Span& s : all) {
    os << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":\""
       << json_escape(names_[s.name]) << "\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"week\":" << s.week;
    if (s.arg >= 0) os << ",\"row\":" << s.arg;
    os << "}}";
  }
  os << "]}\n";
  return spider::write_file_atomic(path, os.str());
}

// --- TracedAnalyzer -------------------------------------------------------

TracedAnalyzer::TracedAnalyzer(spider::StudyAnalyzer& inner,
                               std::string_view label, Tracer& tracer)
    : inner_(inner), tracer_(tracer) {
  const std::string base = "study." + std::string(label) + ".";
  chunk_ = tracer.intern(base + "chunk");
  merge_ = tracer.intern(base + "merge");
  apply_delta_ = tracer.intern(base + "apply_delta");
  finish_ = tracer.intern(base + "finish");
  save_state_ = tracer.intern(base + "save_state");
  load_state_ = tracer.intern(base + "load_state");
}

void TracedAnalyzer::observe_chunk(spider::ScanChunkState* state,
                                   const spider::WeekObservation& obs,
                                   const spider::ScanMorsel& m) {
  const Tracer::Scope scope(tracer_, chunk_,
                            static_cast<std::int64_t>(obs.week),
                            static_cast<std::int64_t>(m.begin));
  inner_.observe_chunk(state, obs, m);
}

void TracedAnalyzer::merge(const spider::WeekObservation& obs,
                           spider::ScanStateList states) {
  const Tracer::Scope scope(tracer_, merge_,
                            static_cast<std::int64_t>(obs.week));
  inner_.merge(obs, states);
}

void TracedAnalyzer::apply_delta(const spider::WeekObservation& obs,
                                 const spider::WeekDelta& delta) {
  const Tracer::Scope scope(tracer_, apply_delta_,
                            static_cast<std::int64_t>(obs.week));
  inner_.apply_delta(obs, delta);
}

void TracedAnalyzer::finish() {
  const Tracer::Scope scope(tracer_, finish_, -1);
  inner_.finish();
}

bool TracedAnalyzer::save_state(spider::StateWriter& w) const {
  const Tracer::Scope scope(tracer_, save_state_, -1);
  return inner_.save_state(w);
}

bool TracedAnalyzer::load_state(spider::StateReader& r) {
  const Tracer::Scope scope(tracer_, load_state_, -1);
  return inner_.load_state(r);
}

// --- TracedSource ---------------------------------------------------------

TracedSource::TracedSource(spider::SnapshotSource& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer) {
  read_decode_ = tracer.intern("snapshot.read_decode");
  handoff_ = tracer.intern("runner.handoff");
  analyze_sync_ = tracer.intern("runner.analyze_sync");
}

template <typename Body>
auto TracedSource::around(std::int64_t& mark, std::uint32_t call_name,
                          std::size_t week, Body&& body) {
  const auto w = static_cast<std::int64_t>(week);
  tracer_.record(read_decode_, mark, now_ns(), w);
  struct Remark {
    std::int64_t& mark;
    ~Remark() { mark = now_ns(); }
  } remark{mark};
  const Tracer::Scope scope(tracer_, call_name, w);
  return body();
}

void TracedSource::visit(const spider::SnapshotVisitor& visitor) {
  std::int64_t mark = now_ns();
  inner_.visit([&](std::size_t week, const spider::Snapshot& snap) {
    around(mark, handoff_, week, [&] { visitor(week, snap); });
  });
}

void TracedSource::visit_move(const spider::SnapshotMoveVisitor& visitor) {
  std::int64_t mark = now_ns();
  inner_.visit_move([&](std::size_t week, spider::Snapshot&& snap) {
    around(mark, handoff_, week, [&] { visitor(week, std::move(snap)); });
  });
}

void TracedSource::visit_from(std::size_t first_slot,
                              const spider::SnapshotVisitor& visitor) {
  std::int64_t mark = now_ns();
  inner_.visit_from(first_slot,
                    [&](std::size_t week, const spider::Snapshot& snap) {
                      around(mark, handoff_, week,
                             [&] { visitor(week, snap); });
                    });
}

void TracedSource::visit_move_from(std::size_t first_slot,
                                   const spider::SnapshotMoveVisitor& visitor) {
  std::int64_t mark = now_ns();
  inner_.visit_move_from(first_slot,
                         [&](std::size_t week, spider::Snapshot&& snap) {
                           around(mark, handoff_, week, [&] {
                             visitor(week, std::move(snap));
                           });
                         });
}

void TracedSource::visit_streaming(
    std::size_t first_slot, const spider::StreamChooser& chooser,
    const spider::SnapshotMoveVisitor& move_visitor,
    const spider::SnapshotStreamVisitor& stream_visitor) {
  std::int64_t mark = now_ns();
  inner_.visit_streaming(
      first_slot, chooser,
      [&](std::size_t week, spider::Snapshot&& snap) {
        around(mark, analyze_sync_, week,
               [&] { move_visitor(week, std::move(snap)); });
      },
      [&](const spider::WeekGroupStream& stream) {
        ++weeks_streamed_;
        return around(mark, analyze_sync_, stream.week,
                      [&] { return stream_visitor(stream); });
      });
}

}  // namespace spiderbench
