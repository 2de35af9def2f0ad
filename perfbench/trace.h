// In-memory span recorder for the benchmark's traced runs. The benchmark
// opens a span around each call into a module's public functions; spans are
// kept in memory, summarized into per-name total and self times, and written
// out as Chrome trace-event JSON (which Perfetto opens) when the run ends.
//
// A span's parent is the innermost span still open on the same thread, so
// spans opened on server threads nest under their own handler spans.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans, -1 for a root
    size_t thread;   // hashed std::thread::id, for the trace file
  };

  // Opens a span on the calling thread and returns its id.
  int32_t Begin(const char* name) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, now, now, open_span_, ThreadId()});
    open_span_ = id;
    return id;
  }

  void End(int32_t id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
    open_span_ = spans_[static_cast<size_t>(id)].parent;
  }

  // Per span name: the summed durations and the summed self times
  // (duration minus the part its child spans cover), in milliseconds, and
  // optionally the number of spans.
  void Summarize(std::map<std::string, double>* total_ms,
                 std::map<std::string, double>* self_ms,
                 std::map<std::string, size_t>* counts = nullptr) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += Dur(s);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      (*total_ms)[spans_[i].name] += Dur(spans_[i]) * 1e-6;
      (*self_ms)[spans_[i].name] += (Dur(spans_[i]) - child_ns[i]) * 1e-6;
      if (counts != nullptr) ++(*counts)[spans_[i].name];
    }
  }

  // Writes every span as a Chrome "complete" event. Returns false when the
  // file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i > 0 ? "," : "", s.name, s.thread % 100000,
                   s.start_ns * 1e-3, Dur(s) * 1e-3, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static int64_t Dur(const Span& s) { return s.end_ns - s.start_ns; }
  static size_t ThreadId() {
    return std::hash<std::thread::id>()(std::this_thread::get_id());
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  // Innermost open span of the calling thread (one tracer per process).
  static thread_local int32_t open_span_;
};

inline thread_local int32_t Tracer::open_span_ = -1;

// Opens a span for its scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
