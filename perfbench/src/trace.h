// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer's public functions. Each span has a name ("layer.call"),
// start and end on the steady clock, the span that caused it (the enclosing
// span on the same thread, or an explicit parent for work handed to pool
// threads) and a request/session id. Every thread appends to its own buffer
// without locking; buffers are owned by the tracer so spans of threads that
// have exited survive until the trace is written once, at exit, as Chrome
// trace-event JSON.
//
// When tracing is off a Span costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< static string "layer.call"
  int64_t t0_ns = 0;
  int64_t t1_ns = -1;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t req = 0;     ///< request / session id, 0 = none
  uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  /// One thread's spans; appended to only by that thread.
  struct ThreadBuf {
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  ///< indices of open spans, innermost last
    uint32_t tid = 0;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// All spans recorded so far. Call only while no thread is recording.
  std::vector<SpanRecord> collect() const;

  /// Self time per layer in seconds: each span's duration minus the part of
  /// it its child spans cover, summed by the name prefix before the first
  /// '.'. Call only while no thread is recording.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Write every span as Chrome trace-event JSON. False on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class Span;
  ThreadBuf& local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  // Owned here, not by the threads, so a finished thread's spans survive.
  mutable std::mutex bufs_mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span. With tracing off it records nothing.
class Span {
 public:
  explicit Span(const char* name, uint64_t req = 0) : Span(name, req, kInheritParent) {}
  /// Explicit parent: for work running on another thread than its cause.
  Span(const char* name, uint64_t req, uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when tracing is off) — pass as an explicit parent.
  uint64_t id() const { return id_; }

  static constexpr uint64_t kInheritParent = ~uint64_t{0};

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  size_t index_ = 0;
  uint64_t id_ = 0;
};

}  // namespace perfbench
