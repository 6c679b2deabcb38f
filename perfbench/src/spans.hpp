// In-memory host-time spans for the benchmark's traced run.
//
// The benchmark measures each layer from outside: it wraps calls into the
// simulator's public functions (the Deployment constructor, inject, run,
// every node's network handler, and its own calibration loops) in spans
// stamped with std::chrono::steady_clock.  Spans stay in memory while the
// workload runs; main.cpp writes them out through obs::Tracer at exit.
//
// A span's self time is its duration (times the number of threads it
// covers, for the parallel engine's run span) minus the durations of its
// direct children.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint16_t name = 0;    ///< index into SpanRecorder::names()
  std::uint16_t thread = 0;  ///< recording thread (buffer index)
  std::uint8_t width = 1;    ///< threads the span covers (self-time capacity)
  std::uint8_t tag = 0;      ///< ingress: wire tag of the message
  std::uint32_t node = 0;    ///< ingress: receiving network node
  std::uint32_t bytes = 0;   ///< ingress: message size
};

/// Self time per span name, in seconds: for every span, its duration times
/// its width minus the summed durations of the spans whose parent it is.
std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                         const std::vector<std::string>& names);

/// Nanoseconds on the steady clock since the first call in this process.
std::uint64_t now_ns();

/// One recorder per process.  Structural spans (begin/end) are opened and
/// closed on the main thread; record() may be called from any thread.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Interns a span name; call before recording from worker threads.
  std::uint16_t intern(const std::string& name);

  /// Opens a structural span on the calling thread; returns its id.
  /// `width` is the number of threads whose time the span covers.
  std::uint32_t begin(const std::string& name, std::uint32_t parent, std::uint8_t width = 1);
  void end(std::uint32_t id);

  /// Records a finished span; its id is assigned here.  Each thread
  /// appends to its own buffer, so only a thread's first call locks.
  void record(Span span);

  /// Every span recorded so far, all threads merged, ordered by id.
  /// Call only while no other thread records.
  std::vector<Span> collect() const;
  const std::vector<std::string>& names() const { return names_; }

 private:
  struct Buffer {
    std::uint16_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::vector<std::string> names_;
  std::atomic<std::uint32_t> ids_{0};
  mutable std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::map<std::uint32_t, Span> open_;  ///< main-thread structural spans
};

}  // namespace perfbench
