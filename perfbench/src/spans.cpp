#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch).count());
}

std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                         const std::vector<std::string>& names) {
  std::map<std::uint32_t, std::uint64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const double covered = it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
    const double capacity = static_cast<double>(s.end_ns - s.start_ns) * s.width;
    out[names.at(s.name)] += (capacity - covered) * 1e-9;
  }
  return out;
}

std::uint16_t SpanRecorder::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint16_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::begin(const std::string& name, std::uint32_t parent,
                                  std::uint8_t width) {
  Span s;
  s.id = ++ids_;
  s.parent = parent;
  s.width = width;
  s.name = intern(name);
  s.thread = local().thread;
  s.start_ns = now_ns();
  open_[s.id] = s;
  return s.id;
}

void SpanRecorder::end(std::uint32_t id) {
  Span s = open_.at(id);
  open_.erase(id);
  s.end_ns = now_ns();
  local().spans.push_back(s);
}

void SpanRecorder::record(Span span) {
  span.id = ++ids_;
  Buffer& b = local();
  span.thread = b.thread;
  b.spans.push_back(span);
}

SpanRecorder::Buffer& SpanRecorder::local() {
  thread_local const SpanRecorder* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint16_t>(buffers_.size() - 1);
    owner = this;
  }
  return *buffer;
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

}  // namespace perfbench
