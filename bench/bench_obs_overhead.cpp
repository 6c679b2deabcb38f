// Observability overhead guard: the metrics/trace hot path must cost
// (almost) nothing when recording is off.
//
// Two properties are ASSERTED (non-zero exit on violation), so this bench
// doubles as a regression gate:
//   1. counter.inc / histogram.observe / tracer record calls against a
//      DISABLED registry/tracer perform ZERO heap allocations;
//   2. the same calls against an ENABLED registry also allocate nothing
//      (all storage is resolved at handle-construction time);
//   3. NetworkSim::multicast copies the payload once per fan-out, not
//      once per destination (allocated bytes stay ~1 payload no matter
//      how many recipients).
// Wall-clock per-op costs are printed for information only (they vary
// with the host and are not asserted).
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
    g_bytes += n;
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr std::uint64_t kIters = 5'000'000;

struct Probe {
  std::uint64_t allocs = 0;
  double ns_per_op = 0.0;
};

template <typename Fn>
Probe measure(Fn&& body) {
  using clock = std::chrono::steady_clock;
  g_allocs = 0;
  g_counting = true;
  const auto t0 = clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) body(i);
  const auto t1 = clock::now();
  g_counting = false;
  Probe p;
  p.allocs = g_allocs;
  p.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(kIters);
  return p;
}

int check(const char* label, const Probe& p) {
  std::printf("%-28s %8.2f ns/op   %10llu allocs\n", label, p.ns_per_op,
              static_cast<unsigned long long>(p.allocs));
  if (p.allocs != 0) {
    std::fprintf(stderr, "FAIL: %s allocated on the hot path\n", label);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  using namespace cicero;

  std::printf("obs hot-path overhead (%llu iterations per probe)\n",
              static_cast<unsigned long long>(kIters));

  int failures = 0;

  {
    obs::MetricsRegistry reg(/*enabled=*/false);
    obs::Counter c = reg.counter("bench.counter");
    obs::Histogram h = reg.histogram("bench.histogram_ms", obs::latency_buckets_ms());
    failures += check("counter.inc (disabled)", measure([&](std::uint64_t) { c.inc(); }));
    failures += check("histogram.observe (disabled)",
                      measure([&](std::uint64_t i) { h.observe(static_cast<double>(i & 1023)); }));
  }

  {
    obs::MetricsRegistry reg(/*enabled=*/true);
    obs::Counter c = reg.counter("bench.counter");
    obs::Histogram h = reg.histogram("bench.histogram_ms", obs::latency_buckets_ms());
    failures += check("counter.inc (enabled)", measure([&](std::uint64_t) { c.inc(); }));
    failures += check("histogram.observe (enabled)",
                      measure([&](std::uint64_t i) { h.observe(static_cast<double>(i & 1023)); }));
  }

  {
    obs::Tracer tracer;  // disabled by default
    std::int64_t t = 0;
    tracer.set_clock([&t] { return t++; });
    failures += check("tracer.complete (disabled)", measure([&](std::uint64_t i) {
                        tracer.complete(1, 0, "span", static_cast<std::int64_t>(i), 10);
                      }));
    failures += check("tracer.instant (disabled)",
                      measure([&](std::uint64_t) { tracer.instant(1, 0, "mark"); }));
    if (tracer.event_count() != 0) {
      std::fprintf(stderr, "FAIL: disabled tracer buffered %zu events\n", tracer.event_count());
      ++failures;
    }
  }

  {
    // Multicast fan-out: the shared-payload send path must allocate the
    // message bytes ONCE per fan-out, not once per destination.  With a
    // 1 MiB payload and 64 recipients, per-destination copying would
    // allocate ~64 MiB; the shared path stays within 2 payloads (one
    // shared copy + per-event bookkeeping, which is KBs, not MBs).
    sim::Simulator sim;
    sim::NetworkSim net(sim);
    constexpr std::size_t kDst = 64;
    constexpr std::size_t kPayload = 1 << 20;
    const sim::NodeId src = net.add_node("src");
    std::vector<sim::NodeId> dst;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < kDst; ++i) {
      const sim::NodeId node = net.add_node("dst" + std::to_string(i));
      net.set_handler(node,
                      [&delivered](sim::NodeId, const util::Bytes&) { ++delivered; });
      dst.push_back(node);
    }
    const util::Bytes payload(kPayload, 0xAB);
    g_allocs = 0;
    g_bytes = 0;
    g_counting = true;
    net.multicast(src, dst, payload);
    sim.run();
    g_counting = false;
    std::printf("%-28s %8.2f MB allocated, %llu allocs (%zu-way 1 MiB fan-out)\n",
                "net.multicast (shared)", static_cast<double>(g_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(g_allocs), kDst);
    if (delivered != kDst) {
      std::fprintf(stderr, "FAIL: multicast delivered %llu of %zu\n",
                   static_cast<unsigned long long>(delivered), kDst);
      ++failures;
    }
    if (g_bytes > 2 * kPayload) {
      std::fprintf(stderr, "FAIL: multicast send path copied the payload per destination\n");
      ++failures;
    }
  }

  if (failures != 0) return 1;
  std::printf("\nPASS: no allocation and no lock on any probed hot path\n");
  return 0;
}
