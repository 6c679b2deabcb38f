// Observability bundle: one Tracer + one MetricsRegistry per deployment.
//
// Instrumented components (sim::NetworkSim, sim::CpuServer,
// bft::PbftReplica, core::Controller, core::SwitchRuntime) take a nullable
// `Observability*`; a null pointer or a disabled sub-system makes every
// record call a no-op, so tests and cost-only sweeps pay nothing.
//
// Component thread-row convention (one simulated node = one trace
// process; rows within it):
//   kTidMain   protocol logic (controller app / switch pipeline)
//   kTidBft    PBFT ordering
//   kTidCrypto sign / verify / aggregate work
//   kTidNet    network send/receive markers
#pragma once

#include <string>

#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cicero::obs {

inline constexpr TraceTid kTidMain = 0;
inline constexpr TraceTid kTidBft = 1;
inline constexpr TraceTid kTidCrypto = 2;
inline constexpr TraceTid kTidNet = 3;

/// Async lifecycle track of one update within its domain: "u:<domain>:<id>".
inline std::string update_track_id(std::uint32_t domain, std::uint64_t id) {
  return "u:" + std::to_string(domain) + ":" + std::to_string(id);
}
/// Flow-arrow track of one update, shared by its controllers and switches:
/// "u:<id>" (update ids are unique deployment-wide, see
/// sched::update_id_base).
inline std::string flow_track_id(std::uint64_t id) { return "u:" + std::to_string(id); }

struct Observability {
  explicit Observability(bool metrics_enabled = true, bool trace_enabled = false)
      : metrics(metrics_enabled) {
    trace.set_enabled(trace_enabled);
    critpath.set_enabled(metrics_enabled);
  }

  Tracer trace;
  MetricsRegistry metrics;
  CritPath critpath;
};

}  // namespace cicero::obs
