// The benchmark's workloads: fixed topologies and deployment settings.
// Flows are the only seeded input; NOTES.md records why each workload
// was chosen and which layers it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "net/topology.hpp"
#include "workload/workload.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t flows = 0;      ///< flows per repetition (fixed batch)
  bool real_crypto = false;   ///< DKG + SimBLS + Schnorr instead of cost-model crypto
  bool teardown = false;      ///< every install followed by a delete
  double switch_loss = 0.0;   ///< loss probability of every message to or from a switch
  double rate = 0.0;          ///< open-loop arrivals per simulated second
  cicero::net::Topology (*topology)() = nullptr;
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// The flows of one repetition: a pure function of (spec, seed).
std::vector<cicero::workload::Flow> make_flows(const WorkloadSpec& spec,
                                               const cicero::net::Topology& topo,
                                               std::uint64_t seed);

/// Deployment settings: kCicero, controller-driven, four controllers per
/// domain and a fixed deployment seed for every workload; `threads` worker
/// shards (1 = the sequential engine).
cicero::core::DeploymentParams deployment_params(const WorkloadSpec& spec,
                                                 std::uint32_t threads);

/// Simulated horizon: the arrival window plus 20 s to drain.
cicero::sim::SimTime horizon(const WorkloadSpec& spec);

}  // namespace perfbench
