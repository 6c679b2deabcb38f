#include "workloads.hpp"

#include "workload/topo_gen.hpp"

namespace perfbench {

namespace wl = cicero::workload;

namespace {

std::uint64_t mix(std::uint64_t x) {  // SplitMix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

cicero::net::Topology wan_topology() {
  wl::WanOptions o;
  o.domain_per_region = true;
  return wl::wan(256, o);  // 256 switches, 8 regional control domains
}

cicero::net::Topology fabric_topology() {
  wl::FatTreeOptions o;
  o.domain_per_pod = true;
  return wl::fat_tree(8, o);  // 80 switches, 9 control domains
}

// Sizes and rates are chosen for steady figures (NOTES.md has the
// measurements): below saturation of the busiest control plane, but
// loaded enough that simulated latency is not one constant, and with
// enough flows that a batch's work varies little with the seed.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      // name, flows, real crypto, teardown, switch loss, rate, topology
      {"wan", 400, false, false, 0.0, 600.0, wan_topology},
      {"secure_fabric", 120, true, false, 0.0, 250.0, fabric_topology},
      {"lossy_churn", 400, false, true, 0.02, 150.0, fabric_topology},
  };
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<wl::Flow> make_flows(const WorkloadSpec& spec, const cicero::net::Topology& topo,
                                 std::uint64_t seed) {
  // Mixed so that small seeds never coincide with the fixed seed wan()
  // places its chords with: equal streams would pick chord endpoints as
  // flow endpoints.
  return wl::scale_flows(topo, spec.flows, spec.rate, mix(seed));
}

cicero::core::DeploymentParams deployment_params(const WorkloadSpec& spec,
                                                 std::uint32_t threads) {
  cicero::core::DeploymentParams dp;
  dp.framework = cicero::core::FrameworkKind::kCicero;
  dp.controllers_per_domain = 4;
  dp.real_crypto = spec.real_crypto;
  dp.teardown_after_flow = spec.teardown;
  dp.threads = threads;
  dp.seed = 1;
  return dp;
}

cicero::sim::SimTime horizon(const WorkloadSpec& spec) {
  return cicero::sim::from_sec(static_cast<double>(spec.flows) / spec.rate + 20.0);
}

}  // namespace perfbench
