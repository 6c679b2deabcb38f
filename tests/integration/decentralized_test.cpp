// Decentralized (ez-Segway mode) execution at deployment scope: the
// controller ships every segment of a scheduled chain at once as a
// threshold-signed manifest and the switches sequence the chain in-band
// with signed SegmentDone signals (DESIGN.md §15).  These tests pin the
// protocol's deployment-level contract: every flow completes with the
// same outcome as controller-driven execution, the control plane
// exchanges measurably fewer messages per update, loss and crashes
// recover through the retransmission/abandonment paths, and a Byzantine
// controller cannot smuggle a corrupted manifest past the quorum.
//
// Labeled `decentralized` in ctest; the ThreadSanitizer CI job runs this
// label alongside `parallel`.
#include <gtest/gtest.h>

#include <memory>

#include "integration/helpers.hpp"
#include "net/checker.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::small_pod;
using testing::small_workload;

std::unique_ptr<core::Deployment> make_dep(FrameworkKind fw) {
  core::DeploymentParams dp;
  dp.framework = fw;
  dp.seed = 12345;
  return std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
}

struct CtrlStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t manifests_sent = 0;
  std::uint64_t acks_received = 0;
};

CtrlStats ctrl_stats(core::Deployment& dep) {
  CtrlStats s;
  for (const auto id : dep.controller_ids()) {
    s.updates_sent += dep.controller(id).updates_sent();
    s.manifests_sent += dep.controller(id).manifests_sent();
    s.acks_received += dep.controller(id).acks_received();
  }
  return s;
}

std::uint64_t peer_signals(core::Deployment& dep) {
  std::uint64_t n = 0;
  for (const net::NodeIndex sw : dep.topology().switches()) {
    n += dep.switch_at(sw).peer_signals_sent();
  }
  return n;
}

TEST(Decentralized, CompletesAllFlowsWithRealCrypto) {
  auto dep = make_dep(FrameworkKind::kCiceroDecentralized);
  const auto flows = small_workload(dep->topology(), 25);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
  const CtrlStats s = ctrl_stats(*dep);
  EXPECT_GT(s.manifests_sent, 0u);
  EXPECT_EQ(s.updates_sent, 0u);  // no per-segment controller driving
  EXPECT_GT(peer_signals(*dep), 0u);  // the chains really ran in-band
}

TEST(Decentralized, FewerControllerMessagesPerUpdateThanControllerDriven) {
  // The tentpole win: per k-segment chain, controller-driven exchanges
  // one update send + one multicast ack per segment, decentralized one
  // manifest send per segment plus a single sink ack for the chain.
  // Same workload, same seed — compare the control plane's message
  // counts per applied update.
  const auto run_mode = [](FrameworkKind fw) {
    auto dep = make_dep(fw);
    const auto flows = small_workload(dep->topology(), 25);
    dep->inject(flows);
    dep->run(sim::seconds(60));
    EXPECT_EQ(completed_count(*dep), flows.size());
    std::uint64_t applied = 0;
    for (const net::NodeIndex sw : dep->topology().switches()) {
      applied += dep->switch_at(sw).updates_applied();
    }
    const CtrlStats s = ctrl_stats(*dep);
    return std::make_pair(s.updates_sent + s.manifests_sent + s.acks_received, applied);
  };
  const auto [driven_msgs, driven_applied] = run_mode(FrameworkKind::kCicero);
  const auto [dec_msgs, dec_applied] = run_mode(FrameworkKind::kCiceroDecentralized);
  ASSERT_GT(driven_applied, 0u);
  ASSERT_GT(dec_applied, 0u);
  const double driven_per_update =
      static_cast<double>(driven_msgs) / static_cast<double>(driven_applied);
  const double dec_per_update =
      static_cast<double>(dec_msgs) / static_cast<double>(dec_applied);
  EXPECT_LT(dec_per_update, driven_per_update);
}

TEST(Decentralized, UniformLossRecoversThroughResignaling) {
  // 10% loss eats manifests, SegmentDones and sink acks alike.  The
  // controller's chain-wide manifest retransmission plus the switches'
  // idempotent re-signaling must still land every flow.
  auto dep = make_dep(FrameworkKind::kCiceroDecentralized);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST(Decentralized, SwitchCrashDuringHandoffRecovers) {
  // Crash a mid-chain switch after manifests are in flight: chains
  // blocked on it are eventually abandoned by the controller, and the
  // recovered switch re-requests its routes through the signed-event
  // path — every flow still completes.
  auto dep = make_dep(FrameworkKind::kCiceroDecentralized);
  const auto flows = small_workload(dep->topology(), 20);
  const net::NodeIndex victim = dep->topology().host_tor(flows.front().src_host);
  dep->simulator().at(sim::seconds(2), [&dep, victim] { dep->crash_switch(victim); });
  dep->simulator().at(sim::seconds(7), [&dep, victim] { dep->recover_switch(victim); });
  dep->inject(flows);
  dep->run(sim::seconds(180));
  EXPECT_EQ(dep->switch_at(victim).crashes(), 1u);
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST(Decentralized, MutatedManifestNeverReachesATable) {
  // One controller corrupts every manifest body it signs.  Its copies
  // bucket separately from the honest quorum's, so no corrupted rule can
  // ever aggregate — and the final tables route every flow cleanly.
  auto dep = make_dep(FrameworkKind::kCiceroDecentralized);
  dep->set_controller_fault(dep->controller_ids().front(),
                            core::ControllerFault::kMutateUpdates);
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(completed_count(*dep), flows.size());
  const net::TableMap tables = dep->table_map();
  for (const auto& f : flows) {
    const auto trace = net::trace_flow(dep->topology(), tables, f.src_host, f.dst_host);
    EXPECT_NE(trace.status, net::TraceStatus::kLoop);
    EXPECT_NE(trace.status, net::TraceStatus::kBlackHole);
  }
}

}  // namespace
}  // namespace cicero
