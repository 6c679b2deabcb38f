// In-network BFT aggregation offload (P4BFT-style; DESIGN.md §16) at
// deployment scope: one designated aggregator switch per control domain
// collects threshold partials from the controller replicas, compares the
// replicas' responses digest-by-digest before combining, and fans the
// single aggregated update out to the target switch.  These tests pin
// the protocol's contract: every flow completes with the same outcome as
// plain kCicero, the control plane sends measurably fewer bytes per
// update (the acceptance bar is <= 1/3 of baseline at n=10), loss
// escalates the compact fast path to full bodies without losing
// liveness, a Byzantine replica's mutation surfaces as a signed
// kAggMismatch event, and crashing the aggregator re-designates
// deterministically.
//
// Labeled `innet` in ctest; the ThreadSanitizer CI job runs this label
// alongside `parallel` and `decentralized`.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::small_pod;
using testing::small_workload;

std::unique_ptr<core::Deployment> make_dep(FrameworkKind fw,
                                           std::size_t controllers = 4,
                                           bool real_crypto = true,
                                           std::uint64_t seed = 12345) {
  core::DeploymentParams dp;
  dp.framework = fw;
  dp.controllers_per_domain = controllers;
  dp.real_crypto = real_crypto;
  dp.seed = seed;
  return std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
}

std::uint64_t total_applied(core::Deployment& dep) {
  std::uint64_t applied = 0;
  for (const net::NodeIndex sw : dep.topology().switches()) {
    applied += dep.switch_at(sw).updates_applied();
  }
  return applied;
}

std::uint64_t total_fanouts(core::Deployment& dep) {
  std::uint64_t fanouts = 0;
  for (const net::NodeIndex sw : dep.topology().switches()) {
    fanouts += dep.switch_at(sw).agg_fanouts();
  }
  return fanouts;
}

std::uint64_t total_southbound(core::Deployment& dep) {
  std::uint64_t bytes = 0;
  for (const auto id : dep.controller_ids()) {
    bytes += dep.controller(id).southbound_bytes();
  }
  return bytes;
}

TEST(InNetwork, CompletesAllFlowsWithRealCrypto) {
  auto dep = make_dep(FrameworkKind::kCiceroInNetwork);
  const auto flows = small_workload(dep->topology(), 25);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
  // Every applied update went through the aggregator's fan-out, and the
  // designated switch did all of it (nothing crashed).
  const net::NodeIndex agg = dep->innet_aggregator_switch(0);
  ASSERT_NE(agg, net::kNoNode);
  EXPECT_GT(dep->switch_at(agg).agg_fanouts(), 0u);
  EXPECT_EQ(total_fanouts(*dep), dep->switch_at(agg).agg_fanouts());
  EXPECT_EQ(total_fanouts(*dep), total_applied(*dep));
}

TEST(InNetwork, SouthboundBytesUnderThirdOfBaselineAtNTen) {
  // The acceptance bar: at n=10 replicas the control plane sends <= 1/3
  // of the baseline's bytes per applied update.  Rank 0 sends the one
  // full body, ranks 1..t-1 (t=4) compact digest shares, ranks >= t stay
  // silent — versus ten full copies under plain kCicero.
  const auto run_mode = [](FrameworkKind fw) {
    auto dep = make_dep(fw, /*controllers=*/10, /*real_crypto=*/false);
    const auto flows = small_workload(dep->topology(), 25);
    dep->inject(flows);
    dep->run(sim::seconds(60));
    EXPECT_EQ(completed_count(*dep), flows.size());
    const std::uint64_t applied = total_applied(*dep);
    EXPECT_GT(applied, 0u);
    return static_cast<double>(total_southbound(*dep)) /
           static_cast<double>(applied);
  };
  const double baseline = run_mode(FrameworkKind::kCicero);
  const double innet = run_mode(FrameworkKind::kCiceroInNetwork);
  EXPECT_LE(innet, baseline / 3.0)
      << "innet bytes/update " << innet << " vs baseline " << baseline;
}

TEST(InNetwork, UniformLossEscalatesToFullBodiesAndCompletes) {
  // 10% loss eats partial shares, bodies, fan-outs and acks alike.  Any
  // replica's ack timeout retransmits a FULL body to the aggregator (the
  // compact digest share is only the optimistic fast path), and the
  // aggregator replays its cached fan-out for completed updates — every
  // flow still lands.
  auto dep = make_dep(FrameworkKind::kCiceroInNetwork);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST(InNetwork, MutatedUpdateRaisesMismatchAndStillCompletes) {
  // The P4BFT comparison: the rank-0 replica mutates every body it
  // sends, so its digest buckets apart from the honest shares.  The
  // aggregator reports the conflict through the signed-event path (every
  // controller counts it) and the honest quorum's escalated full bodies
  // still aggregate — no corrupted rule reaches a table, no flow hangs.
  auto dep = make_dep(FrameworkKind::kCiceroInNetwork);
  dep->set_controller_fault(dep->controller_ids().front(),
                            core::ControllerFault::kMutateUpdates);
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(completed_count(*dep), flows.size());
  std::uint64_t mismatches = 0;
  for (const net::NodeIndex sw : dep->topology().switches()) {
    mismatches += dep->switch_at(sw).agg_mismatches();
  }
  EXPECT_GT(mismatches, 0u);
  std::uint64_t reports = 0;
  for (const auto id : dep->controller_ids()) {
    reports += dep->controller(id).agg_mismatch_reports();
  }
  EXPECT_GT(reports, 0u);
}

TEST(InNetwork, AggregatorTargetReAcksReplicaWhoseAckWasLost) {
  // The designated aggregator switch is also the target of its own
  // updates: it applies them at fan-out and acks every replica.  Lose
  // that first ack to one replica.  The replica's retransmission reaches
  // the aggregator while the id is still in its fan-out cache; the
  // aggregator must re-ack it, or the replica retries until it abandons
  // the update.
  auto dep = make_dep(FrameworkKind::kCiceroInNetwork);
  const net::NodeIndex agg = dep->innet_aggregator_switch(0);
  ASSERT_NE(agg, net::kNoNode);
  const std::uint32_t replica = dep->domain_controller_ids(0).back();
  // The aggregator is an edge switch with no hosts: it emits no flow
  // events, so the first frame it sends the replica is an ack.
  dep->faults().drop_next(dep->switch_at(agg).config().node,
                          dep->controller(replica).node(), 1);
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(dep->faults().dropped_targeted(), 1u);
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
  EXPECT_GT(dep->switch_at(agg).acks_reissued(), 0u);
  for (const auto id : dep->controller_ids()) {
    EXPECT_EQ(dep->controller(id).updates_abandoned(), 0u) << "controller " << id;
  }
}

TEST(InNetwork, AggregatorCrashFailsOverToNextLowestIndex) {
  auto dep = make_dep(FrameworkKind::kCiceroInNetwork);
  const net::NodeIndex first = dep->innet_aggregator_switch(0);
  ASSERT_NE(first, net::kNoNode);
  EXPECT_EQ(first, dep->topology().switches_in_domain(0).front());

  dep->crash_switch(first);
  const net::NodeIndex second = dep->innet_aggregator_switch(0);
  ASSERT_NE(second, net::kNoNode);
  EXPECT_GT(second, first);  // deterministic: next lowest live index

  dep->recover_switch(first);
  EXPECT_EQ(dep->innet_aggregator_switch(0), first);
}

TEST(InNetwork, FlowsCompleteAcrossAggregatorFailover) {
  // Crash the designated aggregator while updates are in flight and
  // leave it down: replicas re-point at the next designation and their
  // ack timers escalate anything stranded at the dead switch.
  auto dep = make_dep(FrameworkKind::kCiceroInNetwork);
  const net::NodeIndex agg = dep->innet_aggregator_switch(0);
  // Flows arrive over ~130ms; crash mid-arrival so the tail of the
  // workload must run through the replacement designation.
  dep->simulator().at(sim::milliseconds(50), [&dep, agg] { dep->crash_switch(agg); });
  dep->simulator().at(sim::seconds(30), [&dep, agg] { dep->recover_switch(agg); });
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(180));
  EXPECT_EQ(dep->switch_at(agg).crashes(), 1u);
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
  // The replacement switch really took over the aggregator role.
  const net::NodeIndex next = dep->topology().switches_in_domain(0)[1];
  EXPECT_GT(dep->switch_at(next).agg_fanouts(), 0u);
}

}  // namespace
}  // namespace cicero
