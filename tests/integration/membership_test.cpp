// Control-plane membership changes against live deployments (§4.3).
#include <gtest/gtest.h>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_pod;
using testing::small_workload;

TEST(Membership, AddControllerKeepsGroupPublicKey) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto pk_before = dep->group_pk(0);
  dep->simulator().at(sim::milliseconds(10), [&] { dep->add_controller(0); });
  dep->run(sim::seconds(5));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 5u);
  // The key switches verify against never changes (§3.2's DKG property) —
  // asserted internally during resharing and re-checked here.
  EXPECT_EQ(dep->group_pk(0), pk_before);
}

TEST(Membership, AddedControllerParticipates) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  std::uint32_t new_id = 0;
  dep->simulator().at(sim::milliseconds(10), [&] { new_id = dep->add_controller(0); });
  dep->run(sim::seconds(5));

  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);  // arrivals start at ~0 but sim time has advanced; re-run below
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
  // The new member signs updates like everyone else.
  EXPECT_GT(dep->controller(new_id).updates_sent(), 0u);
}

TEST(Membership, FlowsDuringChangeAreQueuedNotLost) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flows = small_workload(dep->topology(), 30);
  dep->inject(flows);
  // Trigger the change in the middle of the workload.
  dep->simulator().at(flows[10].arrival, [&] { dep->add_controller(0); });
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, RemoveControllerQuorumShrinks) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             /*real_crypto=*/true, /*teardown=*/false, /*controllers=*/5);
  const auto pk_before = dep->group_pk(0);
  const auto victim = dep->domain_controller_ids(0).back();
  dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(victim); });
  dep->run(sim::seconds(5));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 4u);
  EXPECT_EQ(dep->group_pk(0), pk_before);

  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, RemovedControllerStopsParticipating) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             true, false, 5);
  const auto victim = dep->domain_controller_ids(0).back();
  dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(victim); });
  dep->run(sim::seconds(5));
  const auto updates_at_removal = dep->controller(victim).updates_sent();
  dep->inject(small_workload(dep->topology(), 10));
  dep->run(sim::seconds(60));
  EXPECT_EQ(dep->controller(victim).updates_sent(), updates_at_removal);
}

TEST(Membership, SequentialAddAndRemove) {
  // Lock-step phases (§4.3): one change at a time, each a full reshare.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto pk = dep->group_pk(0);
  std::uint32_t added = 0;
  dep->simulator().at(sim::milliseconds(10), [&] { added = dep->add_controller(0); });
  dep->simulator().at(sim::seconds(2), [&] {
    dep->remove_controller(dep->domain_controller_ids(0).front());
  });
  dep->run(sim::seconds(6));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 4u);
  EXPECT_EQ(dep->group_pk(0), pk);

  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, AggregatorReassignedAfterRemoval) {
  auto dep = make_deployment(FrameworkKind::kCiceroAgg, net::build_pod(small_pod()), true,
                             false, 5);
  const auto old_agg = dep->domain_controller_ids(0).front();  // lowest id
  EXPECT_TRUE(dep->controller(old_agg).is_aggregator());
  dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(old_agg); });
  dep->run(sim::seconds(5));
  const auto new_agg = dep->domain_controller_ids(0).front();
  EXPECT_NE(new_agg, old_agg);
  EXPECT_TRUE(dep->controller(new_agg).is_aggregator());

  const auto flows = small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

/// A membership event for `member` from `origin`, signed with `key`.
core::Event membership_event(core::EventKind kind, std::uint32_t origin, std::uint32_t member,
                             const crypto::SchnorrKeyPair& key, std::uint64_t seq = 1'000'000) {
  core::Event e;
  e.id = core::EventId{origin, seq};
  e.kind = kind;
  e.member = member;
  e.sig = crypto::schnorr_sign(key, e.body()).to_bytes();
  return e;
}

/// Sends `e` from switch `sw` to every member of domain 0's plane.
void send_from_switch(core::Deployment& dep, net::NodeIndex sw, const core::Event& e) {
  for (const auto id : dep.domain_controller_ids(0)) {
    dep.network().send(dep.switch_at(sw).config().node, dep.controller(id).node(), e.encode());
  }
}

TEST(Membership, SwitchCannotRemoveAController) {
  // A correctly signed event from a real switch still names an origin
  // that may not change the plane's membership.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const net::NodeIndex sw = dep->topology().switches().front();
  const auto victim = dep->domain_controller_ids(0)[1];
  const auto e = membership_event(core::EventKind::kRemoveController, sw, victim,
                                  dep->switch_at(sw).config().key);
  dep->simulator().at(sim::milliseconds(10), [&] { send_from_switch(*dep, sw, e); });
  dep->run(sim::seconds(5));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 4u);
  EXPECT_EQ(dep->obs().metrics.counter_value("ctrl.rejected.event_origin"), 4u);
}

TEST(Membership, SwitchCannotAddAnUnprovisionedController) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const net::NodeIndex sw = dep->topology().switches().front();
  const auto e = membership_event(core::EventKind::kAddController, sw, 999,
                                  dep->switch_at(sw).config().key);
  dep->simulator().at(sim::milliseconds(10), [&] { send_from_switch(*dep, sw, e); });
  EXPECT_NO_THROW(dep->run(sim::seconds(5)));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 4u);
  EXPECT_EQ(dep->obs().metrics.counter_value("ctrl.rejected.event_origin"), 4u);
}

TEST(Membership, MemberRequestsThatChangeNothingLeaveThePlaneLive) {
  // A member submits straight to the broadcast: an add of an id nobody
  // provisioned, a remove of a non-member, and a switch-signed remove.
  // The first two are ignored before the plane freezes, the last is
  // rejected on delivery, and flows keep completing afterwards.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto members = dep->domain_controller_ids(0);
  auto& byz = dep->controller(members[2]);
  const std::uint32_t origin = core::kControllerOriginBase + byz.id();
  const net::NodeIndex sw = dep->topology().switches().front();
  const auto add = membership_event(core::EventKind::kAddController, origin, 999, byz.config().key);
  const auto remove = membership_event(core::EventKind::kRemoveController, origin, 998,
                                       byz.config().key, 1'000'001);
  const auto forged = membership_event(core::EventKind::kRemoveController, sw, members[1],
                                       dep->switch_at(sw).config().key);
  dep->simulator().at(sim::milliseconds(10), [&] {
    for (const auto* e : {&add, &remove, &forged}) byz.replica().submit(e->encode());
  });
  EXPECT_NO_THROW(dep->run(sim::seconds(5)));
  EXPECT_EQ(dep->domain_controller_ids(0), members);
  for (const auto id : members) EXPECT_FALSE(dep->controller(id).membership_changing());
  EXPECT_EQ(dep->obs().metrics.counter_value("ctrl.rejected.event_origin"), 4u);

  const auto flows = small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

}  // namespace
}  // namespace cicero
