// Audit signatures computed on the deployment's SignPool across
// control-plane membership changes (§4.3).  A membership change
// move-assigns the controller's config, signing key included, while the
// pool may still be signing entries appended before it; the jobs own
// copies of their inputs, so every chain must verify afterwards and no
// signature may be outstanding once Deployment::run returns.
//
// Labeled `audit` in ctest with tests/core/audit_test.cpp; the
// ThreadSanitizer CI job runs this label.
#include <gtest/gtest.h>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_pod;
using testing::small_workload;

std::size_t total_in_flight(core::Deployment& dep) {
  std::size_t n = 0;
  for (const auto id : dep.controller_ids()) n += dep.controller(id).audit().in_flight();
  return n;
}

void expect_chains_verify(core::Deployment& dep) {
  EXPECT_EQ(total_in_flight(dep), 0u) << "run() returned with audit signatures outstanding";
  for (const auto id : dep.controller_ids()) {
    const core::Controller& c = dep.controller(id);
    EXPECT_TRUE(core::AuditLog::verify_chain(c.audit().entries(), c.config().key.pk))
        << "controller " << id;
  }
}

TEST(AuditMembership, AddControllerWithSignaturesInFlight) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flows = small_workload(dep->topology(), 30);
  dep->inject(flows);
  std::size_t in_flight_at_change = 0;
  dep->simulator().at(flows[10].arrival, [&] {
    in_flight_at_change = total_in_flight(*dep);
    dep->add_controller(0);
  });
  dep->run(sim::seconds(60));
  EXPECT_GT(in_flight_at_change, 0u);
  EXPECT_EQ(completed_count(*dep), flows.size());
  expect_chains_verify(*dep);
}

TEST(AuditMembership, RemoveControllerWithSignaturesInFlight) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             /*real_crypto=*/true, /*teardown=*/false, /*controllers=*/5);
  const auto flows = small_workload(dep->topology(), 30);
  dep->inject(flows);
  const auto victim = dep->domain_controller_ids(0).back();
  std::size_t in_flight_at_change = 0;
  dep->simulator().at(flows[10].arrival, [&] {
    in_flight_at_change = total_in_flight(*dep);
    dep->remove_controller(victim);
  });
  dep->run(sim::seconds(60));
  EXPECT_GT(in_flight_at_change, 0u);
  EXPECT_EQ(completed_count(*dep), flows.size());
  expect_chains_verify(*dep);
}

}  // namespace
}  // namespace cicero
