// Real-crypto pin: what the simulation computes must not depend on where
// the host computes it.  Controllers and switches hand the signatures and
// verifications they consume to the deployment's SignPool as soon as the
// inputs are fixed (DESIGN.md §6), so these runs pin, for every
// threshold-signed update path, lossless and with 10 % loss on switch
// traffic:
//   * the crypto op counts after run(), field inversions included — an op
//     counts only where the simulated node consumed it, so a job whose
//     result is never taken (a deduplicated event, a crashed switch, a
//     dropped message) adds nothing;
//   * which flows completed, and how many updates the switches applied.
// The expected values were captured before any consumed crypto moved off
// the event loop.  The forged cases check that a bad event or ack
// signature is still rejected, and counted by reason.
//
// Labeled `audit` in ctest, so the ThreadSanitizer CI job runs it.
#include <gtest/gtest.h>

#include <tuple>

#include "crypto/drbg.hpp"
#include "integration/helpers.hpp"
#include "obs/metrics.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;

struct Path {
  const char* name;
  FrameworkKind framework;
};

const Path kPaths[] = {
    {"Cicero", FrameworkKind::kCicero},
    {"CiceroAgg", FrameworkKind::kCiceroAgg},
    {"CiceroAggFrost", FrameworkKind::kCiceroAggFrost},
    {"CiceroInNetwork", FrameworkKind::kCiceroInNetwork},
    {"CiceroDecentralized", FrameworkKind::kCiceroDecentralized},
};

/// Everything a run pins.  `completed` has one '1' or '0' per flow record.
struct Pin {
  std::uint64_t schnorr_sign, schnorr_verify, partial_sign, partial_verify, aggregate,
      threshold_verify, frost_sign, frost_aggregate, frost_verify, field_inv;
  std::string completed;
  std::uint64_t updates_applied;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.schnorr_sign << ", " << p.schnorr_verify << ", " << p.partial_sign
            << ", " << p.partial_verify << ", " << p.aggregate << ", " << p.threshold_verify
            << ", " << p.frost_sign << ", " << p.frost_aggregate << ", " << p.frost_verify
            << ", " << p.field_inv << ", \"" << p.completed << "\", " << p.updates_applied
            << "}";
}

bool operator==(const Pin& a, const Pin& b) {
  return a.schnorr_sign == b.schnorr_sign && a.schnorr_verify == b.schnorr_verify &&
         a.partial_sign == b.partial_sign && a.partial_verify == b.partial_verify &&
         a.aggregate == b.aggregate && a.threshold_verify == b.threshold_verify &&
         a.frost_sign == b.frost_sign && a.frost_aggregate == b.frost_aggregate &&
         a.frost_verify == b.frost_verify && a.field_inv == b.field_inv &&
         a.completed == b.completed && a.updates_applied == b.updates_applied;
}

/// Two pods, one control-plane domain each, so events are also forwarded
/// across domains.
std::unique_ptr<core::Deployment> pin_deployment(const Path& path) {
  net::FabricParams fp;
  fp.racks_per_pod = 2;
  fp.hosts_per_rack = 2;
  fp.edge_per_pod = 2;
  fp.pods_per_dc = 2;
  fp.spine_switches = 2;
  fp.domain_per_pod = true;
  core::DeploymentParams dp;
  dp.framework = path.framework;
  dp.controllers_per_domain = 4;
  dp.seed = 424242;
  return std::make_unique<core::Deployment>(net::build_datacenter(fp), dp);
}

constexpr std::size_t kFlows = 30;

Pin run_pinned(const Path& path, double switch_loss) {
  auto dep = pin_deployment(path);
  if (switch_loss > 0.0) {
    for (const auto sw : dep->topology().switches()) {
      dep->faults().set_node_loss(dep->switch_at(sw).config().node, switch_loss);
    }
  }
  const auto flows = testing::small_workload(dep->topology(), kFlows);
  obs::crypto_ops().reset();  // the DKG at construction is not part of the run
  dep->inject(flows);
  dep->run(sim::seconds(120));
  const obs::CryptoOpCounters& c = obs::crypto_ops();
  Pin p{c.schnorr_sign,     c.schnorr_verify,  c.partial_sign, c.partial_verify,
        c.aggregate,        c.threshold_verify, c.frost_sign,  c.frost_aggregate,
        c.frost_verify,     c.field_inv,        "",            0};
  for (const auto& r : dep->flow_records()) p.completed += r.completed ? '1' : '0';
  for (const auto sw : dep->topology().switches()) {
    p.updates_applied += dep->switch_at(sw).updates_applied();
  }
  return p;
}

struct PinCase {
  Path path;
  double switch_loss;
  Pin expected;
};

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << c.path.name << " at " << c.switch_loss << " switch loss";
}

class CryptoPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(CryptoPin, OpCountsFlowsAndAppliesMatchInlineCrypto) {
  const PinCase& c = GetParam();
  EXPECT_EQ(run_pinned(c.path, c.switch_loss), c.expected);
}

const std::string kAll(kFlows, '1');

INSTANTIATE_TEST_SUITE_P(
    UpdatePaths, CryptoPin,
    ::testing::Values(
        PinCase{kPaths[0], 0.0, {215, 229, 156, 0, 39, 39, 0, 0, 0, 449, kAll, 39}},
        PinCase{kPaths[0], 0.1, {254, 234, 166, 0, 39, 39, 0, 0, 0, 498, kAll, 39}},
        PinCase{kPaths[1], 0.0, {212, 175, 156, 78, 39, 39, 0, 0, 0, 446, kAll, 39}},
        PinCase{kPaths[1], 0.1, {262, 240, 179, 78, 39, 39, 0, 0, 0, 519, kAll, 39}},
        PinCase{kPaths[2], 0.0, {212, 175, 0, 78, 0, 0, 78, 39, 39, 1187, kAll, 39}},
        PinCase{kPaths[2], 0.1, {262, 240, 0, 78, 0, 0, 78, 39, 39, 1283, kAll, 39}},
        PinCase{kPaths[3], 0.0, {212, 226, 156, 0, 39, 66, 0, 0, 0, 446, kAll, 39}},
        PinCase{kPaths[3], 0.1, {346, 309, 246, 0, 42, 71, 0, 0, 0, 676, kAll, 42}},
        PinCase{kPaths[4], 0.0, {214, 168, 156, 0, 39, 39, 0, 0, 0, 448, kAll, 39}},
        PinCase{kPaths[4], 0.1, {312, 189, 212, 0, 39, 39, 0, 0, 0, 602, kAll, 39}}),
    [](const auto& info) {
      return std::string(info.param.path.name) + (info.param.switch_loss > 0 ? "Lossy" : "");
    });

/// What a forged input must not change.
struct Outcome {
  std::uint64_t events_processed = 0, acks_received = 0, updates_applied = 0;
  std::size_t completed = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome(core::Deployment& dep) {
  Outcome o;
  for (const auto id : dep.controller_ids()) {
    o.events_processed += dep.controller(id).events_processed();
    o.acks_received += dep.controller(id).acks_received();
  }
  for (const auto sw : dep.topology().switches()) {
    o.updates_applied += dep.switch_at(sw).updates_applied();
  }
  o.completed = testing::completed_count(dep);
  return o;
}

TEST(CryptoPinForged, BadEventAndAckSignaturesAreRejectedAndCounted) {
  const auto run = [](bool forge) {
    auto dep = pin_deployment(kPaths[0]);
    const auto flows = testing::small_workload(dep->topology(), kFlows);
    dep->inject(flows);
    if (forge) {
      // A flow request for a pair no flow uses, from a real switch but
      // signed with a key that is not the switch's; and an ack for the
      // update that request would cause, signed the same way.
      const auto hosts = dep->topology().hosts();
      net::FlowMatch match{hosts.front(), hosts.back()};
      for (const auto& f : flows) {
        EXPECT_FALSE(f.src_host == match.src_host && f.dst_host == match.dst_host);
      }
      const net::NodeIndex tor = dep->topology().host_tor(match.src_host);
      crypto::Drbg d(5);
      const auto wrong = crypto::SchnorrKeyPair::generate(d);
      core::Event e;
      e.id = core::EventId{tor, 1'000'000};
      e.kind = core::EventKind::kFlowRequest;
      e.match = match;
      e.sig = crypto::schnorr_sign(wrong, e.body()).to_bytes();
      core::AckMsg ack;
      ack.update_id = core::update_id_base(e.id);
      ack.switch_node = tor;
      ack.sig = crypto::schnorr_sign(wrong, ack.body()).to_bytes();
      const sim::NodeId from = dep->switch_at(tor).config().node;
      dep->simulator().at(flows[5].arrival, [&dep, from, e, ack, tor] {
        for (const auto id : dep->domain_controller_ids(dep->topology().node(tor).domain)) {
          dep->controller(id).handle_message(from, e.encode());
          dep->controller(id).handle_message(from, ack.encode());
        }
      });
      dep->run(sim::seconds(120));
      for (const auto sw : dep->topology().switches()) {
        EXPECT_FALSE(dep->switch_at(sw).table().has(match)) << "forged event installed a rule";
      }
    } else {
      dep->run(sim::seconds(120));
    }
    const auto& m = dep->obs().metrics;
    return std::make_tuple(outcome(*dep), m.counter_value("ctrl.rejected.event_sig"),
                           m.counter_value("ctrl.rejected.ack_sig"));
  };
  const auto [honest, honest_events, honest_acks] = run(false);
  const auto [forged, bad_events, bad_acks] = run(true);
  EXPECT_EQ(honest_events, 0u);
  EXPECT_EQ(honest_acks, 0u);
  EXPECT_EQ(bad_events, 4u);  // every controller of the switch's domain
  EXPECT_EQ(bad_acks, 4u);
  EXPECT_TRUE(forged == honest);
  EXPECT_EQ(forged.completed, kFlows);
}

}  // namespace
}  // namespace cicero
