// Evaluated frameworks and the Table 2 capability matrix.
//
// The paper's evaluation compares four update frameworks (§6.1); the same
// enum, with three Cicero extensions, selects the deployment wiring
// throughout this repository.  The capability matrix reproduces Table 2
// as data derived from what each implementation actually does, so
// `bench_table2_features` prints it from code rather than prose.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace cicero::core {

/// One value per update path the deployment implements.  The first four
/// are §6.1's comparands; the rest are Cicero extensions.  Each value fixes
/// where threshold partials are aggregated, which threshold scheme signs
/// and who sequences a schedule, so no combination of settings needs
/// rejecting.
///
/// | framework            | aggregation site           | scheme  | execution         |
/// |----------------------|----------------------------|---------|-------------------|
/// | kCentralized         | none (unauthenticated)     | none    | controller-driven |
/// | kCrashTolerant       | none (unauthenticated)     | none    | controller-driven |
/// | kCicero              | target switch              | SimBLS  | controller-driven |
/// | kCiceroAgg           | aggregator controller      | SimBLS  | controller-driven |
/// | kCiceroInNetwork     | designated switch (domain) | SimBLS  | controller-driven |
/// | kCiceroDecentralized | target switch (manifests)  | SimBLS  | decentralized     |
/// | kCiceroAggFrost      | aggregator controller      | FROST   | controller-driven |
///
/// Controller-driven execution (paper §5) releases one signed update per
/// ack round trip as the dependency tracker frees it.  Decentralized
/// execution (ez-Segway-style, DESIGN.md §15) pushes the whole signed
/// schedule to the switches up front as per-segment manifests; switches
/// coordinate in-band with signed SegmentDone signals and only the sink
/// segment of each chain reports back.  In-network aggregation
/// (P4BFT-style, DESIGN.md §16) has every replica address one designated
/// aggregator switch per domain, which compares response digests,
/// aggregates and fans the single signed update out to the target switch.
/// SimBLS is the paper's BLS shape (non-interactive, any-t aggregation;
/// crypto/simbls.hpp).  FROST is real threshold Schnorr: the aggregator
/// controller fixes each signing session, at one extra round trip.
enum class FrameworkKind : std::uint8_t {
  kCentralized = 0,          ///< singleton controller, no replication, no auth
  kCrashTolerant = 1,        ///< BFT-ordered control plane, NO quorum auth on switches
  kCicero = 2,               ///< full protocol, switch-side signature aggregation
  kCiceroAgg = 3,            ///< full protocol, controller-side aggregation (§4.2)
  kCiceroInNetwork = 4,      ///< kCicero, aggregated at a designated switch (P4BFT)
  kCiceroDecentralized = 5,  ///< kCicero, switches sequence the chain in-band (ez-Segway)
  kCiceroAggFrost = 6,       ///< kCiceroAgg, signed with FROST instead of SimBLS
};

const char* framework_name(FrameworkKind kind);

/// Updates, acks and SegmentDone signals carry signatures and switches
/// demand a controller quorum: every Cicero path.
constexpr bool is_threshold_signed(FrameworkKind kind) {
  return kind != FrameworkKind::kCentralized && kind != FrameworkKind::kCrashTolerant;
}

/// The baselines run one control plane spanning every topology domain
/// (that is how the paper deploys them); Cicero paths get one per domain.
constexpr bool uses_global_plane(FrameworkKind kind) { return !is_threshold_signed(kind); }

/// An aggregator controller collects the partials and ships one signed
/// update per update (§4.2); switches send their events to it.
constexpr bool aggregates_at_controller(FrameworkKind kind) {
  return kind == FrameworkKind::kCiceroAgg || kind == FrameworkKind::kCiceroAggFrost;
}

/// One row of Table 2.
struct Capabilities {
  std::string system;
  bool crash_tolerant = false;
  bool byzantine_tolerant = false;
  bool controller_authentication = false;
  bool dynamic_membership = false;
  bool update_consistent = false;
  bool update_domains = false;
  std::string implementation;
};

/// Capabilities of this repository's frameworks (the Cicero rows are the
/// paper's claims, backed by the tests named in EXPERIMENTS.md) plus the
/// related-work rows of Table 2 for the printed comparison.
std::vector<Capabilities> table2_rows();

}  // namespace cicero::core
