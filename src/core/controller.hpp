// Cicero controller runtime (paper §5.1, Figs. 7a–7c).
//
// One instance per control-plane member.  The controller:
//   * validates incoming events against the PKI directory, forwards
//     multi-domain events to the other affected domains (tagged
//     non-reforwardable), and submits events to its domain's atomic
//     broadcast;
//   * on delivery, runs the controller application (shortest-path routing)
//     and the pluggable update scheduler, filters the schedule to its own
//     domain, threshold-signs each released update and sends it to the
//     switch (or to the aggregator);
//   * on verified switch acknowledgements, releases dependent updates —
//     the dependency machinery behind intra-domain parallelism;
//   * when it is the aggregator (lowest live id, §4.2), collects and
//     verifies partials from its peers and ships one aggregated signature
//     per update to the switch.
//
// Byzantine behaviours for the security tests are injected with
// `set_fault`: a faulty controller can mutate updates before signing,
// stay silent, or fire unsolicited rogue updates at switches (the
// PACKET_OUT-style attack of §2.2).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bft/pbft.hpp"
#include "core/cost_model.hpp"
#include "core/decentralized.hpp"
#include "core/framework.hpp"
#include "core/messages.hpp"
#include "core/audit.hpp"
#include "core/pki.hpp"
#include "core/quorum.hpp"
#include "crypto/frost.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simbls.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sched/depgraph.hpp"
#include "sched/scheduler.hpp"
#include "sim/cpu.hpp"
#include "sim/network.hpp"

namespace cicero::core {

/// Byzantine behaviours a compromised controller may exhibit in tests.
enum class ControllerFault : std::uint8_t {
  kNone = 0,
  kSilent,         ///< signs nothing, sends nothing (crash-like)
  kMutateUpdates,  ///< signs and sends a corrupted rule (wrong next hop)
  kRogueUpdates,   ///< additionally fires unsolicited updates at switches
};

class Controller {
 public:
  struct MemberInfo {
    std::uint32_t id = 0;  ///< controller id; share index is id + 1
    sim::NodeId node = sim::kInvalidNode;
    crypto::Point pk;  ///< PKI key (BFT message + event signing)
  };

  struct Config {
    std::uint32_t id = 0;
    net::DomainId domain = 0;
    FrameworkKind framework = FrameworkKind::kCicero;
    CostModel costs;
    sim::NodeId node = sim::kInvalidNode;
    std::vector<MemberInfo> members;  ///< sorted by id, includes self
    crypto::SchnorrKeyPair key;
    crypto::SecretShare share;  ///< threshold share (Cicero frameworks)
    crypto::Point group_pk;
    std::map<crypto::ShareIndex, crypto::Point> verification_shares;
    std::uint32_t quorum = 3;
    /// Sim address of the designated aggregator switch (kCiceroInNetwork,
    /// DESIGN.md §16), re-pointed by the Deployment when that switch
    /// crashes.  Replicas address it instead of the target switch.  On
    /// the optimistic first send only the lowest-ranked replica ships the
    /// full update body; the next quorum-1 ranks ship compact
    /// PartialShareMsgs and the rest stay silent — every replica still
    /// arms its ack timer, and any retransmission escalates to the full
    /// body, so liveness never depends on the optimistic cast.
    sim::NodeId innet_aggregator = sim::kInvalidNode;
    std::uint64_t nonce_seed = 0;  ///< per-controller FROST nonce stream
    bool real_crypto = true;
    /// Transactional apply/ack recovery (§4.1): an update whose signed ack
    /// has not arrived within `ack_timeout` is re-signed and retransmitted
    /// with exponential backoff, up to `update_max_retries` resends.
    /// Covers updates and acks lost or delayed by the network; switches
    /// deduplicate by update id and re-ack, so resends are idempotent.
    sim::SimTime ack_timeout = sim::milliseconds(500);
    std::uint32_t update_max_retries = 6;
    /// Optional metrics/tracing sink, shared deployment-wide.  The trace
    /// "process" for this controller is its network node id.
    obs::Observability* obs = nullptr;
  };

  /// What every controller of a deployment reads and the Deployment owns.
  struct Environment {
    const net::Topology* topology = nullptr;
    const sched::UpdateScheduler* scheduler = nullptr;
    const PkiDirectory* pki = nullptr;
    /// topology switch index -> network endpoint.
    const std::map<net::NodeIndex, sim::NodeId>* switch_nodes = nullptr;
    /// domain -> that domain's control-plane members (for forwarding);
    /// the Deployment updates it when a membership change settles.
    const std::map<net::DomainId, std::vector<MemberInfo>>* domain_directory = nullptr;
    /// Host workers for the audit log's signatures and for the crypto this
    /// controller consumes (DESIGN.md §6); null computes everything inline.
    SignPool* sign_pool = nullptr;
  };

  /// Fired when a membership event (add/remove) is delivered by the
  /// domain's broadcast; the ControlPlane orchestrator reacts by running
  /// the resharing and rebuilding the group.
  using MembershipFn = std::function<void(const Event&)>;

  Controller(sim::Simulator& simulator, sim::NetworkSim& network, Config config,
             Environment env);

  void handle_message(sim::NodeId from, const util::Bytes& wire);

  std::uint32_t id() const { return config_.id; }
  net::DomainId domain() const { return config_.domain; }
  sim::NodeId node() const { return config_.node; }
  bool is_aggregator() const;
  sim::CpuServer& cpu() { return cpu_; }
  bft::PbftReplica& replica() { return *replica_; }
  const Config& config() const { return config_; }

  void set_fault(ControllerFault fault) { fault_ = fault; }

  /// Aggregator-switch failover (in-network aggregation): the Deployment
  /// re-points every replica of the domain at the new designated switch.
  void set_innet_aggregator(sim::NodeId node) { config_.innet_aggregator = node; }

  /// Hash-chained, signed log of every update this controller emitted
  /// (§7 future work: decision auditability); see core/audit.hpp.
  const AuditLog& audit() const { return audit_; }
  void set_on_membership(MembershipFn fn) { on_membership_ = std::move(fn); }

  /// True while a membership change is being installed; events delivered
  /// in this window are queued (paper §4.3) and drained by
  /// `finish_membership_change`.
  bool membership_changing() const { return membership_changing_; }
  void begin_membership_change() { membership_changing_ = true; }
  /// Installs new group state (share, members, quorum), rebuilds the BFT
  /// replica for the new membership, and drains the event queue.  `phase`
  /// is the new membership phase.
  void finish_membership_change(std::uint64_t phase, Config new_group_config);

  /// Fires an unsolicited (non-quorum) update at a switch — only used by
  /// fault injection to demonstrate the baselines' vulnerability.
  void inject_rogue_update(net::NodeIndex switch_node, const sched::Update& update);

  /// Dependency state for this controller's in-flight schedules; the chaos
  /// suite asserts `tracker().pending() == 0` at quiescence.
  const sched::DependencyTracker& tracker() const { return tracker_; }

  // --- stats ---
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t updates_sent() const { return updates_sent_; }
  std::uint64_t acks_received() const { return acks_received_; }
  std::uint64_t events_forwarded() const { return events_forwarded_; }
  std::uint64_t updates_retransmitted() const { return updates_retransmitted_; }
  std::uint64_t manifests_sent() const { return manifests_sent_; }
  std::uint64_t updates_abandoned() const { return updates_abandoned_; }
  /// Total bytes this controller sent southbound (controller -> switch,
  /// all message kinds, retransmissions included) — the fig12a metric the
  /// in-network offload is measured by.
  std::uint64_t southbound_bytes() const { return southbound_bytes_; }
  /// kAggMismatch alarms delivered through the domain's broadcast.
  std::uint64_t agg_mismatch_reports() const { return agg_mismatch_reports_; }

 private:
  void rebuild_replica();
  /// `sig_ok` is the origin-signature verdict started at decode; empty in
  /// cost-model runs.
  void on_event(const Event& e, PoolFuture<bool>& sig_ok);
  /// Whether `e`'s origin may raise its kind: flow and kAggMismatch events
  /// come from switches, membership events from a member of this plane.
  bool origin_may_raise(const Event& e) const;
  void on_deliver(bft::SeqNum seq, const util::Bytes& payload);
  void process_event(const Event& e);
  void process_flow_event(const Event& e);
  void release_update(sched::UpdateId id);
  void send_update(const sched::Update& update);
  void dispatch_update(const sched::Update& update, bool retransmit = false);
  /// In-network aggregation: rank-dependent send to the aggregator switch.
  void dispatch_innet(const UpdateMsg& msg, sched::UpdateId uid, std::size_t rank,
                      bool retransmit);
  /// A SimBLS partial signature started on the pool once the signed bytes
  /// are fixed, ahead of the simulated signing delay.
  struct AheadPartial {
    PoolFuture<crypto::PartialSignature> sig;
    std::uint64_t phase = 0;  ///< membership phase of the share that signs
  };
  AheadPartial partial_sign_ahead(util::Bytes signing) const;
  /// The signature started ahead, or a fresh one when a membership change
  /// has since replaced this member's share.
  crypto::PartialSignature take_partial(AheadPartial& ahead, const util::Bytes& signing);
  /// Counts a rejected input under the reason-coded counter `name`.
  void count_reject(const char* name);
  /// This replica's rank: position of our id in the sorted member list.
  std::size_t member_rank() const;
  /// Records the first-send instant and arms the ack timer for `id`.
  void await_ack(sched::UpdateId id);
  void arm_ack_timer(sched::UpdateId id, sim::SimTime delay);
  void on_ack(const AckMsg& ack, PoolFuture<bool>& sig_ok);
  /// Decentralized execution: plan + ship every manifest of one schedule,
  /// arm sink timers.
  void dispatch_decentralized(const sched::UpdateSchedule& local);
  void send_manifest(const SegmentManifest& manifest, bool retransmit);
  void on_ack_decentralized(const AckMsg& ack);
  /// Retry exhaustion: finalize `id` and every transitive dependent (or,
  /// in decentralized mode, the sink's whole ancestor closure) so no
  /// tracker entry, timer, trace track or counter is left stranded.
  void abandon_update(sched::UpdateId id);
  void on_peer_update(const UpdateMsg& m);  ///< aggregator role
  void on_frost_session(const FrostSessionMsg& m);   ///< signer role (kFrost)
  void on_frost_partial(const FrostPartialMsg& m);   ///< aggregator role (kFrost)
  /// Sends the signing session to the member holding share `signer`
  /// (or runs our own round 2 when that is us).
  void send_session(sched::UpdateId id, const std::vector<crypto::FrostCommitment>& commitments,
                    crypto::ShareIndex signer, obs::CritPhase phase);
  void forward_cross_domain(const Event& e, const std::set<net::DomainId>& domains);
  std::set<net::DomainId> domains_of_path(const std::vector<net::NodeIndex>& path) const;

  sim::Simulator& sim_;
  sim::NetworkSim& net_;
  Config config_;
  Environment env_;
  sim::CpuServer cpu_;
  std::unique_ptr<bft::PbftReplica> replica_;
  sched::DependencyTracker tracker_;
  std::set<EventId> events_submitted_;
  std::set<EventId> events_processed_set_;
  std::vector<Event> queued_events_;  ///< arrivals during membership change
  std::uint64_t membership_phase_ = 0;
  bool membership_changing_ = false;
  ControllerFault fault_ = ControllerFault::kNone;
  AuditLog audit_;
  MembershipFn on_membership_;
  std::uint64_t origin_seq_ = 0;  ///< for membership events we originate

  /// Aggregator role: what one body bucket ships (`agg_sig` is filled at
  /// shipping) and, under kFrost, its signing round — the piggybacked nonce
  /// commitments, the chosen session and the collected z_i partials.
  struct AggBody {
    AggUpdateMsg msg;
    std::map<crypto::ShareIndex, crypto::FrostCommitment> frost_commitments;
    std::vector<crypto::FrostCommitment> frost_session;
    std::map<crypto::ShareIndex, crypto::Scalar> frost_partials;
  };
  /// Aggregator role: peers' bodies bucketed by the SHA-256 of their
  /// signing bytes (core/quorum.hpp), so a Byzantine peer's body never
  /// blocks the honest quorum.  SimBLS partials are filed only once
  /// verified; a FROST bucket collects nonce commitments instead.
  Buckets<crypto::Digest, AggBody> agg_pending_;
  /// Aggregator role, once a bucket has its quorum: charges the
  /// aggregation, combines with the backend's scheme and ships the result.
  void aggregate_and_ship(sched::UpdateId id, const crypto::Digest& key);
  /// Aggregator role: encoded AggUpdateMsg per shipped update, replayed
  /// when a peer retransmits (its partial arrived after aggregation, i.e.
  /// the aggregated update or the ack was lost somewhere downstream).
  ReplayWindow<util::Bytes> agg_shipped_;
  std::unique_ptr<crypto::FrostSigner> frost_signer_;
  std::unique_ptr<crypto::Drbg> nonce_drbg_;
  /// Signer role: last FROST partial sent per update, replayed when the
  /// aggregator re-requests a session whose nonce we already consumed
  /// (same z, so no nonce reuse — covers a lost FrostPartialMsg).
  ReplayWindow<FrostPartialMsg> frost_sent_partials_;

  /// Released updates awaiting a verified switch ack; drives the ack
  /// timeout/retransmission loop.  `timer` is the pending wakeup,
  /// cancelled outright whenever the entry goes (O(1) in the simulator's
  /// indexed heap), so no stale wakeup ever finds a later entry.  The
  /// first ack closes the lifecycle trace and, when obs is attached,
  /// feeds update_ack_ms_ with the time since `sent_at`.
  struct Inflight {
    sim::SimTime sent_at = 0;   ///< first-send instant
    std::uint32_t attempt = 0;  ///< retransmissions so far
    sim::Simulator::TimerId timer;
  };
  void disarm_ack_timer(sched::UpdateId id);
  std::map<sched::UpdateId, Inflight> inflight_;

  /// Decentralized execution: one planned chain per schedule, indexed by
  /// each of its sink ids (shared — a schedule can have several sinks per
  /// domain after filtering).  `finalized` guards the per-update
  /// completion bookkeeping against overlapping sink closures and
  /// duplicate sink acks.
  struct DecChain {
    DecentralizedPlan plan;
    std::set<sched::UpdateId> finalized;
  };
  std::map<sched::UpdateId, std::shared_ptr<DecChain>> dec_chains_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t events_forwarded_ = 0;
  std::uint64_t updates_retransmitted_ = 0;
  std::uint64_t manifests_sent_ = 0;
  std::uint64_t updates_abandoned_ = 0;
  std::uint64_t southbound_bytes_ = 0;
  std::uint64_t agg_mismatch_reports_ = 0;

  // Observability.  The async lifecycle tracks (event submit->order,
  // update release->sign->apply->ack) are emitted by the aggregator
  // (lowest-id member) only, so one deployment-wide track exists per
  // event/update; per-node CPU spans are emitted by everyone.
  bool tracing() const;
  bool trace_leader() const;
  std::string event_track_id(const EventId& id) const;
  /// Critical-path profiler sink, or nullptr when obs is absent/disabled.
  obs::CritPath* critpath() const;
  /// Milestone records follow the trace-leader rule (aggregator only), so
  /// each update gets exactly one deployment-wide record; phase *byte*
  /// accounting is per-sender and recorded by every member.
  bool crit_leader() const { return critpath() != nullptr && is_aggregator(); }
  /// Update lifecycle points stamped at the controller, each recorded on
  /// the critical-path profiler and as its trace event (leader only).
  enum class Milestone : std::uint8_t {
    kReleased,    ///< dependencies met, dispatch starts
    kSent,        ///< first signed copy leaves toward the switch
    kResent,      ///< retransmission
    kAcked,       ///< switch ack: lifecycle track and flow arrow close
    kChainAcked,  ///< decentralized: completed by its chain sink's ack
  };
  void milestone(Milestone m, sched::UpdateId id);
  /// The controller's one send: counts the bytes toward `phase` of the
  /// critical path (if any) and, for controller -> switch traffic, toward
  /// southbound_bytes().
  void send(sim::NodeId to, const util::Bytes& wire, std::optional<obs::CritPhase> phase,
            bool southbound);
  /// Parent (acked) update per released dependent, pending its dispatch
  /// flow-arrow close; trace-leader only, erased at dispatch.
  std::map<sched::UpdateId, sched::UpdateId> pending_dep_flow_;
  obs::Counter m_events_seen_;
  obs::Counter m_events_processed_;
  obs::Counter m_events_forwarded_;
  obs::Counter m_updates_sent_;
  obs::Counter m_acks_;
  obs::Counter m_deps_released_;
  obs::Counter m_retransmits_;
  obs::Counter m_manifests_sent_;
  obs::Counter m_abandoned_;
  obs::Counter m_southbound_bytes_;
  obs::Counter m_agg_mismatch_;
  obs::Histogram update_ack_ms_;

 public:
  /// Originates a membership event (bootstrap controller proposes adds;
  /// any member proposes removes, §4.3) into the domain's broadcast.
  void propose_membership(EventKind kind, std::uint32_t member);
};

}  // namespace cicero::core
