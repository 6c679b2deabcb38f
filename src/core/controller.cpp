#include "core/controller.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace cicero::core {

namespace {
constexpr const char* kLog = "controller";

// PBFT settings shared by every control plane: unsigned BFT messages and
// a 400 ms request timeout before a view change.
constexpr bool kSignBftMessages = false;
constexpr sim::SimTime kBftRequestTimeout = sim::milliseconds(400);

/// Lowest-id member of a control plane: the aggregator (§4.2) and the
/// recipient of events forwarded from another domain.
const Controller::MemberInfo& lowest_member(const std::vector<Controller::MemberInfo>& members) {
  return *std::min_element(members.begin(), members.end(),
                           [](const auto& a, const auto& b) { return a.id < b.id; });
}

bft::PbftConfig make_pbft_config(const Controller::Config& c, sim::CpuServer* cpu) {
  bft::PbftConfig pc;
  // Replica id = our position in the (id-sorted) member list.
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    if (c.members[i].id == c.id) pc.id = static_cast<bft::ReplicaId>(i);
    pc.group.push_back(c.members[i].node);
  }
  pc.request_timeout = kBftRequestTimeout;
  pc.sign_messages = kSignBftMessages;
  pc.msg_processing_cost = c.costs.bft_msg_cost;
  pc.cpu = cpu;
  pc.obs = c.obs;
  return pc;
}

bft::PbftKeys make_pbft_keys(const Controller::Config& c) {
  bft::PbftKeys keys;
  keys.own = c.key;
  for (const auto& m : c.members) keys.replica_pks.push_back(m.pk);
  return keys;
}
}  // namespace

Controller::Controller(sim::Simulator& simulator, sim::NetworkSim& network, Config config,
                       Environment env)
    : sim_(simulator), net_(network), config_(std::move(config)), env_(std::move(env)),
      cpu_(simulator), audit_(env_.sign_pool) {
  if (config_.framework == FrameworkKind::kCiceroAggFrost && config_.real_crypto) {
    frost_signer_ = std::make_unique<crypto::FrostSigner>(config_.share, config_.group_pk);
    nonce_drbg_ = std::make_unique<crypto::Drbg>(config_.nonce_seed ^ 0xF057ull);
  }
  if (config_.obs != nullptr) {
    cpu_.set_obs(config_.obs, config_.node, obs::kTidMain);
    auto& m = config_.obs->metrics;
    m_events_seen_ = m.counter("ctrl.events_seen");
    m_events_processed_ = m.counter("ctrl.events_processed");
    m_events_forwarded_ = m.counter("ctrl.events_forwarded");
    m_updates_sent_ = m.counter("ctrl.updates_sent");
    m_acks_ = m.counter("ctrl.acks_received");
    m_retransmits_ = m.counter("ctrl.update_retransmits");
    m_manifests_sent_ = m.counter("ctrl.manifests_sent");
    m_abandoned_ = m.counter("ctrl.updates_abandoned");
    m_southbound_bytes_ = m.counter("ctrl.southbound_bytes");
    m_agg_mismatch_ = m.counter("ctrl.agg_mismatch_reports");
    m_deps_released_ = m.counter("sched.updates_released");
    update_ack_ms_ = m.histogram("ctrl.update_ack_ms", obs::latency_buckets_ms());
  }
  rebuild_replica();
}

bool Controller::tracing() const {
  return config_.obs != nullptr && config_.obs->trace.enabled();
}

// Exactly one member per control plane owns the deployment-wide async
// lifecycle tracks; reuse the aggregator-selection rule (lowest id).
bool Controller::trace_leader() const { return tracing() && is_aggregator(); }

obs::CritPath* Controller::critpath() const {
  return config_.obs != nullptr && config_.obs->critpath.enabled() ? &config_.obs->critpath
                                                                   : nullptr;
}

std::string Controller::event_track_id(const EventId& id) const {
  return "e:" + std::to_string(id.origin) + ":" + std::to_string(id.seq);
}

void Controller::rebuild_replica() {
  replica_ = std::make_unique<bft::PbftReplica>(
      sim_, net_, make_pbft_config(config_, &cpu_), make_pbft_keys(config_),
      [this](bft::SeqNum seq, const util::Bytes& payload) { on_deliver(seq, payload); });
}

bool Controller::is_aggregator() const {
  // Lowest identifier among the current members (§4.2); identifiers are
  // never reused, so the choice is stable across membership changes.
  return !config_.members.empty() && lowest_member(config_.members).id == config_.id;
}

void Controller::send(sim::NodeId to, const util::Bytes& wire,
                      std::optional<obs::CritPhase> phase, bool southbound) {
  obs::CritPath* cp = critpath();
  if (cp != nullptr && phase) cp->add_phase_bytes(*phase, wire.size());
  if (southbound) {
    southbound_bytes_ += wire.size();
    m_southbound_bytes_.inc(wire.size());
  }
  net_.send(config_.node, to, wire);
}

void Controller::milestone(Milestone m, sched::UpdateId id) {
  obs::CritPath* cp = crit_leader() ? critpath() : nullptr;
  obs::Tracer* trace = trace_leader() ? &config_.obs->trace : nullptr;
  const sim::SimTime now = sim_.now();
  switch (m) {
    case Milestone::kReleased:
      if (cp != nullptr) cp->update_released(id, now);
      break;
    case Milestone::kSent:
      // In-network the aggregate signature is born at the aggregator
      // switch, which stamps the signed milestone itself.
      if (cp != nullptr && config_.framework != FrameworkKind::kCiceroInNetwork) {
        cp->update_signed(id, now);
      }
      if (trace != nullptr) {
        trace->flow_start("flow", obs::flow_track_id(id), "update.send", config_.node,
                          obs::kTidNet);
      }
      break;
    case Milestone::kResent:
      if (cp != nullptr) cp->update_retransmitted(id, now);
      if (trace != nullptr) {
        trace->flow_step("flow", obs::flow_track_id(id), "update.resend", config_.node,
                         obs::kTidNet);
      }
      break;
    case Milestone::kAcked:
    case Milestone::kChainAcked:
      if (cp != nullptr) cp->update_acked(id, now);
      if (trace != nullptr) {
        trace->async_end("update", obs::update_track_id(config_.domain, id), "update",
                         config_.node, obs::kTidMain);
        if (m == Milestone::kAcked) {
          trace->flow_end("flow", obs::flow_track_id(id), "update.ack", config_.node,
                          obs::kTidNet);
        }
      }
      break;
  }
}

void Controller::handle_message(sim::NodeId from, const util::Bytes& wire) {
  if (fault_ == ControllerFault::kSilent) return;
  const auto tag = peek_tag(wire);
  if (!tag) return;
  if (*tag == bft::kBftWireTag) {
    replica_->on_message(from, wire);
    return;
  }
  switch (static_cast<CoreMsgTag>(*tag)) {
    case CoreMsgTag::kEvent: {
      if (auto e = Event::decode(wire)) {
        // The origin signature is checked on the pool while the simulated
        // CPU verifies; on_event takes the verdict.
        PoolFuture<bool> sig_ok;
        if (config_.real_crypto) sig_ok = submit(env_.sign_pool, env_.pki->event_check(*e));
        cpu_.execute(config_.costs.ctrl_msg_handling + config_.costs.event_verify,
                     "event.verify", [this, e = std::move(*e), sig_ok]() mutable {
                       on_event(e, sig_ok);
                     });
      }
      break;
    }
    case CoreMsgTag::kAck: {
      if (auto a = AckMsg::decode(wire)) {
        const bool verify = is_threshold_signed(config_.framework);
        const sim::SimTime cost = config_.costs.ctrl_msg_handling +
                                  (verify ? config_.costs.ack_verify : sim::SimTime{0});
        PoolFuture<bool> sig_ok;
        if (verify && config_.real_crypto) {
          sig_ok = submit(env_.sign_pool, env_.pki->ack_check(*a));
        }
        cpu_.execute(cost, "ack.verify", [this, a = std::move(*a), sig_ok]() mutable {
          on_ack(a, sig_ok);
        });
      }
      break;
    }
    case CoreMsgTag::kUpdate: {
      if (auto m = UpdateMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                     [this, m = std::move(*m)] { on_peer_update(m); });
      }
      break;
    }
    case CoreMsgTag::kFrostSession: {
      if (auto m = FrostSessionMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                     [this, m = std::move(*m)] { on_frost_session(m); });
      }
      break;
    }
    case CoreMsgTag::kFrostPartial: {
      if (auto m = FrostPartialMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling + config_.costs.partial_verify,
                     "partial.verify", [this, m = std::move(*m)] { on_frost_partial(m); });
      }
      break;
    }
    default:
      break;  // reshare and notify messages are handled by the orchestrator
  }
}

// ---------------------------------------------------------------------------
// Event intake and cross-domain forwarding (Fig. 7a)
// ---------------------------------------------------------------------------

void Controller::on_event(const Event& e, PoolFuture<bool>& sig_ok) {
  ++events_seen_;
  m_events_seen_.inc();
  if (events_submitted_.count(e.id) != 0 || events_processed_set_.count(e.id) != 0) return;
  if (sig_ok.valid() && !sig_ok.take()) {
    count_reject("ctrl.rejected.event_sig");
    CICERO_LOG_WARN(kLog, "c%u: event with bad origin signature dropped", config_.id);
    return;
  }
  if (!origin_may_raise(e)) {
    count_reject("ctrl.rejected.event_origin");
    return;
  }

  // The centralized/crash-tolerant baselines run one global control plane
  // spanning every domain: no filtering, no forwarding.
  bool ours = true;
  if (!uses_global_plane(config_.framework) &&
      (e.kind == EventKind::kFlowRequest || e.kind == EventKind::kFlowTeardown)) {
    const auto path = env_.topology->shortest_path(e.match.src_host, e.match.dst_host);
    if (path.empty()) return;
    const auto domains = domains_of_path(path);
    ours = domains.count(config_.domain) != 0;
    if (!e.forwarded && domains.size() > 1) forward_cross_domain(e, domains);
  }
  if (!ours) return;

  events_submitted_.insert(e.id);
  if (crit_leader()) critpath()->event_submitted(e.id.origin, e.id.seq, sim_.now());
  if (trace_leader()) {
    // submit -> ordered: closes in process_event once the broadcast
    // delivers the event back.
    config_.obs->trace.async_begin("event", event_track_id(e.id), "order", config_.node,
                                   obs::kTidBft,
                                   {{"origin", static_cast<std::int64_t>(e.id.origin)}});
  }
  replica_->submit(e.encode());
}

bool Controller::origin_may_raise(const Event& e) const {
  switch (e.kind) {
    case EventKind::kFlowRequest:
    case EventKind::kFlowTeardown:
    case EventKind::kAggMismatch:
      // Switch events; the sequence bound keeps update ids one to one with
      // their causes (update_id_base keeps 32 bits of it).
      return e.id.origin < kControllerOriginBase && e.id.seq <= 0xFFFFFFFFULL;
    case EventKind::kAddController:
    case EventKind::kRemoveController:
      return std::any_of(config_.members.begin(), config_.members.end(), [&](const MemberInfo& m) {
        return kControllerOriginBase + m.id == e.id.origin;
      });
  }
  return false;
}

std::set<net::DomainId> Controller::domains_of_path(
    const std::vector<net::NodeIndex>& path) const {
  std::set<net::DomainId> domains;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    domains.insert(env_.topology->node(path[i]).domain);
  }
  return domains;
}

void Controller::forward_cross_domain(const Event& e, const std::set<net::DomainId>& domains) {
  for (const net::DomainId d : domains) {
    if (d == config_.domain) continue;
    const auto it = env_.domain_directory->find(d);
    if (it == env_.domain_directory->end() || it->second.empty()) continue;
    // Forward to the lowest-id member of the remote domain (any valid
    // recipient works; lowest-id matches the aggregator-selection rule).
    Event fwd = e;
    fwd.forwarded = true;  // never re-forwarded (§4.1)
    send(lowest_member(it->second).node, fwd.encode(), obs::CritPhase::kOrder,
         /*southbound=*/false);
    ++events_forwarded_;
    m_events_forwarded_.inc();
  }
}

// ---------------------------------------------------------------------------
// Ordered delivery -> scheduling -> signed updates (Fig. 7b)
// ---------------------------------------------------------------------------

void Controller::on_deliver(bft::SeqNum seq, const util::Bytes& payload) {
  (void)seq;
  const auto e = Event::decode(payload);
  if (!e) return;
  if (membership_changing_) {
    queued_events_.push_back(*e);
    return;
  }
  process_event(*e);
}

void Controller::process_event(const Event& e) {
  // Ordered events include any a Byzantine member submitted straight to
  // the broadcast, so the origin rule is enforced here too.
  if (!origin_may_raise(e)) {
    count_reject("ctrl.rejected.event_origin");
    return;
  }
  if (!events_processed_set_.insert(e.id).second) return;
  const bool submitted_here = events_submitted_.count(e.id) != 0;
  events_submitted_.erase(e.id);
  ++events_processed_;
  m_events_processed_.inc();
  if (trace_leader() && submitted_here) {
    config_.obs->trace.async_end("event", event_track_id(e.id), "order", config_.node,
                                 obs::kTidBft);
  }

  switch (e.kind) {
    case EventKind::kFlowRequest:
    case EventKind::kFlowTeardown:
      process_flow_event(e);
      break;
    case EventKind::kAddController:
    case EventKind::kRemoveController:
      if (on_membership_) on_membership_(e);
      break;
    case EventKind::kAggMismatch:
      // An aggregator switch saw conflicting replica digests for one
      // update (in-network response comparison, DESIGN.md §16).  The
      // honest quorum's bucket still aggregates on its own; the alarm is
      // recorded so operators (and the Byzantine tests) can see the
      // attempted corruption.
      ++agg_mismatch_reports_;
      m_agg_mismatch_.inc();
      CICERO_LOG_WARN(kLog, "c%u: aggregator s%u reported conflicting update digests",
                      config_.id, e.id.origin);
      break;
  }
}

void Controller::process_flow_event(const Event& e) {
  if (fault_ == ControllerFault::kSilent) return;

  // Controller application: shortest-path routing (§5.1).
  const auto path = env_.topology->shortest_path(e.match.src_host, e.match.dst_host);
  if (path.size() < 3) return;

  sched::RouteIntent intent;
  intent.kind = e.kind == EventKind::kFlowRequest ? sched::RouteIntent::Kind::kEstablish
                                                  : sched::RouteIntent::Kind::kTeardown;
  intent.match = e.match;
  intent.path = path;
  intent.reserved_bps = e.reserved_bps;

  sched::UpdateSchedule schedule = env_.scheduler->build(intent, update_id_base(e.id));

  // Domain filter (§3.3): keep updates for our own switches; dependencies
  // on other domains' updates are dropped — each domain applies its
  // segment independently and in parallel.  Global planes keep everything.
  const bool global_plane = uses_global_plane(config_.framework);
  sched::UpdateSchedule local;
  std::set<sched::UpdateId> local_ids;
  for (const auto& su : schedule.updates) {
    if (global_plane ||
        env_.topology->node(su.update.switch_node).domain == config_.domain) {
      local_ids.insert(su.update.id);
    }
  }
  for (auto& su : schedule.updates) {
    if (local_ids.count(su.update.id) == 0) continue;
    sched::ScheduledUpdate filtered;
    filtered.update = su.update;
    for (const sched::UpdateId d : su.deps) {
      if (local_ids.count(d) != 0) filtered.deps.push_back(d);
    }
    local.updates.push_back(std::move(filtered));
  }
  if (local.updates.empty()) return;

  cpu_.execute(config_.costs.route_compute, "route.compute",
               [this, local = std::move(local)] {
    std::vector<sched::UpdateId> ready;
    try {
      ready = tracker_.add(local);
    } catch (const std::invalid_argument&) {
      return;  // duplicate replay of an already-scheduled event
    }
    if (trace_leader()) {
      // Lifecycle track opens at schedule time (so dependency wait is
      // visible) and closes on the switch ack in on_ack.
      for (const auto& su : local.updates) {
        config_.obs->trace.async_begin(
            "update", obs::update_track_id(config_.domain, su.update.id), "update",
            config_.node, obs::kTidMain,
            {{"switch", static_cast<std::int64_t>(su.update.switch_node)},
             {"deps", static_cast<std::int64_t>(su.deps.size())}});
      }
    }
    if (obs::CritPath* cp = crit_leader() ? critpath() : nullptr) {
      for (const auto& su : local.updates) {
        const EventId cause = cause_of(su.update.id);
        cp->update_scheduled(su.update.id, cause.origin, cause.seq, sim_.now());
      }
    }
    if (config_.framework == FrameworkKind::kCiceroDecentralized) {
      dispatch_decentralized(local);
    } else {
      for (const sched::UpdateId id : ready) release_update(id);
    }
  });
}

void Controller::release_update(sched::UpdateId id) {
  m_deps_released_.inc();
  milestone(Milestone::kReleased, id);
  send_update(tracker_.update(id));
}

void Controller::send_update(const sched::Update& update) {
  if (fault_ == ControllerFault::kSilent) return;
  await_ack(update.id);
  dispatch_update(update);
}

void Controller::await_ack(sched::UpdateId id) {
  Inflight& fl = inflight_[id];
  fl.sent_at = sim_.now();
  fl.attempt = 0;
  arm_ack_timer(id, config_.ack_timeout);
}

// One ack-timeout round: if the update is still un-acked when the timer
// fires, re-sign and retransmit it (decentralized: resend the chain's
// manifests — idempotent, switches dedupe and re-signal), then re-arm with
// twice the delay.  Bounded by Config::update_max_retries; past that the
// update and every dependent that could never be released are abandoned
// outright (abandon_update) so the tracker drains and the bookkeeping is
// finalized — the switch-side event retry eventually restarts the whole
// pipeline with a fresh event if connectivity returns.
void Controller::arm_ack_timer(sched::UpdateId id, sim::SimTime delay) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  sim_.cancel(it->second.timer);  // re-arm: at most one pending timer per id
  it->second.timer = sim_.after_cancellable(delay, [this, id, delay] {
    const auto fl = inflight_.find(id);
    if (fl == inflight_.end()) return;  // erasing an entry cancels its timer
    if (fault_ == ControllerFault::kSilent || !tracker_.knows(id)) {
      inflight_.erase(fl);
      return;
    }
    if (fl->second.attempt >= config_.update_max_retries) {
      CICERO_LOG_WARN(kLog, "c%u: update %llu unacked after %u retransmits; giving up",
                      config_.id, static_cast<unsigned long long>(id), fl->second.attempt);
      abandon_update(id);
      return;
    }
    ++fl->second.attempt;
    ++updates_retransmitted_;
    m_retransmits_.inc();
    if (tracing()) {
      config_.obs->trace.instant(
          config_.node, obs::kTidMain, "update.retransmit",
          {{"update", static_cast<std::int64_t>(id)},
           {"attempt", static_cast<std::int64_t>(fl->second.attempt)}});
    }
    const auto chain = dec_chains_.find(id);
    if (chain != dec_chains_.end()) {
      // Any hop of the chain may have lost its manifest or its in-band
      // SegmentDone; resending every manifest re-triggers both (switches
      // dedupe applied segments and re-signal their successors).
      for (const SegmentManifest& m : chain->second->plan.manifests) {
        send_manifest(m, /*retransmit=*/true);
      }
    } else {
      dispatch_update(tracker_.update(id), /*retransmit=*/true);
    }
    arm_ack_timer(id, delay * 2);
  });
}

// Retry exhaustion (both execution modes): finalize every update that can
// no longer make progress.  The tracker abandons `id` plus its transitive
// dependents (none of them can ever be released once `id` will never
// complete); each abandoned id sheds its in-flight record and open trace
// track, so pending() drains to zero and a late ack is the
// usual already-completed no-op.  Abandoned updates keep their CritPath
// record incomplete — attribution summaries only cover completed records,
// so the 95 % floor is unaffected.
void Controller::abandon_update(sched::UpdateId id) {
  std::vector<sched::UpdateId> removed;
  const auto chain = dec_chains_.find(id);
  if (chain != dec_chains_.end()) {
    // A sink gave up: its whole ancestor closure is unreachable (only the
    // sink's ack would have completed it).
    for (const sched::UpdateId a : chain->second->plan.ancestors(id)) {
      for (const sched::UpdateId r : tracker_.abandon(a)) removed.push_back(r);
    }
    dec_chains_.erase(chain);
  } else {
    removed = tracker_.abandon(id);
  }
  if (std::find(removed.begin(), removed.end(), id) == removed.end()) {
    // The tracker already saw `id` complete (shouldn't happen with a live
    // inflight entry, but stay defensive): shed the local state without
    // double-closing its already-closed trace track.
    disarm_ack_timer(id);
  }
  for (const sched::UpdateId r : removed) {
    disarm_ack_timer(r);
    pending_dep_flow_.erase(r);
    ++updates_abandoned_;
    m_abandoned_.inc();
    if (tracing()) {
      config_.obs->trace.instant(config_.node, obs::kTidMain, "update.abandoned",
                                 {{"update", static_cast<std::int64_t>(r)}});
    }
    if (trace_leader()) {
      config_.obs->trace.async_end("update", obs::update_track_id(config_.domain, r), "update",
                                   config_.node, obs::kTidMain);
    }
  }
}

void Controller::disarm_ack_timer(sched::UpdateId id) {
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  sim_.cancel(it->second.timer);
  inflight_.erase(it);
}

void Controller::dispatch_update(const sched::Update& update, bool retransmit) {
  if (fault_ == ControllerFault::kSilent) return;

  UpdateMsg msg;
  msg.update = update;
  msg.cause = cause_of(update.id);
  if (fault_ == ControllerFault::kMutateUpdates || fault_ == ControllerFault::kRogueUpdates) {
    // Corrupt the rule: point the flow at the wrong neighbor (a loop- or
    // blackhole-inducing change a compromised controller would make).
    msg.update.rule.next_hop = update.switch_node;
  }

  const bool threshold = is_threshold_signed(config_.framework);
  const sim::SimTime sign_cost = threshold ? config_.costs.partial_sign : sim::SimTime{0};
  AheadPartial partial;
  const bool frost = config_.framework == FrameworkKind::kCiceroAggFrost;
  if (threshold && !frost && config_.real_crypto) {
    partial = partial_sign_ahead(update_signing_bytes(msg.update));
  }

  if (trace_leader()) {
    config_.obs->trace.async_begin("update", obs::update_track_id(config_.domain, update.id),
                                   "sign", config_.node, obs::kTidCrypto);
  }
  const sched::UpdateId uid = update.id;
  cpu_.execute(sign_cost, "update.sign", [this, uid, retransmit, frost, msg = std::move(msg),
                                          partial]() mutable {
    if (trace_leader()) {
      config_.obs->trace.async_end("update", obs::update_track_id(config_.domain, uid), "sign",
                                   config_.node, obs::kTidCrypto);
      // Close the dependency-release arrow opened in on_ack: the edge
      // runs from the predecessor's ack to this dependent leaving.
      const auto dep = pending_dep_flow_.find(uid);
      if (dep != pending_dep_flow_.end()) {
        config_.obs->trace.flow_end(
            "dep", "d:" + std::to_string(dep->second) + ":" + std::to_string(uid),
            "dep.release", config_.node, obs::kTidMain);
        pending_dep_flow_.erase(dep);
      }
    }
    if (retransmit) milestone(Milestone::kResent, uid);
    // Decision audit trail: record the exact update body we are about to
    // sign and emit (a mutating controller thereby signs evidence of its
    // own corruption; see core/audit.hpp).
    audit_.append(msg.cause, update_signing_bytes(msg.update), config_.key);
    if (is_threshold_signed(config_.framework)) {
      if (frost) {
        // FROST round 1: attach a fresh one-time nonce commitment; the
        // actual partial is produced in round 2 (on_frost_session).
        msg.partial.signer = config_.share.index;
        msg.partial.payload = {0x01};
        if (frost_signer_) {
          msg.frost_commitment = frost_signer_->commit(*nonce_drbg_).to_bytes();
        }
      } else if (config_.real_crypto) {
        msg.partial = take_partial(partial, update_signing_bytes(msg.update));
      } else {
        msg.partial.signer = config_.share.index;
        msg.partial.payload = {0x00};  // placeholder (cost-only runs)
      }
    }
    if (config_.framework == FrameworkKind::kCiceroInNetwork) {
      const std::size_t rank = member_rank();
      if (!retransmit && rank >= config_.quorum) return;  // silent on the fast path
      ++updates_sent_;
      m_updates_sent_.inc();
      dispatch_innet(msg, uid, rank, retransmit);
      return;
    }
    ++updates_sent_;
    m_updates_sent_.inc();

    const auto sw_it = env_.switch_nodes->find(msg.update.switch_node);
    if (sw_it == env_.switch_nodes->end()) return;

    if (aggregates_at_controller(config_.framework) && !is_aggregator()) {
      // Route through the aggregator (Fig. 7c).  The partial-carrying hop
      // is part of the signing phase's control-plane traffic.
      send(lowest_member(config_.members).node, msg.encode(),
           retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kSign,
           /*southbound=*/false);
    } else if (aggregates_at_controller(config_.framework)) {
      on_peer_update(msg);  // we are the aggregator: count our own partial
    } else {
      if (!retransmit) milestone(Milestone::kSent, uid);
      send(sw_it->second, msg.encode(),
           retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kPropagate,
           /*southbound=*/true);
    }
  });
}

Controller::AheadPartial Controller::partial_sign_ahead(util::Bytes signing) const {
  return {submit(env_.sign_pool,
                 [share = config_.share, signing = std::move(signing)] {
                   return crypto::SimBlsScheme::instance().partial_sign(share, signing);
                 }),
          membership_phase_};
}

crypto::PartialSignature Controller::take_partial(AheadPartial& ahead,
                                                  const util::Bytes& signing) {
  // A membership change in between replaced the share: sign with the new one.
  if (ahead.phase != membership_phase_) {
    return crypto::SimBlsScheme::instance().partial_sign(config_.share, signing);
  }
  return ahead.sig.take();
}

void Controller::count_reject(const char* name) {
  // Registered on first use, so a run that rejects nothing reports no key.
  if (config_.obs != nullptr) config_.obs->metrics.counter(name).inc();
}

std::size_t Controller::member_rank() const {
  for (std::size_t i = 0; i < config_.members.size(); ++i) {
    if (config_.members[i].id == config_.id) return i;
  }
  return 0;
}

void Controller::dispatch_innet(const UpdateMsg& msg, sched::UpdateId uid, std::size_t rank,
                                bool retransmit) {
  if (config_.innet_aggregator == sim::kInvalidNode) return;
  util::Bytes wire;
  if (retransmit || rank == 0) {
    // Body supplier (or escalated retransmission): the full update, so
    // the aggregator has a bucket body to aggregate into even when every
    // optimistic share was lost or the original supplier lied.
    wire = msg.encode();
  } else {
    PartialShareMsg share;
    share.update_id = uid;
    share.digest = signing_digest64(update_signing_bytes(msg.update));
    share.partial = msg.partial;
    wire = share.encode();
  }
  // The partial-carrying hop to the aggregator switch is signing-phase
  // traffic (like kCiceroAgg's partial hop); the single fan-out send the
  // aggregator makes afterwards is the propagate phase.
  if (!retransmit) milestone(Milestone::kSent, uid);
  send(config_.innet_aggregator, wire,
       retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kSign, /*southbound=*/true);
}

// ---------------------------------------------------------------------------
// Decentralized execution (ez-Segway mode; DESIGN.md §15)
// ---------------------------------------------------------------------------

void Controller::dispatch_decentralized(const sched::UpdateSchedule& local) {
  if (fault_ == ControllerFault::kSilent) return;
  auto chain = std::make_shared<DecChain>();
  chain->plan = DecentralizedScheduler::plan(local, tracker_, *env_.switch_nodes);
  // Every segment leaves the controller immediately — there is no
  // controller-side dependency wait past this point, the switches
  // sequence the chain in-band.  Only the sinks are tracked for acks: a
  // sink ack covers its whole ancestor closure.
  for (const SegmentManifest& m : chain->plan.manifests) {
    m_deps_released_.inc();
    milestone(Milestone::kReleased, m.update.id);
  }
  for (const sched::UpdateId sink : chain->plan.sinks) {
    dec_chains_[sink] = chain;
    await_ack(sink);
  }
  for (const SegmentManifest& m : chain->plan.manifests) {
    send_manifest(m, /*retransmit=*/false);
  }
}

void Controller::send_manifest(const SegmentManifest& manifest, bool retransmit) {
  if (fault_ == ControllerFault::kSilent) return;

  ManifestMsg msg;
  msg.manifest = manifest;
  msg.cause = cause_of(manifest.update.id);
  msg.epoch = membership_phase_;
  if (fault_ == ControllerFault::kMutateUpdates || fault_ == ControllerFault::kRogueUpdates) {
    // Same corruption as dispatch_update: a loop-inducing next hop.  The
    // switch-local precondition and the quorum reject it.
    msg.manifest.update.rule.next_hop = manifest.update.switch_node;
  }

  const sched::UpdateId uid = manifest.update.id;
  util::Bytes signing = manifest_signing_bytes(msg.manifest, msg.epoch);
  AheadPartial partial;
  if (config_.real_crypto) partial = partial_sign_ahead(signing);
  cpu_.execute(config_.costs.partial_sign, "manifest.sign",
               [this, uid, retransmit, msg = std::move(msg), signing = std::move(signing),
                partial]() mutable {
    if (retransmit) milestone(Milestone::kResent, uid);
    // Decision audit trail, as for updates: the signed bytes pin the
    // segment's position in the chain, not just the rule.
    audit_.append(msg.cause, signing, config_.key);
    if (config_.real_crypto) {
      msg.partial = take_partial(partial, signing);
    } else {
      msg.partial.signer = config_.share.index;
      msg.partial.payload = {0x00};  // placeholder (cost-only runs)
    }
    ++manifests_sent_;
    m_manifests_sent_.inc();

    const auto sw_it = env_.switch_nodes->find(msg.manifest.update.switch_node);
    if (sw_it == env_.switch_nodes->end()) return;
    if (!retransmit) milestone(Milestone::kSent, uid);
    send(sw_it->second, msg.encode(),
         retransmit ? obs::CritPhase::kRetransmit : obs::CritPhase::kPropagate,
         /*southbound=*/true);
  });
}

// A sink acked: its whole ancestor closure is installed (the sink's local
// preconditions required every upstream SegmentDone, transitively).
// Complete the closure in the tracker, stamp the acked milestone on every
// segment (records stay complete, keeping the attribution floor intact)
// and close the lifecycle traces.
void Controller::on_ack_decentralized(const AckMsg& ack) {
  const auto ch = dec_chains_.find(ack.update_id);
  if (ch == dec_chains_.end()) return;  // duplicate sink ack, or not a sink
  const std::shared_ptr<DecChain> chain = ch->second;
  dec_chains_.erase(ch);

  const auto fl = inflight_.find(ack.update_id);
  if (fl != inflight_.end()) {
    // One histogram sample per chain sink: first manifest out -> sink ack
    // in, the decentralized analogue of the per-update ack round trip.
    if (config_.obs != nullptr) update_ack_ms_.observe(sim::to_ms(sim_.now() - fl->second.sent_at));
    disarm_ack_timer(ack.update_id);
  }
  for (const sched::UpdateId id : chain->plan.ancestors(ack.update_id)) {
    if (!chain->finalized.insert(id).second) continue;  // shared with another sink
    tracker_.complete(id);  // ready list unused: every segment already shipped
    milestone(id == ack.update_id ? Milestone::kAcked : Milestone::kChainAcked, id);
  }
}

// ---------------------------------------------------------------------------
// Acknowledgements -> dependency release
// ---------------------------------------------------------------------------

void Controller::on_ack(const AckMsg& ack, PoolFuture<bool>& sig_ok) {
  if (sig_ok.valid() && !sig_ok.take()) {
    count_reject("ctrl.rejected.ack_sig");
    CICERO_LOG_WARN(kLog, "c%u: ack with bad signature dropped", config_.id);
    return;
  }
  ++acks_received_;
  m_acks_.inc();
  if (config_.framework == FrameworkKind::kCiceroDecentralized) {
    on_ack_decentralized(ack);
    return;
  }
  const auto it = inflight_.find(ack.update_id);
  if (it != inflight_.end()) {
    if (config_.obs != nullptr) update_ack_ms_.observe(sim::to_ms(sim_.now() - it->second.sent_at));
    disarm_ack_timer(ack.update_id);  // cancels the pending retransmission wakeup
    milestone(Milestone::kAcked, ack.update_id);
  } else if (crit_leader()) {
    // A duplicate, or an ack that outran our own send: the profiler's
    // first-wins acked stamp only; the trace closes on the first ack.
    critpath()->update_acked(ack.update_id, sim_.now());
  }
  for (const sched::UpdateId id : tracker_.complete(ack.update_id)) {
    if (trace_leader()) {
      // Dependency-release edge: arrow from this ack to the dependent's
      // dispatch (closed in dispatch_update's sign callback).
      config_.obs->trace.flow_start(
          "dep", "d:" + std::to_string(ack.update_id) + ":" + std::to_string(id),
          "dep.release", config_.node, obs::kTidMain);
      pending_dep_flow_[id] = ack.update_id;
    }
    release_update(id);
  }
}

// ---------------------------------------------------------------------------
// Aggregator role (Fig. 7c)
// ---------------------------------------------------------------------------

void Controller::on_peer_update(const UpdateMsg& m) {
  if (!aggregates_at_controller(config_.framework) || !is_aggregator()) return;
  const sched::UpdateId id = m.update.id;
  // A partial for an update we already aggregated means the sender never
  // saw the ack: the aggregated update or the ack was lost downstream.
  // Replay the cached aggregate; the switch dedupes and re-acks.
  if (const util::Bytes* shipped = agg_shipped_.find(id)) {
    const auto sw_it = env_.switch_nodes->find(m.update.switch_node);
    if (sw_it != env_.switch_nodes->end()) {
      milestone(Milestone::kResent, id);
      send(sw_it->second, *shipped, obs::CritPhase::kRetransmit, /*southbound=*/true);
    }
    return;
  }
  if (m.partial.signer == 0) return;
  util::Bytes signing = update_signing_bytes(m.update);
  const crypto::Digest key = crypto::Sha256::hash(signing);
  Bucket<AggBody>* bucket = find_bucket(agg_pending_, id, key);
  if (bucket != nullptr && bucket->aggregating) return;
  AggBody body{AggUpdateMsg{m.update, m.cause, {}}, {}, {}, {}};

  if (config_.framework == FrameworkKind::kCiceroAggFrost) {
    if (bucket != nullptr && !bucket->body.frost_session.empty()) {
      // Retransmission while a signing session is in flight: the sender
      // missed the session message (or its partial was lost).  Re-send the
      // existing session — its stored nonce for the original commitment is
      // still valid — rather than corrupting the fixed signer set.
      const auto& session = bucket->body.frost_session;
      if (std::any_of(session.begin(), session.end(),
                      [&](const auto& c) { return c.signer == m.partial.signer; })) {
        send_session(id, session, m.partial.signer, obs::CritPhase::kRetransmit);
      }
      return;
    }
    std::optional<crypto::FrostCommitment> c =
        crypto::FrostCommitment{m.partial.signer, {}, {}};
    if (config_.real_crypto) c = crypto::FrostCommitment::from_bytes(m.frost_commitment);
    if (!c || c->signer != m.partial.signer) return;
    AggBody& p = open_bucket(agg_pending_, id, key, &body, std::move(signing)).bucket.body;
    p.frost_commitments[m.partial.signer] = *c;
    if (p.frost_commitments.size() < config_.quorum) return;
    // Round 2: the first `quorum` signers, by share index, form the session.
    for (const auto& [idx, commitment] : p.frost_commitments) {
      if (p.frost_session.size() == config_.quorum) break;
      p.frost_session.push_back(commitment);
    }
    for (const auto& member : p.frost_session) {
      send_session(id, p.frost_session, member.signer, obs::CritPhase::kSign);
    }
    return;
  }

  // Verify the partial against the signer's verification share so a bad
  // partial is attributed and excluded before it is counted.
  cpu_.execute(config_.costs.partial_verify, "partial.verify",
               [this, id, key, partial = m.partial, body = std::move(body),
                signing = std::move(signing)]() mutable {
    if (agg_shipped_.contains(id)) return;
    const Bucket<AggBody>* b = find_bucket(agg_pending_, id, key);
    if (b != nullptr && b->aggregating) return;
    if (config_.real_crypto) {
      const auto vs = config_.verification_shares.find(partial.signer);
      if (vs == config_.verification_shares.end() ||
          !crypto::SimBlsScheme::instance().verify_partial(vs->second, signing, partial)) {
        CICERO_LOG_WARN(kLog, "aggregator c%u: bad partial from share %u dropped", config_.id,
                        partial.signer);
        return;
      }
    }
    Bucket<AggBody>& filed =
        add_partial(agg_pending_, id, key, partial, &body, std::move(signing)).bucket;
    if (filed.partials.size() < config_.quorum) return;
    filed.aggregating = true;
    aggregate_and_ship(id, key);
  });
}

void Controller::aggregate_and_ship(sched::UpdateId id, const crypto::Digest& key) {
  const sim::SimTime cost =
      config_.costs.aggregate_per_share * static_cast<sim::SimTime>(config_.quorum);
  cpu_.execute(cost, "aggregate", [this, id, key] {
    Bucket<AggBody>* bucket = find_bucket(agg_pending_, id, key);
    if (bucket == nullptr) return;
    const bool frost = config_.framework == FrameworkKind::kCiceroAggFrost;
    std::optional<util::Bytes> sig;
    if (!config_.real_crypto) {
      sig = util::Bytes{static_cast<std::uint8_t>(frost ? 0x01 : 0x00)};  // placeholder
    } else if (frost) {
      const auto s = crypto::frost_aggregate(bucket->signing_bytes, bucket->body.frost_session,
                                             config_.group_pk, bucket->body.frost_partials);
      if (s) sig = s->to_bytes();
    } else {
      std::vector<crypto::PartialSignature> parts;
      for (const auto& [idx, part] : bucket->partials) parts.push_back(part);
      sig = crypto::SimBlsScheme::instance().aggregate(bucket->signing_bytes, parts,
                                                       config_.quorum);
    }
    if (!sig) return;
    // Ship, cache for replay and retire every bucket of the id.
    AggUpdateMsg& msg = bucket->body.msg;
    msg.agg_sig = std::move(*sig);
    const util::Bytes wire = msg.encode();
    agg_shipped_.put(id, wire);
    const auto sw_it = env_.switch_nodes->find(msg.update.switch_node);
    if (sw_it != env_.switch_nodes->end()) {
      milestone(Milestone::kSent, id);  // aggregator == crit/trace leader
      send(sw_it->second, wire, obs::CritPhase::kPropagate, /*southbound=*/true);
    }
    agg_pending_.erase(id);
  });
}

// ---------------------------------------------------------------------------
// FROST signing round (kCiceroAggFrost, aggregator-coordinated; §4.2 with a
// cryptographically real threshold scheme — costs one extra round trip)
// ---------------------------------------------------------------------------

void Controller::send_session(sched::UpdateId id,
                              const std::vector<crypto::FrostCommitment>& commitments,
                              crypto::ShareIndex signer, obs::CritPhase phase) {
  FrostSessionMsg session;
  session.update_id = id;
  for (const auto& c : commitments) session.commitments.push_back(c.to_bytes());
  // Locate the member owning this share index (share index = id + 1).
  for (const auto& m : config_.members) {
    if (m.id + 1 != signer) continue;
    if (m.id == config_.id) {
      on_frost_session(session);  // our own round-2 contribution
    } else {
      send(m.node, session.encode(), phase, /*southbound=*/false);
    }
  }
}

void Controller::on_frost_session(const FrostSessionMsg& m) {
  if (fault_ == ControllerFault::kSilent) return;
  if (!tracker_.knows(m.update_id)) return;
  const util::Bytes msg_bytes = update_signing_bytes(tracker_.update(m.update_id));

  FrostPartialMsg reply;
  reply.update_id = m.update_id;
  reply.signer_index = config_.share.index;
  if (config_.real_crypto && frost_signer_) {
    std::vector<crypto::FrostCommitment> session;
    for (const auto& cb : m.commitments) {
      const auto c = crypto::FrostCommitment::from_bytes(cb);
      if (!c) return;
      session.push_back(*c);
    }
    try {
      reply.z = frost_signer_->sign(msg_bytes, session).to_bytes();
      frost_sent_partials_.put(m.update_id, reply);
    } catch (const std::invalid_argument&) {
      // Nonce already consumed: we signed this session before and the
      // partial was lost in transit.  Replaying the identical z is safe
      // (same signature share, not a second nonce use); an unknown/stale
      // session has no cached partial and is dropped.
      const FrostPartialMsg* cached = frost_sent_partials_.find(m.update_id);
      if (cached == nullptr) return;
      reply = *cached;
    }
  } else {
    reply.z = {0x00};
  }
  cpu_.execute(config_.costs.partial_sign, "update.sign", [this, reply = std::move(reply)] {
    if (is_aggregator()) {
      on_frost_partial(reply);
    } else {
      send(lowest_member(config_.members).node, reply.encode(), obs::CritPhase::kSign,
           /*southbound=*/false);
    }
  });
}

void Controller::on_frost_partial(const FrostPartialMsg& m) {
  if (!is_aggregator()) return;
  const auto it = agg_pending_.find(m.update_id);
  if (it == agg_pending_.end()) return;
  // A FrostPartialMsg names no body: it belongs to the session that holds
  // its signer.  An honest signer committed in one bucket only.
  for (auto& [key, bucket] : it->second) {
    AggBody& p = bucket.body;
    if (bucket.aggregating ||
        std::none_of(p.frost_session.begin(), p.frost_session.end(),
                     [&](const auto& c) { return c.signer == m.signer_index; })) {
      continue;
    }
    crypto::Scalar z = crypto::Scalar::zero();
    if (config_.real_crypto) {
      const auto parsed = crypto::Scalar::from_bytes(m.z);
      if (!parsed) return;
      z = *parsed;
      const auto vs = config_.verification_shares.find(m.signer_index);
      if (vs == config_.verification_shares.end() ||
          !crypto::frost_verify_partial(bucket.signing_bytes, p.frost_session,
                                        config_.group_pk, m.signer_index, vs->second, z)) {
        CICERO_LOG_WARN(kLog, "aggregator c%u: bad FROST partial from %u", config_.id,
                        m.signer_index);
        continue;
      }
    }
    p.frost_partials[m.signer_index] = z;
    if (p.frost_partials.size() < p.frost_session.size()) return;
    bucket.aggregating = true;
    aggregate_and_ship(m.update_id, key);
    return;
  }
}

// ---------------------------------------------------------------------------
// Membership (§4.3)
// ---------------------------------------------------------------------------

void Controller::propose_membership(EventKind kind, std::uint32_t member) {
  Event e;
  e.id = EventId{kControllerOriginBase + config_.id, ++origin_seq_};
  e.kind = kind;
  e.member = member;
  if (config_.real_crypto) {
    e.sig = crypto::schnorr_sign(config_.key, e.body()).to_bytes();
  }
  events_submitted_.insert(e.id);
  replica_->submit(e.encode());
}

void Controller::finish_membership_change(std::uint64_t phase, Config new_group_config) {
  membership_phase_ = phase;
  config_ = std::move(new_group_config);
  rebuild_replica();
  membership_changing_ = false;
  auto queued = std::move(queued_events_);
  queued_events_.clear();
  for (const auto& e : queued) process_event(e);
}

void Controller::inject_rogue_update(net::NodeIndex switch_node, const sched::Update& update) {
  const auto sw_it = env_.switch_nodes->find(switch_node);
  if (sw_it == env_.switch_nodes->end()) return;
  UpdateMsg msg;
  msg.update = update;
  if (config_.real_crypto && is_threshold_signed(config_.framework)) {
    // The rogue controller signs with its own (single) share — deliberately
    // short of a quorum; switches must never apply this.
    msg.partial = crypto::SimBlsScheme::instance().partial_sign(
        config_.share, update_signing_bytes(msg.update));
  }
  // Outside any update's lifecycle: no critical-path phase.
  send(sw_it->second, msg.encode(), std::nullopt, /*southbound=*/true);
}

}  // namespace cicero::core
