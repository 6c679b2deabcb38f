#include "core/switch_runtime.hpp"

#include "crypto/frost.hpp"
#include "util/logging.hpp"

namespace cicero::core {

namespace {
constexpr const char* kLog = "switch";
}  // namespace

SwitchRuntime::SwitchRuntime(sim::Simulator& simulator, sim::NetworkSim& network, Config config)
    : sim_(simulator),
      net_(network),
      config_(std::move(config)),
      cpu_(simulator),
      applied_(config_.applied_dedupe_window),
      innet_completed_(config_.applied_dedupe_window) {
  if (config_.obs != nullptr) {
    cpu_.set_obs(config_.obs, config_.node, obs::kTidMain);
    auto& m = config_.obs->metrics;
    m_events_ = m.counter("switch.events_emitted");
    m_applied_ = m.counter("switch.updates_applied");
    m_rejected_ = m.counter("switch.updates_rejected");
    m_agg_fanouts_ = m.counter("switch.agg_fanouts");
    m_agg_mismatches_ = m.counter("switch.agg_mismatches");
    update_apply_ms_ = m.histogram("switch.update_apply_ms", obs::latency_buckets_ms());
  }
}

bool SwitchRuntime::tracing() const {
  return config_.obs != nullptr && config_.obs->trace.enabled();
}

obs::CritPath* SwitchRuntime::critpath() const {
  if (config_.obs != nullptr && config_.obs->critpath.enabled()) {
    return &config_.obs->critpath;
  }
  return nullptr;
}

bool SwitchRuntime::packet_in(const net::FlowMatch& match, double reserved_bps) {
  const auto key = std::make_pair(match.src_host, match.dst_host);
  if (down_) {
    // Traffic keeps arriving at a crashed switch; remember the miss so
    // recovery can re-request the route.
    missed_while_down_.emplace(key, reserved_bps);
    return false;
  }
  if (table_.has(match)) return true;
  if (outstanding_events_.count(key) != 0) return false;  // event already in flight
  outstanding_events_.insert(key);
  emit_flow_request(match, reserved_bps, config_.event_max_retries);
  return false;
}

void SwitchRuntime::emit_flow_request(const net::FlowMatch& match, double reserved_bps,
                                      std::uint32_t retries_left) {
  Event e;
  e.id = EventId{config_.topo_index, ++event_seq_};
  e.kind = EventKind::kFlowRequest;
  e.match = match;
  e.reserved_bps = reserved_bps;
  emit_event(std::move(e));
  if (retries_left == 0) {
    // Last attempt.  If it too goes unanswered, forget the outstanding
    // marker so a later packet miss can restart the request cycle —
    // leaving the key stuck would blackhole the flow permanently.
    sim_.after(config_.event_retry, [this, match] {
      if (table_.has(match)) return;
      outstanding_events_.erase({match.src_host, match.dst_host});
    });
    return;
  }
  // While the route stays missing, unroutable packets keep arriving and a
  // fresh event (new id) is emitted — the retransmission that rides out a
  // faulty aggregator or dropped messages.
  sim_.after(config_.event_retry, [this, match, reserved_bps, retries_left] {
    if (table_.has(match)) return;
    if (outstanding_events_.count({match.src_host, match.dst_host}) == 0) return;
    emit_flow_request(match, reserved_bps, retries_left - 1);
  });
}

void SwitchRuntime::crash() {
  if (down_) return;
  down_ = true;
  ++crashes_;
  CICERO_LOG_INFO(kLog, "s%u: crash (losing %zu rules)", config_.topo_index, table_.size());
  // Volatile state is gone: forwarding rules, partial-signature buffers,
  // dedup sets and in-flight event markers.  Losing applied_ is
  // deliberate — after recovery a retransmitted update is genuinely new
  // to this switch and re-applying it re-installs the lost rule.
  lost_rules_ = table_.rules();
  table_ = net::FlowTable{};
  pending_.clear();
  applied_.clear();
  outstanding_events_.clear();
  first_rx_.clear();
  missed_while_down_.clear();
  // Crash-during-handoff (decentralized): manifests received but not yet
  // applied die with the switch, and the controller's retransmissions may
  // exhaust before recovery.  Record each pending install as a missed
  // route so recover() re-requests it through the signed-event path — the
  // control plane then schedules a fresh chain instead of this switch
  // waiting forever for SegmentDones from an abandoned one.
  for (const auto& [id, am] : accepted_) {
    if (am.manifest.update.op != sched::UpdateOp::kInstall) continue;
    const auto& rule = am.manifest.update.rule;
    missed_while_down_.emplace(std::make_pair(rule.match.src_host, rule.match.dst_host),
                               rule.reserved_bps);
  }
  for (const auto& [id, buckets] : pending_manifests_) {
    for (const auto& [digest, bucket] : buckets) {
      if (bucket.body.update.op != sched::UpdateOp::kInstall) continue;
      const auto& rule = bucket.body.update.rule;
      missed_while_down_.emplace(std::make_pair(rule.match.src_host, rule.match.dst_host),
                                 rule.reserved_bps);
    }
  }
  pending_manifests_.clear();
  accepted_.clear();
  early_done_.clear();
  // Aggregator role (in-network mode): buffered replica traffic and the
  // fan-out cache die with the switch.  Liveness comes from the replicas'
  // ack timers — their retransmissions escalate to full bodies and are
  // routed to the domain's re-designated aggregator by the Deployment.
  innet_pending_.clear();
  innet_completed_.clear();
}

void SwitchRuntime::recover() {
  if (!down_) return;
  down_ = false;
  // Re-request a route for every rule lost in the crash and every packet
  // miss swallowed while down, through the normal signed-event path.
  std::map<std::pair<net::NodeIndex, net::NodeIndex>, double> wanted;
  for (const net::FlowRule& rule : lost_rules_) {
    wanted.emplace(std::make_pair(rule.match.src_host, rule.match.dst_host),
                   rule.reserved_bps);
  }
  wanted.insert(missed_while_down_.begin(), missed_while_down_.end());
  lost_rules_.clear();
  missed_while_down_.clear();
  CICERO_LOG_INFO(kLog, "s%u: recover (re-requesting %zu routes)", config_.topo_index,
                  wanted.size());
  for (const auto& [key, bps] : wanted) {
    if (outstanding_events_.count(key) != 0) continue;
    outstanding_events_.insert(key);
    emit_flow_request(net::FlowMatch{key.first, key.second}, bps,
                      config_.event_max_retries);
  }
}

void SwitchRuntime::request_teardown(const net::FlowMatch& match) {
  if (down_) return;
  Event e;
  e.id = EventId{config_.topo_index, ++event_seq_};
  e.kind = EventKind::kFlowTeardown;
  e.match = match;
  emit_event(std::move(e));
}

void SwitchRuntime::report_link_failure(net::NodeIndex neighbor) {
  if (down_) return;
  for (const net::FlowRule& rule : table_.rules()) {
    if (rule.next_hop != neighbor) continue;
    Event e;
    e.id = EventId{config_.topo_index, ++event_seq_};
    e.kind = EventKind::kFlowRequest;  // re-route request for this flow
    e.match = rule.match;
    e.reserved_bps = rule.reserved_bps;
    emit_event(std::move(e));
  }
}

PoolFuture<util::Bytes> SwitchRuntime::sign_ahead(util::Bytes body) const {
  return submit(config_.pool, [key = config_.key, body = std::move(body)] {
    return crypto::schnorr_sign(key, body).to_bytes();
  });
}

void SwitchRuntime::emit_event(Event e) {
  ++events_emitted_;
  m_events_.inc();
  PoolFuture<util::Bytes> sig;
  if (config_.real_crypto) sig = sign_ahead(e.body());
  // Miss detection + event signing cost, then transmit (Fig. 6a).
  cpu_.execute(config_.costs.packet_in_cost + config_.costs.event_sign,
               "packet_in.sign", [this, e = std::move(e), sig]() mutable {
                 if (sig.valid()) e.sig = sig.take();
                 const util::Bytes wire = e.encode();
                 if (aggregates_at_controller(config_.framework) &&
                     config_.aggregator != sim::kInvalidNode) {
                   net_.send(config_.node, config_.aggregator, wire);
                 } else {
                   net_.multicast(config_.node, config_.controllers, wire);
                 }
               });
}

void SwitchRuntime::handle_message(sim::NodeId from, const util::Bytes& wire) {
  if (down_) return;  // a crashed switch drops all traffic
  const auto tag = peek_tag(wire);
  if (!tag) return;
  switch (static_cast<CoreMsgTag>(*tag)) {
    case CoreMsgTag::kUpdate: {
      if (auto m = UpdateMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                     [this, from, m = std::move(*m)] { on_update(from, m); });
      }
      break;
    }
    case CoreMsgTag::kAggUpdate: {
      if (auto m = AggUpdateMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                     [this, from, m = std::move(*m)] { on_agg_update(from, m); });
      }
      break;
    }
    case CoreMsgTag::kPartialShare: {
      if (auto m = PartialShareMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle", [this, from,
                                                                     m = std::move(*m)] {
          if (down_ || config_.framework != FrameworkKind::kCiceroInNetwork) return;
          on_innet_partial(from, m.update_id, m.partial, nullptr, m.digest);
        });
      }
      break;
    }
    case CoreMsgTag::kAggregatorNotify: {
      if (auto m = AggregatorNotifyMsg::decode(wire)) on_aggregator_notify(*m);
      break;
    }
    case CoreMsgTag::kManifest: {
      if (auto m = ManifestMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                     [this, from, m = std::move(*m)] { on_manifest(from, m); });
      }
      break;
    }
    case CoreMsgTag::kSegmentDone: {
      if (auto m = SegmentDoneMsg::decode(wire)) {
        cpu_.execute(config_.costs.ctrl_msg_handling, "msg.handle",
                     [this, m = std::move(*m)] { on_segment_done(m); });
      }
      break;
    }
    default:
      CICERO_LOG_DEBUG(kLog, "s%u: unexpected tag 0x%02x", config_.topo_index, *tag);
      break;
  }
}

void SwitchRuntime::on_aggregator_notify(const AggregatorNotifyMsg& m) {
  config_.aggregator = m.aggregator;
  config_.quorum = m.quorum;
  if (!m.controllers.empty()) config_.controllers = m.controllers;
}

void SwitchRuntime::on_update(sim::NodeId from, const UpdateMsg& m) {
  if (down_) return;
  if (config_.framework == FrameworkKind::kCiceroInNetwork) {
    // In-network mode the replicas only ever address the designated
    // aggregator, so every body copy arriving here is aggregation input.
    on_innet_partial(from, m.update.id, m.partial, &m, 0);
    return;
  }
  const sched::UpdateId id = m.update.id;
  if (applied_.contains(id)) {
    // Duplicate of an applied update: the sender retransmitted because it
    // never saw our ack (or its partial arrived after the quorum closed).
    // Re-ack to the sender only instead of re-applying (idempotence).
    send_ack(id, /*reissue=*/true, from);
    return;
  }
  milestone(Milestone::kRx, id);

  if (!is_threshold_signed(config_.framework)) {
    // No quorum authentication: the first copy of the update is applied
    // as-is.  (This is the attack surface the Byzantine tests exploit.)
    applied_.put(id, DecApplied{});
    apply_update(m.update);
    return;
  }

  // Cicero switch aggregation (Fig. 6b): buffer identical updates until a
  // quorum of distinct signers accumulated, bucketed by update body.
  if (m.partial.signer == 0) return;  // Cicero updates must carry a partial
  util::Bytes signing_bytes = update_signing_bytes(m.update);
  const crypto::Digest key = crypto::Sha256::hash(signing_bytes);
  add_partial(pending_, id, key, m.partial, &m.update, std::move(signing_bytes));
  try_aggregate(pending_, id, key, [this](const sched::Update& update, const util::Bytes&) {
    applied_.put(update.id, DecApplied{});
    apply_update(update);
  });
}

template <class Key, class Body, class Done>
void SwitchRuntime::try_aggregate(Buckets<Key, Body>& pending, sched::UpdateId id,
                                  const Key& key, Done done) {
  Bucket<Body>* bucket = find_bucket(pending, id, key);
  if (bucket == nullptr || bucket->aggregating || bucket->signing_bytes.empty() ||
      bucket->partials.size() < config_.quorum) {
    return;
  }
  bucket->aggregating = true;

  // Charge aggregation (per-share Lagrange work) + threshold verification.
  const sim::SimTime cost =
      config_.costs.aggregate_per_share * static_cast<sim::SimTime>(config_.quorum) +
      config_.costs.threshold_verify;
  cpu_.execute(cost, "aggregate", [this, &pending, id, key, done = std::move(done)] {
    if (down_) return;
    Bucket<Body>* b = find_bucket(pending, id, key);
    if (b == nullptr) return;
    b->aggregating = false;
    if (settled(id)) return;

    std::optional<util::Bytes> sig;
    if (!config_.real_crypto) {
      sig = util::Bytes{0x00};  // cost-model placeholder
    } else {
      // Try quorum-sized subsets, excluding at most one suspect at a time:
      // with up to f bad partials among >= 2f+1 received this terminates
      // with a valid aggregate once enough honest partials arrive.
      const auto& scheme = crypto::SimBlsScheme::instance();
      std::vector<crypto::PartialSignature> all;
      all.reserve(b->partials.size());
      for (const auto& [idx, part] : b->partials) all.push_back(part);
      for (std::size_t skip = 0; skip <= all.size() && !sig; ++skip) {
        std::vector<crypto::PartialSignature> subset;
        for (std::size_t i = 0; i < all.size(); ++i) {
          if (skip != 0 && i == skip - 1) continue;  // skip==0: no exclusion
          subset.push_back(all[i]);
        }
        if (subset.size() < config_.quorum) continue;
        auto agg = scheme.aggregate(b->signing_bytes, subset, config_.quorum);
        if (agg && scheme.verify(config_.group_pk, b->signing_bytes, *agg)) sig = std::move(agg);
      }
    }
    if (!sig) {
      // Wait for more partials; a later arrival retries.
      ++updates_rejected_;
      m_rejected_.inc();
      CICERO_LOG_WARN(kLog, "s%u: aggregate verification failed for update %llu",
                      config_.topo_index, static_cast<unsigned long long>(id));
      return;
    }
    const Body body = std::move(b->body);
    pending.erase(id);
    done(body, std::move(*sig));
  });
}

bool SwitchRuntime::settled(sched::UpdateId id) const {
  return applied_.contains(id) || accepted_.count(id) != 0 ||
         innet_completed_.contains(id);
}

// ---------------------------------------------------------------------------
// In-network aggregation (P4BFT-style offload; DESIGN.md §16)
// ---------------------------------------------------------------------------

bool SwitchRuntime::replay_innet(sched::UpdateId id, sim::NodeId from) {
  const InnetCompleted* done = innet_completed_.find(id);
  if (done == nullptr) return false;
  // The replica retransmitted because it never saw the target's ack —
  // resend the cached fan-out; the target's own dedupe then re-acks the
  // whole control plane.  A self-targeted update has no hop to replay:
  // this switch applied it at fan-out, so it re-acks the replica itself.
  // Without a directory there is nowhere to send.
  if (done->target_topo == config_.topo_index) {
    send_ack(id, /*reissue=*/true, from);
    return true;
  }
  if (done->target_node == sim::kInvalidNode) return true;
  ++agg_replays_;
  send(done->target_node, done->wire, obs::CritPhase::kRetransmit);
  return true;
}

void SwitchRuntime::on_innet_partial(sim::NodeId from, sched::UpdateId id,
                                     const crypto::PartialSignature& partial,
                                     const UpdateMsg* body, std::uint64_t share_digest) {
  if (replay_innet(id, from)) return;
  if (applied_.contains(id)) {
    // Self-targeted update already applied (and evicted from the fan-out
    // cache, or applied via an escalated duplicate): plain re-ack.
    send_ack(id, /*reissue=*/true, from);
    return;
  }
  if (partial.signer == 0) return;  // in-network traffic must carry a partial
  std::uint64_t digest = share_digest;
  util::Bytes signing_bytes;
  AggUpdateMsg out;
  if (body != nullptr) {
    signing_bytes = update_signing_bytes(body->update);
    digest = signing_digest64(signing_bytes);
    out = AggUpdateMsg{body->update, body->cause, {}};
  }
  if (add_partial(innet_pending_, id, digest, partial, body != nullptr ? &out : nullptr,
                  std::move(signing_bytes))
          .conflict) {
    report_innet_mismatch(id);
  }
  try_aggregate(innet_pending_, id, digest, [this](AggUpdateMsg agg, util::Bytes sig) {
    agg.agg_sig = std::move(sig);
    fan_out(std::move(agg));
  });
}

void SwitchRuntime::report_innet_mismatch(sched::UpdateId id) {
  ++agg_mismatches_;
  m_agg_mismatches_.inc();
  // P4BFT-style response comparison: conflicting digests mean at least one
  // replica lied about this update.  Report through the signed-event path
  // so the control plane sees an authenticated, attributable alarm; the
  // honest quorum's bucket still aggregates on its own.
  Event e;
  e.id = EventId{config_.topo_index, ++event_seq_};
  e.kind = EventKind::kAggMismatch;
  for (const auto& [digest, bucket] : innet_pending_.at(id)) {
    if (bucket.signing_bytes.empty()) continue;
    e.match = bucket.body.update.rule.match;
    break;
  }
  emit_event(std::move(e));
}

void SwitchRuntime::fan_out(AggUpdateMsg out) {
  const sched::UpdateId id = out.update.id;
  const util::Bytes wire = out.encode();
  // Cache the fan-out for idempotent replay; bounded like the apply-side
  // dedupe window (retransmission windows are short).
  const auto dir = config_.switch_directory;
  const sim::NodeId target =
      dir != nullptr && dir->count(out.update.switch_node) != 0
          ? dir->at(out.update.switch_node)
          : sim::kInvalidNode;
  innet_completed_.put(id, InnetCompleted{wire, out.update.switch_node, target});

  ++agg_fanouts_;
  m_agg_fanouts_.inc();
  // The aggregate signature is born here, so the sign->propagate boundary
  // of the update's critical path is stamped at this switch (the replicas
  // deliberately do not stamp it in in-network mode).  The fan-out counts
  // as propagate traffic even when no hop follows.
  milestone(Milestone::kAggregated, id);
  if (obs::CritPath* cp = critpath()) {
    cp->add_phase_bytes(obs::CritPhase::kPropagate, wire.size());
  }
  if (out.update.switch_node == config_.topo_index) {
    // The aggregator is itself the target: skip the network hop (and
    // re-verifying a signature this switch just produced).
    applied_.put(id, DecApplied{});
    apply_update(out.update);
    return;
  }
  if (target == sim::kInvalidNode) return;  // no directory: nothing to fan out to
  net_.send(config_.node, target, wire);
}

void SwitchRuntime::on_agg_update(sim::NodeId from, const AggUpdateMsg& m) {
  if (down_) return;
  if (applied_.contains(m.update.id)) {
    // The aggregator forwards retransmissions on behalf of whichever
    // controller is still missing the ack, so the re-ack goes to the
    // whole control plane rather than just the aggregator.
    (void)from;
    send_ack(m.update.id, /*reissue=*/true);
    return;
  }
  milestone(Milestone::kRx, m.update.id);
  PoolFuture<bool> sig_ok;
  if (config_.real_crypto) {
    sig_ok = submit(config_.pool, [frost = config_.framework == FrameworkKind::kCiceroAggFrost,
                                   pk = config_.group_pk, signing = update_signing_bytes(m.update),
                                   agg_sig = m.agg_sig] {
      if (!frost) return crypto::SimBlsScheme::instance().verify(pk, signing, agg_sig);
      const auto sig = crypto::FrostSignature::from_bytes(agg_sig);
      return sig && crypto::frost_verify(pk, signing, *sig);
    });
  }
  cpu_.execute(config_.costs.threshold_verify, "threshold.verify", [this, m, sig_ok]() mutable {
    if (down_) return;
    if (applied_.contains(m.update.id)) return;
    if (sig_ok.valid() && !sig_ok.take()) {
      ++updates_rejected_;
      m_rejected_.inc();
      CICERO_LOG_WARN(kLog, "s%u: bad aggregated signature for update %llu",
                      config_.topo_index, static_cast<unsigned long long>(m.update.id));
      return;
    }
    applied_.put(m.update.id, DecApplied{});
    apply_update(m.update);
  });
}

// ---------------------------------------------------------------------------
// Decentralized execution (ez-Segway mode; DESIGN.md §15)
// ---------------------------------------------------------------------------

void SwitchRuntime::on_manifest(sim::NodeId from, const ManifestMsg& m) {
  if (down_) return;
  if (m.epoch < phase_) return;  // stale control-plane epoch
  phase_ = m.epoch;
  const sched::UpdateId id = m.manifest.update.id;
  if (const DecApplied* dec = applied_.find(id)) {
    // Duplicate of an applied segment: the controller retransmitted
    // because the chain's sink never acked.  Idempotent recovery —
    // re-signal our successors (the likely lost messages) and, if we are
    // the sink, re-ack the sender.
    signal_successors(id, dec->succs, /*resignal=*/true);
    if (dec->sink) send_ack(id, /*reissue=*/true, from);
    return;
  }
  milestone(Milestone::kRx, id);

  // Identical-manifest counting, bucketed by the signed bytes (which pin
  // the segment's position in the chain, not just the rule).
  if (m.partial.signer == 0) return;  // manifests must carry a partial
  util::Bytes signing_bytes = manifest_signing_bytes(m.manifest, m.epoch);
  const crypto::Digest key = crypto::Sha256::hash(signing_bytes);
  add_partial(pending_manifests_, id, key, m.partial, &m.manifest, std::move(signing_bytes));
  try_aggregate(pending_manifests_, id, key,
                [this](const SegmentManifest& manifest, const util::Bytes&) {
                  accept_manifest(manifest);
                });
}

void SwitchRuntime::accept_manifest(const SegmentManifest& manifest) {
  const sched::UpdateId id = manifest.update.id;
  // Switch-local precondition (the decentralized analogue of the
  // controller-side consistency proof): an install whose next hop is this
  // switch itself would forward traffic into a one-hop loop.  A quorum of
  // honest controllers never produces one, so this is defence in depth
  // against a corrupted manifest that somehow gathered a quorum.
  if (manifest.update.op == sched::UpdateOp::kInstall &&
      manifest.update.rule.next_hop == config_.topo_index) {
    ++updates_rejected_;
    m_rejected_.inc();
    CICERO_LOG_WARN(kLog, "s%u: rejecting manifest %llu (self-loop next hop)",
                    config_.topo_index, static_cast<unsigned long long>(id));
    return;
  }
  AcceptedManifest& am = accepted_[id];
  am.manifest = manifest;
  const auto early = early_done_.find(id);
  if (early != early_done_.end()) {
    am.done_preds.insert(early->second.begin(), early->second.end());
    early_done_.erase(early);
  }
  maybe_apply_manifest(id);
}

void SwitchRuntime::maybe_apply_manifest(sched::UpdateId id) {
  const auto it = accepted_.find(id);
  if (it == accepted_.end()) return;
  for (const SegmentPeer& p : it->second.manifest.preds) {
    if (it->second.done_preds.count(p.update_id) == 0) return;
  }
  const SegmentManifest manifest = std::move(it->second.manifest);
  accepted_.erase(it);
  applied_.put(id, DecApplied{manifest.succs, manifest.sink});
  milestone(Milestone::kPeerReady, id);
  apply_update(manifest.update);
}

void SwitchRuntime::on_segment_done(const SegmentDoneMsg& d) {
  if (down_) return;
  if (d.epoch < phase_) return;  // stale epoch
  phase_ = d.epoch;
  ++peer_signals_received_;
  const bool verify =
      is_threshold_signed(config_.framework) && config_.real_crypto && config_.pki != nullptr;
  const sim::SimTime cost = verify ? config_.costs.ack_verify : sim::SimTime{0};
  PoolFuture<bool> sig_ok;
  if (verify) sig_ok = submit(config_.pool, config_.pki->segment_done_check(d));
  cpu_.execute(cost, "segdone.verify", [this, sig_ok, d]() mutable {
    if (down_) return;
    if (sig_ok.valid() && !sig_ok.take()) {
      ++updates_rejected_;
      m_rejected_.inc();
      CICERO_LOG_WARN(kLog, "s%u: bad SegmentDone signature from s%u", config_.topo_index,
                      d.switch_node);
      return;
    }
    if (applied_.contains(d.for_update)) return;  // already applied
    const auto it = accepted_.find(d.for_update);
    if (it != accepted_.end()) {
      it->second.done_preds.insert(d.done_update);
      maybe_apply_manifest(d.for_update);
      return;
    }
    // Signal raced ahead of the manifest (or its quorum); park it.  The
    // bound keeps abandoned chains from pinning memory.
    early_done_[d.for_update].insert(d.done_update);
    while (early_done_.size() > config_.applied_dedupe_window) {
      early_done_.erase(early_done_.begin());
    }
  });
}

void SwitchRuntime::signal_successors(sched::UpdateId id,
                                      const std::vector<SegmentPeer>& succs, bool resignal) {
  for (const SegmentPeer& succ : succs) {
    if (succ.node == sim::kInvalidNode) continue;
    SegmentDoneMsg done;
    done.for_update = succ.update_id;
    done.done_update = id;
    done.switch_node = config_.topo_index;
    done.epoch = phase_;
    const bool sign = is_threshold_signed(config_.framework);
    PoolFuture<util::Bytes> sig;
    if (sign && config_.real_crypto) sig = sign_ahead(done.body());
    const sim::SimTime cost = sign ? config_.costs.ack_sign : sim::SimTime{0};
    const sim::NodeId to = succ.node;
    cpu_.execute(cost, "segdone.sign", [this, to, resignal, done = std::move(done),
                                        sig]() mutable {
      // Signed when queued, so the op counts even if the switch crashed since.
      if (sig.valid()) done.sig = sig.take();
      if (down_) return;
      ++peer_signals_sent_;
      send(to, done.encode(),
           resignal ? obs::CritPhase::kRetransmit : obs::CritPhase::kPeerSignal);
    });
  }
}

void SwitchRuntime::apply_update(const sched::Update& update) {
  milestone(Milestone::kApplying, update.id);
  cpu_.execute(config_.costs.flow_table_update, "flow_table.update", [this, update] {
    if (down_) return;
    if (update.op == sched::UpdateOp::kInstall) {
      table_.install(update.rule);
      outstanding_events_.erase({update.rule.match.src_host, update.rule.match.dst_host});
    } else {
      table_.remove(update.rule.match);
    }
    ++updates_applied_;
    m_applied_.inc();
    milestone(Milestone::kApplied, update.id);
    for (const auto& observer : observers_) observer(update);
    // Decentralized: done signals flow in-band to the downstream peers;
    // only the chain sink acks the control plane (for its whole chain).
    // An id evicted from the window since it was queued acks as a sink.
    const DecApplied* dec = applied_.find(update.id);
    if (dec != nullptr) signal_successors(update.id, dec->succs, /*resignal=*/false);
    if (dec == nullptr || dec->sink) send_ack(update.id, /*reissue=*/false);
  });
}

void SwitchRuntime::send_ack(sched::UpdateId id, bool reissue, sim::NodeId to) {
  if (reissue) ++acks_reissued_;
  AckMsg ack;
  ack.update_id = id;
  ack.switch_node = config_.topo_index;
  const bool sign = is_threshold_signed(config_.framework);
  PoolFuture<util::Bytes> sig;
  if (sign && config_.real_crypto) sig = sign_ahead(ack.body());
  const sim::SimTime cost = sign ? config_.costs.ack_sign : sim::SimTime{0};
  cpu_.execute(cost, "ack.sign", [this, reissue, to, ack = std::move(ack), sig]() mutable {
    // Signed when queued, so the op counts even if the switch crashed since.
    if (sig.valid()) ack.sig = sig.take();
    if (down_) return;
    send(to, ack.encode(), reissue ? obs::CritPhase::kRetransmit : obs::CritPhase::kPropagate);
  });
}

void SwitchRuntime::send(sim::NodeId to, const util::Bytes& wire, obs::CritPhase phase) {
  const bool multicast = to == sim::kInvalidNode;
  if (obs::CritPath* cp = critpath()) {
    cp->add_phase_bytes(phase, wire.size() * (multicast ? config_.controllers.size() : 1));
  }
  if (multicast) {
    net_.multicast(config_.node, config_.controllers, wire);
  } else {
    net_.send(config_.node, to, wire);
  }
}

void SwitchRuntime::milestone(Milestone m, sched::UpdateId id) {
  const sim::SimTime now = sim_.now();
  obs::CritPath* cp = critpath();
  obs::Tracer* trace = tracing() ? &config_.obs->trace : nullptr;
  const auto flow_step = [&](const char* name) {
    if (trace != nullptr) {
      trace->flow_step("flow", obs::flow_track_id(id), name, config_.node, obs::kTidMain);
    }
  };
  switch (m) {
    case Milestone::kRx:
      if (config_.obs != nullptr) first_rx_.emplace(id, now);
      if (cp != nullptr) cp->update_rx(id, now);
      flow_step("update.rx");
      break;
    case Milestone::kAggregated:
      if (cp != nullptr) cp->update_signed(id, now);
      flow_step("update.agg_fanout");
      break;
    case Milestone::kPeerReady:
      if (cp != nullptr) cp->update_peer_ready(id, now);
      break;
    case Milestone::kApplying:
      if (trace != nullptr) {
        trace->async_begin("update", obs::update_track_id(config_.domain, id), "apply",
                           config_.node, obs::kTidMain);
      }
      break;
    case Milestone::kApplied: {
      const auto rx = first_rx_.find(id);
      if (rx != first_rx_.end()) {
        update_apply_ms_.observe(sim::to_ms(now - rx->second));
        first_rx_.erase(rx);
      }
      if (cp != nullptr) cp->update_applied(id, now);
      if (trace != nullptr) {
        trace->async_end("update", obs::update_track_id(config_.domain, id), "apply",
                         config_.node, obs::kTidMain);
      }
      flow_step("update.applied");
      break;
    }
  }
}

}  // namespace cicero::core
