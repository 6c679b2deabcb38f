// perfbench_bin: one repetition of one benchmark workload.
//
//   perfbench_bin --workload NAME --seed N [--trace 0|1] [--threads T]
//                 [--trace-out FILE]
//   perfbench_bin --self-test
//
// Builds the workload's deployment (timed: setup), injects the seeded
// flows and runs to the horizon (timed: run), checks the outputs, and
// prints one JSON object on stdout.  With --trace 1 it also wraps every
// node's network handler in a host-time span, times the crypto, routing
// and scheduling primitives at the workload's parameters, derives each
// layer's share of the run, and writes the spans as Chrome trace JSON.
// perfbench/run.py drives this binary; NOTES.md defines every field.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/messages.hpp"
#include "crypto/dkg.hpp"
#include "crypto/fp.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/simbls.hpp"
#include "net/checker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace cicero;
using perfbench::now_ns;
using perfbench::Span;
using perfbench::SpanRecorder;

// ---------------------------------------------------------------------------
// Output

/// Flat JSON object writer; doubles keep all their digits.
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void num(const std::string& key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    raw(key, quoted + "\"");
  }
  void raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_.append("\"").append(key).append("\":").append(v);
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<double>& xs) {
  std::string s = "[";
  char buf[64];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", xs[i]);
    s += buf;
  }
  return s + "]";
}

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

constexpr int kSetups = 3;  ///< deployments built per repetition

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// ---------------------------------------------------------------------------
// Crypto op counts (obs::crypto_ops is process-wide)

constexpr std::size_t kOps = 9;
constexpr std::array<const char*, kOps> kOpNames = {
    "sign",      "verify",     "partial_sign",    "partial_verify", "aggregate",
    "threshold_verify", "frost_sign", "frost_aggregate", "frost_verify"};
using OpCounts = std::array<std::uint64_t, kOps>;

OpCounts crypto_snapshot() {
  const obs::CryptoOpCounters& c = obs::crypto_ops();
  return {c.schnorr_sign.load(),   c.schnorr_verify.load(),  c.partial_sign.load(),
          c.partial_verify.load(), c.aggregate.load(),       c.threshold_verify.load(),
          c.frost_sign.load(),     c.frost_aggregate.load(), c.frost_verify.load()};
}

OpCounts minus(const OpCounts& a, const OpCounts& b) {
  OpCounts d{};
  for (std::size_t i = 0; i < kOps; ++i) d[i] = a[i] - b[i];
  return d;
}

// ---------------------------------------------------------------------------
// Ingress spans: every node's network handler, re-installed through
// NetworkSim::set_handler so each Controller/SwitchRuntime::handle_message
// call (decode plus dispatch) runs inside a span.

enum IngressKind : std::size_t { kCtrl = 0, kBft = 1, kSwitch = 2, kIngressKinds = 3 };
constexpr std::array<const char*, kIngressKinds> kIngressNames = {"ingress.ctrl", "ingress.bft",
                                                                  "ingress.switch"};

struct IngressTap {
  SpanRecorder* rec = nullptr;
  std::uint32_t run_span = 0;
  std::array<std::uint16_t, kIngressKinds> names{};
  /// Crypto ops made inside handler calls.  Measured only on the
  /// sequential engine: the counters are process-wide, so with worker
  /// threads a delta would include other threads' operations.
  bool count_crypto = false;
  std::array<OpCounts, kIngressKinds> crypto{};

  template <typename Fn>
  void call(IngressKind kind, sim::NodeId node, const util::Bytes& wire, Fn&& handle) {
    OpCounts before{};
    if (count_crypto) before = crypto_snapshot();
    Span s;
    s.start_ns = now_ns();
    handle();
    s.end_ns = now_ns();
    if (count_crypto) {
      const OpCounts d = minus(crypto_snapshot(), before);
      for (std::size_t i = 0; i < kOps; ++i) crypto[kind][i] += d[i];
    }
    s.parent = run_span;
    s.name = names[kind];
    s.node = node;
    s.tag = wire.empty() ? 0 : wire[0];
    s.bytes = static_cast<std::uint32_t>(wire.size());
    rec->record(s);
  }
};

void install_tap(core::Deployment& dep, IngressTap& tap) {
  for (std::size_t k = 0; k < kIngressKinds; ++k) {
    tap.names[k] = tap.rec->intern(kIngressNames[k]);
  }
  for (const net::NodeIndex sw : dep.topology().switches()) {
    core::SwitchRuntime* rt = &dep.switch_at(sw);
    const sim::NodeId node = rt->config().node;
    dep.network().set_handler(node, [&tap, rt, node](sim::NodeId from, const util::Bytes& wire) {
      tap.call(kSwitch, node, wire, [&] { rt->handle_message(from, wire); });
    });
  }
  for (const std::uint32_t id : dep.controller_ids()) {
    core::Controller* c = &dep.controller(id);
    const sim::NodeId node = c->node();
    dep.network().set_handler(node, [&tap, c, node](sim::NodeId from, const util::Bytes& wire) {
      const IngressKind kind = !wire.empty() && wire[0] == bft::kBftWireTag ? kBft : kCtrl;
      tap.call(kind, node, wire, [&] { c->handle_message(from, wire); });
    });
  }
}

/// Per-wire-tag message, byte and busy-time totals over ingress spans.
struct TagTotals {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double busy_s = 0.0;
};

std::string tag_name(std::uint8_t tag) {
  switch (tag) {
    case static_cast<std::uint8_t>(core::CoreMsgTag::kEvent): return "event";
    case static_cast<std::uint8_t>(core::CoreMsgTag::kUpdate): return "update";
    case static_cast<std::uint8_t>(core::CoreMsgTag::kAck): return "ack";
    case bft::kBftWireTag: return "bft";
    default: return "other";
  }
}

// ---------------------------------------------------------------------------
// Calibration: per-call host cost of the public primitives.

/// Median per-call nanoseconds of `fn` over batches of `batch` calls,
/// repeated until `budget_ms` of work has been timed (at least 5 batches).
template <typename Fn>
double time_per_call_ns(SpanRecorder& rec, std::uint32_t parent, const std::string& name,
                        std::size_t batch, double budget_ms, Fn&& fn) {
  const std::uint32_t span = rec.begin("calib." + name, parent);
  std::vector<double> per_call;
  const std::uint64_t t_start = now_ns();
  while (per_call.size() < 5 || static_cast<double>(now_ns() - t_start) < budget_ms * 1e6) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(batch));
  }
  rec.end(span);
  const auto mid = per_call.begin() + static_cast<std::ptrdiff_t>(per_call.size() / 2);
  std::nth_element(per_call.begin(), mid, per_call.end());
  return *mid;
}

struct Calibration {
  std::array<double, kOps> op_us{};  ///< 0 for ops not calibrated (FROST)
  double field_mul_ns = 0.0;
  double shortest_path_us = 0.0;
  double sched_build_us = 0.0;
};

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

Calibration calibrate(SpanRecorder& rec, const net::Topology& topo,
                      const std::vector<workload::Flow>& flows, std::size_t n) {
  const std::uint32_t root = rec.begin("calibrate", 0);
  Calibration cal;
  crypto::Drbg drbg(20201207);
  const util::Bytes msg(96, 0x5a);  // the size of a signed update body

  // One Montgomery multiply in the secp256k1 base field, operands already
  // in Montgomery form: the multiply the point operations spend their time in.
  const crypto::MontgomeryCtx fp(crypto::U256::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
  crypto::U256 acc = fp.to_mont(fp.reduce(drbg.next_scalar().raw()));
  const crypto::U256 mul_by = fp.to_mont(fp.reduce(drbg.next_scalar().raw()));
  cal.field_mul_ns = time_per_call_ns(rec, root, "field_mul", 20000, 40.0, [&](std::size_t) {
    acc = fp.mul(acc, mul_by);
  });
  g_sink = g_sink + acc.w[0];

  const crypto::SchnorrKeyPair kp = crypto::SchnorrKeyPair::generate(drbg);
  const crypto::SchnorrSignature sig = crypto::schnorr_sign(kp, msg);
  cal.op_us[0] = 1e-3 * time_per_call_ns(rec, root, "sign", 4, 60.0, [&](std::size_t) {
    g_sink = g_sink + crypto::schnorr_sign(kp, msg).s.to_bytes()[31];
  });
  cal.op_us[1] = 1e-3 * time_per_call_ns(rec, root, "verify", 4, 60.0, [&](std::size_t) {
    g_sink = g_sink + (crypto::schnorr_verify(kp.pk, msg, sig) ? 1u : 0u);
  });

  // Threshold primitives at the workload's (t, n): t = (n-1)/3 + 1.
  const std::size_t t = (n - 1) / 3 + 1;
  std::vector<crypto::ShareIndex> members;
  for (std::size_t i = 1; i <= n; ++i) members.push_back(static_cast<crypto::ShareIndex>(i));
  const auto dkg = crypto::run_dkg(members, t, drbg);
  const auto& scheme = crypto::SimBlsScheme::instance();
  std::vector<crypto::PartialSignature> partials;
  for (std::size_t i = 0; i < t; ++i) partials.push_back(scheme.partial_sign(dkg[i].share, msg));
  const auto agg = scheme.aggregate(msg, partials, t);
  if (!agg) throw std::runtime_error("calibration: SimBLS aggregation failed");
  const crypto::Point share0_pk = dkg[0].verification_shares.at(dkg[0].share.index);
  cal.op_us[2] = 1e-3 * time_per_call_ns(rec, root, "partial_sign", 4, 60.0, [&](std::size_t) {
    g_sink = g_sink + scheme.partial_sign(dkg[0].share, msg).signer;
  });
  cal.op_us[3] = 1e-3 * time_per_call_ns(rec, root, "partial_verify", 4, 60.0, [&](std::size_t) {
    g_sink = g_sink + (scheme.verify_partial(share0_pk, msg, partials[0]) ? 1u : 0u);
  });
  cal.op_us[4] = 1e-3 * time_per_call_ns(rec, root, "aggregate", 4, 60.0, [&](std::size_t) {
    g_sink = g_sink + scheme.aggregate(msg, partials, t)->size();
  });
  cal.op_us[5] = 1e-3 * time_per_call_ns(rec, root, "threshold_verify", 4, 60.0, [&](std::size_t) {
    g_sink = g_sink + (scheme.verify(dkg[0].group_public_key, msg, *agg) ? 1u : 0u);
  });

  // Routing and scheduling over the workload's own host pairs.
  std::vector<std::vector<net::NodeIndex>> paths(flows.size());
  cal.shortest_path_us = 1e-3 * time_per_call_ns(rec, root, "shortest_path", flows.size(), 0.0,
                                                 [&](std::size_t i) {
    paths[i] = topo.shortest_path(flows[i].src_host, flows[i].dst_host);
  });
  const sched::ReversePathScheduler scheduler;
  cal.sched_build_us = 1e-3 * time_per_call_ns(rec, root, "sched_build", flows.size(), 0.0,
                                               [&](std::size_t i) {
    sched::RouteIntent intent;
    intent.match = net::FlowMatch{flows[i].src_host, flows[i].dst_host};
    intent.path = paths[i];
    intent.reserved_bps = flows[i].reserved_bps;
    g_sink = g_sink + scheduler.build(intent, 1).updates.size();
  });
  rec.end(root);
  return cal;
}

// ---------------------------------------------------------------------------
// Trace file

constexpr std::size_t kIngressSpansWritten = 50000;

/// Writes every span recorded so far as Chrome trace JSON through
/// obs::Tracer, under one process named by the run id.  Ingress spans past the first kIngressSpansWritten
/// are left out; returns how many.  Throws when the file cannot be written.
std::uint64_t write_trace(const std::string& path, const SpanRecorder& rec,
                          const std::string& workload, std::uint64_t seed) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_event_cap(0);
  tracer.set_process_name(1, workload + "-seed" + std::to_string(seed));
  std::uint64_t ingress = 0;
  for (const Span& s : rec.collect()) {
    const std::string& name = rec.names().at(s.name);
    const bool is_ingress = name.rfind("ingress.", 0) == 0;
    if (is_ingress && ++ingress > kIngressSpansWritten) continue;
    obs::TraceArgs args = {{"id", s.id}, {"parent", s.parent}};
    if (s.width != 1) args.emplace_back("width", s.width);
    if (is_ingress) {
      args.emplace_back("node", s.node);
      args.emplace_back("tag", s.tag);
      args.emplace_back("bytes", s.bytes);
    }
    tracer.complete(1, s.thread, name.c_str(), static_cast<std::int64_t>(s.start_ns),
                    static_cast<std::int64_t>(s.end_ns - s.start_ns), std::move(args));
  }
  if (!tracer.write_chrome_trace(path)) throw std::runtime_error("cannot write " + path);
  return ingress > kIngressSpansWritten ? ingress - kIngressSpansWritten : 0;
}

// ---------------------------------------------------------------------------
// One repetition

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint32_t threads = 1;  ///< engine worker shards
  std::string trace_out;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

int run_rep(const Options& opt) {
  const perfbench::WorkloadSpec* found = perfbench::find_workload(opt.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench_bin: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const perfbench::WorkloadSpec& spec = *found;

  net::Topology topo = spec.topology();
  const std::vector<workload::Flow> flows = perfbench::make_flows(spec, topo, opt.seed);
  const core::DeploymentParams dp = perfbench::deployment_params(spec, opt.threads);

  // The recorder and the ingress tap outlive the deployment, whose
  // handlers point at them.  Set-up is short and noisy, so each
  // repetition builds the deployment several times and keeps the last one;
  // run.py reports the median.
  SpanRecorder rec;
  IngressTap tap;
  std::vector<double> setup_s;
  std::unique_ptr<core::Deployment> dep;
  for (int k = 0; k < kSetups; ++k) {
    net::Topology copy = topo;
    dep.reset();
    const std::uint32_t span = opt.trace ? rec.begin("setup", 0) : 0;
    const std::uint64_t t0 = now_ns();
    dep = std::make_unique<core::Deployment>(std::move(copy), dp);
    setup_s.push_back(seconds_between(t0, now_ns()));
    if (opt.trace) rec.end(span);
  }
  const OpCounts crypto_setup = crypto_snapshot();

  if (spec.switch_loss > 0.0) {
    for (const net::NodeIndex sw : dep->topology().switches()) {
      dep->faults().set_node_loss(dep->switch_at(sw).config().node, spec.switch_loss);
    }
  }
  const std::uint32_t width = dep->worker_shards();
  std::uint32_t run_span = 0;
  if (opt.trace) {
    tap.rec = &rec;
    tap.count_crypto = width == 1;
    install_tap(*dep, tap);
  }

  const std::uint32_t inject_span = opt.trace ? rec.begin("inject", 0) : 0;
  const std::uint64_t t_run = now_ns();
  dep->inject(flows);
  if (opt.trace) {
    rec.end(inject_span);
    run_span = rec.begin("run", 0, static_cast<std::uint8_t>(width));
    tap.run_span = run_span;
  }
  const std::uint64_t t_sim = now_ns();
  dep->run(perfbench::horizon(spec));
  const std::uint64_t t_run_end = now_ns();
  if (opt.trace) rec.end(run_span);
  const OpCounts crypto_run = minus(crypto_snapshot(), crypto_setup);
  const double rss = peak_rss_mb();

  // --- outputs ---------------------------------------------------------
  std::uint64_t completed = 0;
  std::uint64_t digest = 1469598103934665603ull;
  std::vector<net::FlowMatch> matches;
  for (std::size_t i = 0; i < dep->flow_records().size(); ++i) {
    const core::FlowRecord& r = dep->flow_records()[i];
    if (!r.completed) continue;
    ++completed;
    digest = fnv1a(digest, i);
    matches.push_back(net::FlowMatch{r.flow.src_host, r.flow.dst_host});
  }
  std::vector<double> setup_ms = dep->setup_cdf().samples();
  std::sort(setup_ms.begin(), setup_ms.end());

  std::uint64_t applied = 0;
  for (const net::NodeIndex s : dep->topology().switches()) {
    applied += dep->switch_at(s).updates_applied();
  }

  std::vector<std::string> violations;
  if (!spec.teardown) {
    violations = net::check_consistency(dep->topology(), dep->table_map(), matches);
  }

  std::uint64_t cancelled = 0;
  if (sim::ParallelSim* p = dep->parallel_engine()) {
    for (std::uint32_t s = 0; s < p->shards(); ++s) cancelled += p->shard(s).events_cancelled();
  } else {
    cancelled = dep->simulator().events_cancelled();
  }
  std::uint64_t windows = 0, shard_events = 0, stalls = 0, posts = 0;
  double barrier_s = 0.0;
  for (const obs::ShardTelemetryEntry& e : dep->shard_telemetry()) {
    windows += e.windows;
    shard_events += e.events;
    stalls += e.stall_windows;
    posts += e.posts_out;
    barrier_s += e.barrier_wait_sec;
  }
  const obs::MetricsRegistry& m = dep->obs().metrics;
  const std::uint64_t events = dep->events_processed();
  const sim::NetworkSim& net = dep->network();

  Json out;
  out.str("workload", spec.name);
  out.num("seed", opt.seed);
  out.num("threads", static_cast<std::uint64_t>(width));
  out.num("teardown", static_cast<std::uint64_t>(spec.teardown ? 1 : 0));
  out.num("lossy", static_cast<std::uint64_t>(spec.switch_loss > 0.0 ? 1 : 0));
  out.raw("setup_s", json_list(setup_s));
  out.num("run_s", seconds_between(t_run, t_run_end));
  out.num("peak_rss_mb", rss);
  out.num("flows", static_cast<std::uint64_t>(flows.size()));
  out.num("completed", completed);
  out.str("completed_digest", std::to_string(digest));
  out.raw("setup_ms", json_list(setup_ms));
  out.num("updates_applied", applied);
  out.num("msgs_sent", net.messages_sent());
  out.num("bytes_sent", net.bytes_sent());
  out.num("msgs_dropped", net.messages_dropped());
  out.num("events", events);
  out.num("events_cancelled", cancelled);
  out.num("pending_updates", static_cast<std::uint64_t>(dep->pending_updates()));
  out.num("violations", static_cast<std::uint64_t>(violations.size()));
  out.str("first_violation", violations.empty() ? "" : violations.front());
  {
    Json ops;
    for (std::size_t i = 0; i < kOps; ++i) ops.num(kOpNames[i], crypto_run[i]);
    out.raw("crypto_ops", ops.text());
  }
  {
    Json c;
    for (const char* name :
         {"bft.view_changes", "bft.delivered", "bft.preprepares", "bft.prepares", "bft.commits",
          "ctrl.update_retransmits", "ctrl.updates_sent", "sched.updates_released", "cpu.tasks"}) {
      c.num(name, m.counter_value(name));
    }
    out.raw("counters", c.text());
  }
  {
    Json s;
    s.num("windows", windows);
    s.num("events", shard_events);
    s.num("stall_windows", stalls);
    s.num("posts", posts);
    s.num("barrier_wait_s", barrier_s);
    out.raw("shards", s.text());
  }

  if (opt.trace) {
    const double run_s = seconds_between(t_sim, t_run_end);
    const std::vector<Span> spans = rec.collect();
    const std::map<std::string, double> self = perfbench::self_times(spans, rec.names());
    std::map<std::string, TagTotals> tags;
    for (const Span& s : spans) {
      const std::string& name = rec.names().at(s.name);
      if (name.rfind("ingress.", 0) != 0) continue;
      TagTotals& t = tags[tag_name(s.tag)];
      ++t.msgs;
      t.bytes += s.bytes;
      t.busy_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    const Calibration cal = calibrate(rec, dep->topology(), flows, dp.controllers_per_domain);

    Json layers;
    const double per_update = applied == 0 ? 0.0 : 1.0 / static_cast<double>(applied);
    double crypto_busy = 0.0;
    std::array<double, kIngressKinds> crypto_inside{};
    for (std::size_t i = 0; i < kOps; ++i) {
      crypto_busy += static_cast<double>(crypto_run[i]) * cal.op_us[i] * 1e-6;
      for (std::size_t k = 0; k < kIngressKinds; ++k) {
        crypto_inside[k] += static_cast<double>(tap.crypto[k][i]) * cal.op_us[i] * 1e-6;
      }
    }
    for (const std::size_t i : {0, 1, 2, 4, 5}) {
      const std::string op = kOpNames[i];
      layers.num("crypto." + op + "_per_update", static_cast<double>(crypto_run[i]) * per_update);
      layers.num("crypto." + op + "_us", cal.op_us[i]);
      layers.num("crypto." + op + "_per_field_mul", cal.op_us[i] * 1e3 / cal.field_mul_ns);
    }
    layers.num("crypto.field_mul_ns", cal.field_mul_ns);
    const double capacity_s = run_s * width;
    layers.num("crypto.busy_s_est", crypto_busy);
    layers.num("crypto.share_est", crypto_busy / capacity_s);

    const auto self_of = [&](const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    layers.num("core.ingress.ctrl.busy_s", self_of("ingress.ctrl"));
    layers.num("core.ingress.switch.busy_s", self_of("ingress.switch"));
    for (const char* tag : {"event", "update", "ack"}) {
      const TagTotals t = tags[tag];
      layers.num(std::string("core.ingress.") + tag + ".msgs", t.msgs);
      layers.num(std::string("core.ingress.") + tag + ".bytes", t.bytes);
      layers.num(std::string("core.ingress.") + tag + ".busy_s", t.busy_s);
    }
    const std::uint64_t bft_msgs = tags["bft"].msgs;
    layers.num("bft.ingress.busy_s", self_of("ingress.bft"));
    layers.num("bft.ingress.msgs", bft_msgs);
    const std::uint64_t delivered = m.counter_value("bft.delivered");
    layers.num("bft.msgs_per_delivery", delivered == 0 ? 0.0
                                                       : static_cast<double>(bft_msgs) /
                                                             static_cast<double>(delivered));
    layers.num("bft.view_changes", m.counter_value("bft.view_changes"));
    layers.num("core.retransmits_per_update",
               static_cast<double>(m.counter_value("ctrl.update_retransmits")) * per_update);
    layers.num("core.sent_per_applied",
               static_cast<double>(m.counter_value("ctrl.updates_sent")) * per_update);
    layers.num("core.events_processed", m.counter_value("ctrl.events_processed"));
    layers.num("net.shortest_path_us", cal.shortest_path_us);
    layers.num("sched.build_us", cal.sched_build_us);
    layers.num("sched.released_per_update",
               static_cast<double>(m.counter_value("sched.updates_released")) * per_update);
    layers.num("sim.events_per_update", static_cast<double>(events) * per_update);
    layers.num("sim.cancelled_frac",
               static_cast<double>(cancelled) / static_cast<double>(events + cancelled));
    layers.num("sim.net.dropped_frac", static_cast<double>(net.messages_dropped()) /
                                           static_cast<double>(net.messages_sent()));
    layers.num("sim.cpu.tasks_per_update",
               static_cast<double>(m.counter_value("cpu.tasks")) * per_update);
    if (width > 1) {
      layers.num("sim.parallel.events_per_window",
                 static_cast<double>(shard_events) / static_cast<double>(windows));
      layers.num("sim.parallel.stall_frac",
                 static_cast<double>(stalls) / static_cast<double>(windows));
      layers.num("sim.parallel.barrier_wait_frac", barrier_s / capacity_s);
      layers.num("sim.parallel.posts_per_event",
                 static_cast<double>(posts) / static_cast<double>(events));
    }

    // Where the run's host time goes, as rows that sum to the run's
    // thread-seconds: ingress handlers less the crypto made inside them,
    // crypto (estimated: count x unit cost), barrier waits, and the
    // residual -- event kernel, deferred handler work, routing,
    // scheduling, send-side codecs -- as its own row.
    Json where;
    double attributed = crypto_busy + barrier_s;
    for (std::size_t k = 0; k < kIngressKinds; ++k) {
      const double v = self_of(kIngressNames[k]) - crypto_inside[k];
      where.num(kIngressNames[k], v);
      attributed += v;
    }
    const double residual = capacity_s - attributed;
    layers.num("sim.ns_per_event_residual", residual * 1e9 / static_cast<double>(events));
    out.raw("layers", layers.text());
    where.num("crypto", crypto_busy);
    where.num("barrier_wait", barrier_s);
    where.num("residual", residual);
    where.num("capacity_s", capacity_s);
    out.raw("where", where.text());

    if (!opt.trace_out.empty()) {
      const std::uint64_t skipped = write_trace(opt.trace_out, rec, spec.name, opt.seed);
      out.num("trace_ingress_skipped", skipped);
    }
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: self time from a synthetic span set.

int self_test() {
  const std::vector<std::string> names = {"run", "ingress", "setup"};
  // run [0,100) width 2 with children [10,30) and [50,60); setup [200,210).
  std::vector<Span> spans(4);
  spans[0] = Span{0, 100, 1, 0, 0, 0, 2, 0, 0, 0};
  spans[1] = Span{10, 30, 2, 1, 1, 0, 1, 0, 0, 0};
  spans[2] = Span{50, 60, 3, 1, 1, 1, 1, 0, 0, 0};
  spans[3] = Span{200, 210, 4, 0, 2, 0, 1, 0, 0, 0};
  const auto self = perfbench::self_times(spans, names);
  const auto near = [](double a, double b) { return a > b - 1e-15 && a < b + 1e-15; };
  int failures = 0;
  const auto expect = [&](const char* what, bool ok) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  expect("run self = 2 x 100 ns - 30 ns children", near(self.at("run"), 170e-9));
  expect("ingress self = its own 30 ns", near(self.at("ingress"), 30e-9));
  expect("setup self = 10 ns", near(self.at("setup"), 10e-9));
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  expect("self times partition the covered capacity", near(total, 210e-9));

  SpanRecorder rec;
  const std::uint32_t root = rec.begin("run", 0);
  Span child;
  child.parent = root;
  child.name = rec.intern("ingress");
  child.start_ns = now_ns();
  child.end_ns = child.start_ns + 5;
  rec.record(child);
  rec.end(root);
  const std::vector<Span> got = rec.collect();
  expect("recorder keeps parent links and id order",
         got.size() == 2 && got[0].id == root && got[1].parent == root);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return self_test();
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (a == "--threads" && has_value) {
      opt.threads = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_bin: bad argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr, "usage: perfbench_bin --workload NAME --seed N [--trace 0|1]\n");
    return 2;
  }
  try {
    return run_rep(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 1;
  }
}
