// Decentralized (ez-Segway mode) vs controller-driven execution on the
// fig-style single-pod Hadoop scenario: kCiceroDecentralized vs kCicero,
// same workload and seed, so only the execution differs.
//
// The headline metrics — gated by bench_diff.py against the committed
// baseline — are the controller's message volume per applied update
// (updates/manifests out + acks in, summed over the control plane) and
// the controller-side ack round trip (ctrl.update_ack_ms: per update
// when controller-driven, per chain sink when decentralized).  The
// decentralized mode must hold a measurably lower messages-per-update
// figure: one manifest per segment plus a single sink ack per chain,
// versus one update plus one multicast ack per segment.
#include "bench_common.hpp"

int main() {
  using namespace cicero;
  using namespace cicero::bench;

  print_header("Decentralized execution",
               "controller-driven vs in-band (ez-Segway) chain execution");

  obs::RunReport report("decentralized");
  report.set_meta("workload", "hadoop");
  report.set_meta("flows", static_cast<std::int64_t>(kBenchFlows));
  report.set_meta("controllers_per_domain", std::int64_t{4});
  obs::crypto_ops().reset();

  std::printf("%-18s %10s %12s %12s %14s %12s\n", "mode", "flows", "compl_ms",
              "setup_ms", "ctrl_msgs/upd", "peer_sigs");
  struct Row {
    std::string name;
    double msgs_per_update = 0.0;
  };
  std::vector<Row> rows;
  // Local labels, not framework_name(): they are the committed baseline's
  // report key prefixes (controller_driven.*, decentralized.*).
  const std::pair<core::FrameworkKind, const char*> modes[] = {
      {core::FrameworkKind::kCicero, "controller-driven"},
      {core::FrameworkKind::kCiceroDecentralized, "decentralized"}};
  for (const auto& [framework, label] : modes) {
    core::DeploymentParams dp;
    dp.framework = framework;
    dp.real_crypto = false;
    dp.seed = 42;
    auto dep = std::make_unique<core::Deployment>(net::build_pod(bench_pod()), dp);
    const double t0 = wall_clock_sec();
    run_workload(*dep, workload::WorkloadKind::kHadoop, kBenchFlows);
    const double wall = wall_clock_sec() - t0;

    std::uint64_t ctrl_msgs = 0;
    for (const auto id : dep->controller_ids()) {
      const auto& c = dep->controller(id);
      ctrl_msgs += c.updates_sent() + c.manifests_sent() + c.acks_received();
    }
    std::uint64_t applied = 0, peer_sigs = 0;
    for (const net::NodeIndex sw : dep->topology().switches()) {
      applied += dep->switch_at(sw).updates_applied();
      peer_sigs += dep->switch_at(sw).peer_signals_sent();
    }
    const std::string name = label;
    const double per_update =
        applied == 0 ? 0.0 : static_cast<double>(ctrl_msgs) / static_cast<double>(applied);

    report_run(report, *dep, name, wall);
    obs::MetricsRegistry extra;
    extra.gauge(metric_slug(name) + ".ctrl_msgs_per_update").set(per_update);
    report.add_metrics(extra);

    const auto completion = dep->completion_cdf();
    const auto setup = dep->setup_cdf();
    std::printf("%-18s %10zu %12.2f %12.2f %14.2f %12llu\n", name.c_str(),
                completion.count(), completion.mean(), setup.empty() ? 0.0 : setup.mean(),
                per_update, static_cast<unsigned long long>(peer_sigs));
    rows.push_back(Row{name, per_update});
  }

  std::printf("\n# headline: decentralized must exchange fewer controller\n");
  std::printf("# messages per applied update than controller-driven:\n");
  for (const auto& r : rows) {
    std::printf("#   %-18s %6.2f ctrl msgs/update\n", r.name.c_str(), r.msgs_per_update);
  }
  if (rows.size() == 2 && rows[1].msgs_per_update < rows[0].msgs_per_update) {
    std::printf("# OK: decentralized wins (%.2f < %.2f)\n", rows[1].msgs_per_update,
                rows[0].msgs_per_update);
  } else {
    std::printf("# WARNING: decentralized did not reduce controller messages\n");
  }
  write_report(report, "decentralized");
  return 0;
}
