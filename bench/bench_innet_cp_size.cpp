// Fig. 12a variant — controller egress bytes and switch CPU vs
// control-plane size, plain kCicero against the in-network aggregation
// offload (P4BFT-style; DESIGN.md §16).
//
// Under plain kCicero every replica sends the target switch a full
// signed update, so controller egress grows linearly with n.  Under
// kCiceroInNetwork one rank-0 replica sends the full body to the domain's
// designated aggregator switch, ranks 1..t-1 send compact digest
// shares, and ranks >= t stay silent — the aggregator compares digests,
// combines the threshold partials and fans out ONE aggregated update.
//
// The headline metric — gated by bench_diff.py against the committed
// baseline — is controller-sent bytes per applied update per cell
// (`<mode>_n<size>.ctrl_bytes_per_update`).  The acceptance bar: at
// n=10 the in-network figure must be <= 1/3 of the kCicero baseline.
// Switch CPU (total busy ms) is reported alongside to show the
// offload's cost side: the aggregator switch does the combine work the
// replicas' target-switch fan-out used to amortize.
#include "bench_common.hpp"

namespace {

using namespace cicero;
using namespace cicero::bench;

struct Cell {
  double bytes_per_update = 0.0;
  double switch_cpu_ms = 0.0;
};

Cell measure(core::FrameworkKind framework, std::size_t controllers,
             obs::RunReport& report) {
  net::FabricParams p;
  p.racks_per_pod = 4;
  p.hosts_per_rack = 4;
  core::DeploymentParams dp;
  dp.framework = framework;
  dp.controllers_per_domain = controllers;
  dp.real_crypto = false;
  dp.seed = 42;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(p), dp);

  const double t0 = wall_clock_sec();
  run_workload(*dep, workload::WorkloadKind::kHadoop, 400);
  const double wall = wall_clock_sec() - t0;

  std::uint64_t southbound = 0;
  for (const auto id : dep->controller_ids()) {
    southbound += dep->controller(id).southbound_bytes();
  }
  std::uint64_t applied = 0;
  double cpu_ms = 0.0;
  for (const net::NodeIndex sw : dep->topology().switches()) {
    applied += dep->switch_at(sw).updates_applied();
    cpu_ms += sim::to_sec(dep->switch_at(sw).cpu().busy_total()) * 1e3;
  }

  Cell cell;
  cell.bytes_per_update =
      applied == 0 ? 0.0
                   : static_cast<double>(southbound) / static_cast<double>(applied);
  cell.switch_cpu_ms = cpu_ms;

  const std::string label =
      std::string(framework == core::FrameworkKind::kCiceroInNetwork ? "innet" : "cicero") +
      "_n" + std::to_string(controllers);
  report_run(report, *dep, label, wall);
  obs::MetricsRegistry extra;
  extra.gauge(label + ".ctrl_bytes_per_update").set(cell.bytes_per_update);
  extra.gauge(label + ".switch_cpu_ms").set(cell.switch_cpu_ms);
  report.add_metrics(extra);
  return cell;
}

}  // namespace

int main() {
  print_header("Fig. 12a variant (in-network aggregation)",
               "controller egress bytes and switch CPU vs control-plane size");

  obs::RunReport report("innet_cp_size");
  report.set_meta("workload", "hadoop");
  report.set_meta("flows_per_cell", std::int64_t{400});

  const std::vector<std::size_t> sizes = {1, 4, 5, 6, 7, 8, 9, 10};
  std::printf("%-6s %16s %16s %14s %14s\n", "size", "cicero B/upd", "innet B/upd",
              "cicero cpu_ms", "innet cpu_ms");
  double base10 = 0.0, innet10 = 0.0;
  for (const std::size_t n : sizes) {
    const Cell base = measure(core::FrameworkKind::kCicero, n, report);
    const Cell innet = measure(core::FrameworkKind::kCiceroInNetwork, n, report);
    if (n == 10) {
      base10 = base.bytes_per_update;
      innet10 = innet.bytes_per_update;
    }
    std::printf("%-6zu %16.1f %16.1f %14.1f %14.1f\n", n, base.bytes_per_update,
                innet.bytes_per_update, base.switch_cpu_ms, innet.switch_cpu_ms);
  }

  std::printf("\n# headline: at n=10 the in-network offload must send <= 1/3\n");
  std::printf("# of the kCicero baseline's controller bytes per update:\n");
  std::printf("#   cicero %.1f B/upd, innet %.1f B/upd, ratio %.3f\n", base10, innet10,
              base10 > 0 ? innet10 / base10 : 0.0);
  if (base10 > 0 && innet10 <= base10 / 3.0) {
    std::printf("# OK: acceptance bar met (%.3f <= 0.333)\n", innet10 / base10);
  } else {
    std::printf("# WARNING: acceptance bar MISSED\n");
  }
  write_report(report, "innet");
  return 0;
}
