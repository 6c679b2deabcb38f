// End-to-end observability: a small Cicero deployment with metrics and
// tracing enabled must produce the documented span taxonomy and non-zero
// subsystem counters, and its run report must serialize every section.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/deployment.hpp"
#include "integration/helpers.hpp"
#include "obs/report.hpp"

namespace cicero {
namespace {

std::unique_ptr<core::Deployment> traced_deployment() {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.controllers_per_domain = 4;
  dp.real_crypto = false;  // cost-model mode keeps the test fast
  dp.seed = 12345;
  dp.trace = true;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(testing::small_pod()), dp);
  const auto flows = testing::small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  return dep;
}

TEST(ObsIntegration, TraceContainsUpdateLifecycleSpans) {
  auto dep = traced_deployment();
  ASSERT_TRUE(dep->obs().trace.enabled());
  EXPECT_GT(dep->obs().trace.event_count(), 0u);

  std::ostringstream os;
  dep->obs().trace.write_chrome_trace(os);
  const std::string json = os.str();

  // The per-event ordering track and the per-update lifecycle track
  // (begin at route computation, "sign" and "apply" nested, end at ack).
  EXPECT_NE(json.find("\"cat\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"order\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"update\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"update\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sign\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply\""), std::string::npos);
  // Named CPU ops appear as complete spans.
  EXPECT_NE(json.find("\"name\":\"route.compute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow_table.update\""), std::string::npos);
  // Node metadata: every simulated node is a Perfetto "process".
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ObsIntegration, SubsystemCountersAreWired) {
  auto dep = traced_deployment();
  const auto& reg = dep->obs().metrics;
  EXPECT_GT(reg.counter_value("net.messages_sent"), 0u);
  EXPECT_GT(reg.counter_value("net.messages_delivered"), 0u);
  EXPECT_GT(reg.counter_value("cpu.tasks"), 0u);
  EXPECT_GT(reg.counter_value("bft.delivered"), 0u);
  EXPECT_GT(reg.counter_value("ctrl.events_seen"), 0u);
  EXPECT_GT(reg.counter_value("ctrl.updates_sent"), 0u);
  EXPECT_GT(reg.counter_value("ctrl.acks_received"), 0u);
  EXPECT_GT(reg.counter_value("switch.events_emitted"), 0u);
  EXPECT_GT(reg.counter_value("switch.updates_applied"), 0u);

  // Counters must agree with the pre-existing per-object stats.
  std::uint64_t applied = 0;
  for (const auto sw : dep->topology().switches()) {
    applied += dep->switch_at(sw).updates_applied();
  }
  EXPECT_EQ(reg.counter_value("switch.updates_applied"), applied);

  // Latency histograms recorded samples.
  const auto& hists = reg.histograms();
  const auto it = hists.find("ctrl.update_ack_ms");
  ASSERT_NE(it, hists.end());
  EXPECT_GT(it->second->count, 0u);
  EXPECT_GT(it->second->sum, 0.0);
}

TEST(ObsIntegration, MetricsDisabledRunRecordsNothing) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.real_crypto = false;
  dp.seed = 12345;
  dp.metrics = false;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(testing::small_pod()), dp);
  const auto flows = testing::small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(testing::completed_count(*dep), flows.size());
  EXPECT_TRUE(dep->obs().metrics.counters().empty());
  EXPECT_EQ(dep->obs().trace.event_count(), 0u);
}

TEST(ObsIntegration, RunReportRoundTrip) {
  auto dep = traced_deployment();
  obs::RunReport report("obs_integration");
  report.set_meta("framework", "cicero");
  report.add_metrics(dep->obs().metrics);
  report.add_cdf("completion_ms", dep->completion_cdf());
  const std::string json = report.to_json();
  EXPECT_NE(json.find(obs::kRunReportSchema), std::string::npos);
  EXPECT_NE(json.find("\"net.messages_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu.queue_wait_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"completion_ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lifecycle trace on every update path
// ---------------------------------------------------------------------------

/// The enum fields lead: gtest names each case after the raw bytes of its
/// parameter, so a leading pointer would put a link-layout-dependent byte
/// into the test name.
struct TracedPath {
  core::FrameworkKind framework;
  const char* label;
  /// Expected "ph cat name count" lines, sorted, for every async, flow and
  /// instant event of the run below.
  const char* counts;
};

/// The string value of `"key":"..."` on one serialized trace event, or "".
std::string json_field(const std::string& line, const std::string& key) {
  const std::string open = "\"" + key + "\":\"";
  const auto at = line.find(open);
  if (at == std::string::npos) return "";
  const auto begin = at + open.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

using core::FrameworkKind;

class TraceLifecycle : public ::testing::TestWithParam<TracedPath> {};

TEST_P(TraceLifecycle, SpansPairAndEventCountsAreStable) {
  const TracedPath& path = GetParam();
  core::DeploymentParams dp;
  dp.framework = path.framework;
  dp.controllers_per_domain = 4;
  dp.real_crypto = false;
  dp.seed = 12345;
  dp.trace = true;
  core::Deployment dep(net::build_pod(testing::small_pod()), dp);
  const auto flows = testing::small_workload(dep.topology(), 20);
  dep.inject(flows);
  dep.run(sim::seconds(20));
  ASSERT_EQ(testing::completed_count(dep), flows.size());

  std::ostringstream os;
  dep.obs().trace.write_chrome_trace(os);
  std::istringstream lines(os.str());
  // tools/obs/check_obs.py pairing rules, made strict: every async begin
  // is closed by the end of the run, and no flow finishes unstarted.
  std::map<std::pair<std::string, std::string>, int> open_spans;
  std::set<std::pair<std::string, std::string>> flows_started;
  std::map<std::string, int> counts;
  for (std::string line; std::getline(lines, line);) {
    const std::string ph = json_field(line, "ph");
    if (ph != "b" && ph != "e" && ph != "s" && ph != "t" && ph != "f" && ph != "i") continue;
    const std::string cat = json_field(line, "cat");
    const auto track = std::make_pair(cat, json_field(line, "id"));
    if (ph == "b") ++open_spans[track];
    if (ph == "e") {
      EXPECT_GE(--open_spans[track], 0) << "end without begin: " << line;
    }
    if (ph == "s") flows_started.insert(track);
    if (ph == "f") {
      EXPECT_EQ(flows_started.count(track), 1u) << "finish without start: " << line;
    }
    ++counts[ph + " " + (cat.empty() ? "-" : cat) + " " + json_field(line, "name")];
  }
  for (const auto& [track, depth] : open_spans) {
    EXPECT_EQ(depth, 0) << "unclosed span " << track.first << " " << track.second;
  }
  std::string actual;
  for (const auto& [key, n] : counts) actual += key + " " + std::to_string(n) + "\n";
  EXPECT_EQ(actual, path.counts);
}

INSTANTIATE_TEST_SUITE_P(
    UpdatePaths, TraceLifecycle,
    ::testing::Values(
        TracedPath{FrameworkKind::kCentralized, "Centralized",
            "b event order 15\n" "b update apply 35\n" "b update sign 35\n" "b update update 35\n"
            "e event order 15\n" "e update apply 35\n" "e update sign 35\n" "e update update 35\n"
            "f dep dep.release 20\n" "f flow update.ack 35\n" "s dep dep.release 20\n"
            "s flow update.send 35\n" "t flow update.applied 35\n" "t flow update.rx 35\n"},
        TracedPath{FrameworkKind::kCrashTolerant, "CrashTolerant",
            "b event order 15\n" "b update apply 35\n" "b update sign 35\n" "b update update 35\n"
            "e event order 15\n" "e update apply 35\n" "e update sign 35\n" "e update update 35\n"
            "f dep dep.release 20\n" "f flow update.ack 35\n" "s dep dep.release 20\n"
            "s flow update.send 35\n" "t flow update.applied 35\n" "t flow update.rx 35\n"},
        TracedPath{FrameworkKind::kCicero, "Cicero",
            "b event order 15\n" "b update apply 35\n" "b update sign 35\n" "b update update 35\n"
            "e event order 15\n" "e update apply 35\n" "e update sign 35\n" "e update update 35\n"
            "f dep dep.release 20\n" "f flow update.ack 35\n" "s dep dep.release 20\n"
            "s flow update.send 35\n" "t flow update.applied 35\n" "t flow update.rx 140\n"},
        TracedPath{FrameworkKind::kCiceroAgg, "CiceroAgg",
            "b event order 15\n" "b update apply 35\n" "b update sign 35\n" "b update update 35\n"
            "e event order 15\n" "e update apply 35\n" "e update sign 35\n" "e update update 35\n"
            "f dep dep.release 20\n" "f flow update.ack 35\n" "s dep dep.release 20\n"
            "s flow update.send 35\n" "t flow update.applied 35\n" "t flow update.rx 35\n"},
        TracedPath{FrameworkKind::kCiceroAggFrost, "CiceroAggFrost",
            "b event order 15\n" "b update apply 35\n" "b update sign 35\n" "b update update 35\n"
            "e event order 15\n" "e update apply 35\n" "e update sign 35\n" "e update update 35\n"
            "f dep dep.release 20\n" "f flow update.ack 35\n" "s dep dep.release 20\n"
            "s flow update.send 35\n" "t flow update.applied 35\n" "t flow update.rx 35\n"},
        TracedPath{FrameworkKind::kCiceroInNetwork, "CiceroInNetwork",
            "b event order 15\n" "b update apply 35\n" "b update sign 35\n" "b update update 35\n"
            "e event order 15\n" "e update apply 35\n" "e update sign 35\n" "e update update 35\n"
            "f dep dep.release 20\n" "f flow update.ack 35\n" "s dep dep.release 20\n"
            "s flow update.send 35\n" "t flow update.agg_fanout 35\n" "t flow update.applied 35\n"
            "t flow update.rx 25\n"},
        TracedPath{FrameworkKind::kCiceroDecentralized, "CiceroDecentralized",
            "b event order 15\n" "b update apply 35\n" "b update update 35\n" "e event order 15\n"
            "e update apply 35\n" "e update update 35\n" "f flow update.ack 15\n"
            "s flow update.send 35\n" "t flow update.applied 35\n" "t flow update.rx 140\n"}),
    [](const ::testing::TestParamInfo<TracedPath>& info) { return info.param.label; });

}  // namespace
}  // namespace cicero
