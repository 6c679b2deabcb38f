#include "core/framework.hpp"

namespace cicero::core {

const char* framework_name(FrameworkKind kind) {
  switch (kind) {
    case FrameworkKind::kCentralized:
      return "Centralized";
    case FrameworkKind::kCrashTolerant:
      return "Crash Tolerant";
    case FrameworkKind::kCicero:
      return "Cicero";
    case FrameworkKind::kCiceroAgg:
      return "Cicero Agg";
    case FrameworkKind::kCiceroInNetwork:
      return "Cicero In-Network";
    case FrameworkKind::kCiceroDecentralized:
      return "Cicero Decentralized";
    case FrameworkKind::kCiceroAggFrost:
      return "Cicero Agg FROST";
  }
  return "?";
}

std::vector<Capabilities> table2_rows() {
  // Rows mirror Table 2 of the paper; the final rows describe this
  // repository's implementations.
  return {
      {"Singleton controller", false, false, false, false, false, false, "common"},
      {"Singleton controller w/ TLS", false, false, true, false, false, false, "common"},
      {"ONOS", true, false, false, true, false, false, "deployed in practice"},
      {"Ravana", true, false, false, false, false, false, "experimental (Ryu)"},
      {"Botelho et al.", true, false, false, false, false, false, "experimental"},
      {"MORPH", true, true, false, true, false, false, "experimental"},
      {"RoSCo", true, true, true, false, true, false, "experimental (Ryu)"},
      {"NES", false, false, false, false, true, false, "theoretical"},
      {"Dionysus", false, false, false, false, true, false, "experimental"},
      {"Optimal Order Updates", false, false, false, false, true, false, "theoretical"},
      {"ez-Segway", false, false, false, false, true, false, "experimental (Ryu)"},
      {"Cicero (this work)", true, true, true, true, true, true,
       "this repository (simulated deployment)"},
  };
}

}  // namespace cicero::core
