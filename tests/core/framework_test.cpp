#include "core/framework.hpp"

#include <gtest/gtest.h>

namespace cicero::core {
namespace {

TEST(Framework, Names) {
  EXPECT_STREQ(framework_name(FrameworkKind::kCentralized), "Centralized");
  EXPECT_STREQ(framework_name(FrameworkKind::kCrashTolerant), "Crash Tolerant");
  EXPECT_STREQ(framework_name(FrameworkKind::kCicero), "Cicero");
  EXPECT_STREQ(framework_name(FrameworkKind::kCiceroAgg), "Cicero Agg");
  EXPECT_STREQ(framework_name(FrameworkKind::kCiceroInNetwork), "Cicero In-Network");
  EXPECT_STREQ(framework_name(FrameworkKind::kCiceroDecentralized), "Cicero Decentralized");
  EXPECT_STREQ(framework_name(FrameworkKind::kCiceroAggFrost), "Cicero Agg FROST");
}

TEST(Framework, Table2HasCiceroRowWithAllCapabilities) {
  const auto rows = table2_rows();
  const auto it = std::find_if(rows.begin(), rows.end(), [](const Capabilities& c) {
    return c.system.find("Cicero") != std::string::npos;
  });
  ASSERT_NE(it, rows.end());
  EXPECT_TRUE(it->crash_tolerant);
  EXPECT_TRUE(it->byzantine_tolerant);
  EXPECT_TRUE(it->controller_authentication);
  EXPECT_TRUE(it->dynamic_membership);
  EXPECT_TRUE(it->update_consistent);
  EXPECT_TRUE(it->update_domains);
}

TEST(Framework, Table2OnlyCiceroHasUpdateDomains) {
  // The paper's Table 2: no related system combines all six properties.
  for (const auto& row : table2_rows()) {
    if (row.system.find("Cicero") == std::string::npos) {
      const bool all = row.crash_tolerant && row.byzantine_tolerant &&
                       row.controller_authentication && row.dynamic_membership &&
                       row.update_consistent && row.update_domains;
      EXPECT_FALSE(all) << row.system;
    }
  }
}

TEST(Framework, Table2MatchesPaperRowCount) {
  EXPECT_EQ(table2_rows().size(), 12u);
}

}  // namespace
}  // namespace cicero::core
