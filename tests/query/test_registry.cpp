#include "query/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace edfkit {
namespace {

TEST(Registry, EveryTestKindIsRegistered) {
  const BackendRegistry& reg = BackendRegistry::instance();
  EXPECT_EQ(reg.all().size(), all_test_kinds().size());
  for (const TestKind k : all_test_kinds()) {
    const BackendInfo* info = reg.find(k);
    ASSERT_NE(info, nullptr) << static_cast<int>(k);
    EXPECT_EQ(info->kind, k);
    ASSERT_NE(info->run, nullptr);
    // Name lookup round-trips.
    const BackendInfo* by_name = reg.find(std::string_view(info->name));
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name->kind, k);
  }
  EXPECT_EQ(reg.find("no-such-backend"), nullptr);
}

TEST(Registry, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const BackendInfo& b : BackendRegistry::instance().all()) {
    EXPECT_FALSE(std::string(b.name).empty());
    names.insert(b.name);
  }
  EXPECT_EQ(names.size(), BackendRegistry::instance().all().size());
}

TEST(Registry, KindNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (const TestKind k : all_test_kinds()) names.insert(to_string(k));
  EXPECT_EQ(names.size(), all_test_kinds().size());
  EXPECT_EQ(std::string(to_string(TestKind::Dynamic)), "dynamic");
  EXPECT_EQ(std::string(to_string(TestKind::AllApprox)), "all-approx");
}

TEST(Registry, ExactnessFlagAgreesWithIsExact) {
  for (const BackendInfo& b : BackendRegistry::instance().all()) {
    EXPECT_EQ(b.exact, is_exact(b.kind)) << b.name;
  }
  // Ground truth: the paper's exact tests plus PD/QPA, nothing else.
  const std::set<TestKind> exact = {TestKind::ProcessorDemand, TestKind::Qpa,
                                    TestKind::Dynamic, TestKind::AllApprox};
  for (const TestKind k : all_test_kinds()) {
    EXPECT_EQ(is_exact(k), exact.count(k) == 1) << to_string(k);
  }
}

TEST(Registry, ExactKindsEnumeration) {
  const std::vector<TestKind> exact =
      BackendRegistry::instance().exact_kinds();
  EXPECT_EQ(exact.size(), 4u);
  for (const TestKind k : exact) EXPECT_TRUE(is_exact(k));
}

TEST(Registry, WorkloadCapabilityFiltering) {
  const BackendRegistry& reg = BackendRegistry::instance();
  const std::vector<TestKind> for_tasks =
      reg.kinds_for(WorkloadKind::PeriodicTasks);
  const std::vector<TestKind> for_streams =
      reg.kinds_for(WorkloadKind::EventStreams);
  // Every backend handles plain task sets.
  EXPECT_EQ(for_tasks.size(), reg.all().size());
  // liu-layland opts out of streams (offset expansion breaks its
  // acceptance direction); so do the global backends (folded offsets
  // read as jitter to the multi gates). Everything else supports both.
  std::size_t stream_optouts = 1;  // liu-layland
  for (const BackendInfo& b : reg.all()) {
    if ((b.platform_caps & kPlatformUniprocessor) == 0) ++stream_optouts;
  }
  EXPECT_EQ(for_streams.size(), reg.all().size() - stream_optouts);
  for (const TestKind k : for_streams) {
    EXPECT_NE(k, TestKind::LiuLayland);
  }
}

TEST(Registry, CapabilityTableMentionsEveryBackend) {
  const std::string table = BackendRegistry::instance().capability_table();
  for (const BackendInfo& b : BackendRegistry::instance().all()) {
    EXPECT_NE(table.find(b.name), std::string::npos) << b.name;
  }
}

TEST(Registry, RtcBackendsAreRegisteredAndSufficientOnly) {
  // The §3.6 RTC path is reachable through the same registry as every
  // other test; its verdicts are sufficient (never exact).
  EXPECT_FALSE(is_exact(TestKind::RtcCurve));
  EXPECT_FALSE(is_exact(TestKind::DeviEnvelope));
  EXPECT_EQ(std::string(to_string(TestKind::RtcCurve)), "rtc-curve");
  EXPECT_EQ(std::string(to_string(TestKind::DeviEnvelope)), "devi-envelope");
}

}  // namespace
}  // namespace edfkit
