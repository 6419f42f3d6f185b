/// \file test_failpoints.cpp
/// Unit tests for the fault-injection registry (src/fault): every
/// trigger mode's firing schedule, errno selection, the short-write
/// parameter, hit/fire counters, the EDFKIT_FAULTS spec grammar
/// (accepted and rejected forms), environment configuration, and the
/// EDFKIT_FAULT_POINT macro's registry identity.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

namespace edfkit::fault {
namespace {

/// Every test starts and ends fully disarmed — the registry is
/// process-global, so leakage between tests would make schedules
/// order-dependent.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm_all(); }
  void TearDown() override { disarm_all(); }
};

TEST_F(FailPointTest, DisarmedByDefault) {
  FailPoint& fp = point("test.default");
  EXPECT_FALSE(fp.armed());
  EXPECT_EQ(fp.mode(), Mode::Off);
  EXPECT_FALSE(fp.consume().fire);
}

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  FailPoint& fp = point("test.once");
  fp.reset_counters();
  fp.arm(Mode::Once);
  EXPECT_TRUE(fp.armed());
  EXPECT_TRUE(fp.consume().fire);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fp.consume().fire);
  EXPECT_EQ(fp.hits(), 11u);
  EXPECT_EQ(fp.fires(), 1u);
}

TEST_F(FailPointTest, EveryNFiresOnMultiples) {
  FailPoint& fp = point("test.every");
  fp.reset_counters();
  fp.arm(Mode::EveryN, /*n=*/3);
  for (int hit = 1; hit <= 9; ++hit) {
    EXPECT_EQ(fp.consume().fire, hit % 3 == 0) << "hit " << hit;
  }
  EXPECT_EQ(fp.fires(), 3u);
}

TEST_F(FailPointTest, EveryOneFiresAlways) {
  FailPoint& fp = point("test.every1");
  fp.arm(Mode::EveryN, /*n=*/1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fp.consume().fire);
}

TEST_F(FailPointTest, AfterNFiresOnEveryHitPastN) {
  FailPoint& fp = point("test.after");
  fp.reset_counters();
  fp.arm(Mode::AfterN, /*n=*/4);
  for (int hit = 1; hit <= 8; ++hit) {
    EXPECT_EQ(fp.consume().fire, hit > 4) << "hit " << hit;
  }
  EXPECT_EQ(fp.fires(), 4u);
}

TEST_F(FailPointTest, RearmingRestartsTheHitOrigin) {
  // `once` means once per arming, not once per process: the hit index
  // is measured from the arm() call.
  FailPoint& fp = point("test.rearm");
  fp.arm(Mode::Once);
  EXPECT_TRUE(fp.consume().fire);
  EXPECT_FALSE(fp.consume().fire);
  fp.arm(Mode::Once);
  EXPECT_TRUE(fp.consume().fire);
  EXPECT_FALSE(fp.consume().fire);
}

TEST_F(FailPointTest, RandomScheduleIsSeedDeterministic) {
  FailPoint& fp = point("test.prob");
  fp.arm(Mode::Random, 1, /*probability=*/0.5, /*seed=*/42);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(fp.consume().fire);
  fp.arm(Mode::Random, 1, 0.5, 42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fp.consume().fire, first[static_cast<std::size_t>(i)])
        << "draw " << i;
  }
  // A fair-ish coin over 64 draws fires at least once and misses at
  // least once.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FailPointTest, RandomProbabilityExtremes) {
  FailPoint& fp = point("test.prob.extreme");
  fp.arm(Mode::Random, 1, /*probability=*/1.0, /*seed=*/7);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(fp.consume().fire);
  fp.arm(Mode::Random, 1, /*probability=*/0.0, /*seed=*/7);
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(fp.consume().fire);
}

TEST_F(FailPointTest, FiringCarriesErrnoAndShortLen) {
  FailPoint& fp = point("test.payload");
  fp.arm(Mode::Once, 1, 0.0, 1, ENOSPC, /*short_len=*/3);
  const FaultResult r = fp.consume();
  EXPECT_TRUE(r.fire);
  EXPECT_EQ(r.err, ENOSPC);
  EXPECT_EQ(r.short_len, 3u);
}

TEST_F(FailPointTest, ShouldFailSetsErrno) {
  FailPoint& fp = point("test.errno");
  fp.arm(Mode::Once, 1, 0.0, 1, ENOSPC);
  errno = 0;
  EXPECT_TRUE(fp.should_fail());
  EXPECT_EQ(errno, ENOSPC);
  errno = 0;
  EXPECT_FALSE(fp.should_fail());  // exhausted; errno untouched
  EXPECT_EQ(errno, 0);
}

TEST_F(FailPointTest, MacroCachesTheRegistryEntry) {
  FailPoint& a = EDFKIT_FAULT_POINT("test.macro");
  FailPoint& b = EDFKIT_FAULT_POINT("test.macro");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a, &point("test.macro"));
  EXPECT_EQ(a.name(), "test.macro");
}

TEST_F(FailPointTest, ListIsNameOrderedAndStable) {
  (void)point("test.list.b");
  (void)point("test.list.a");
  const std::vector<FailPoint*> all = list();
  const FailPoint* prev = nullptr;
  bool saw_a = false;
  bool saw_b = false;
  for (const FailPoint* fp : all) {
    if (prev != nullptr) {
      EXPECT_LT(prev->name(), fp->name());
    }
    saw_a |= fp->name() == "test.list.a";
    saw_b |= fp->name() == "test.list.b";
    prev = fp;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(FailPointTest, DisarmAllDisarmsEverything) {
  point("test.sweep.a").arm(Mode::Once);
  point("test.sweep.b").arm(Mode::EveryN, 2);
  disarm_all();
  EXPECT_FALSE(point("test.sweep.a").armed());
  EXPECT_FALSE(point("test.sweep.b").armed());
}

// ------------------------------------------------------- spec grammar

TEST_F(FailPointTest, ConfigureArmsMultipleEntries) {
  std::string err;
  ASSERT_TRUE(configure(
      "test.cfg.a=once,errno=ENOSPC;"
      "test.cfg.b=every,n=3,errno=71;"
      "test.cfg.c=prob,p=1,seed=9,short=4",
      &err))
      << err;

  FailPoint& a = point("test.cfg.a");
  EXPECT_EQ(a.mode(), Mode::Once);
  errno = 0;
  EXPECT_TRUE(a.should_fail());
  EXPECT_EQ(errno, ENOSPC);

  FailPoint& b = point("test.cfg.b");
  EXPECT_EQ(b.mode(), Mode::EveryN);
  EXPECT_FALSE(b.consume().fire);
  EXPECT_FALSE(b.consume().fire);
  const FaultResult rb = b.consume();
  EXPECT_TRUE(rb.fire);
  EXPECT_EQ(rb.err, 71);  // numeric errno accepted

  FailPoint& c = point("test.cfg.c");
  EXPECT_EQ(c.mode(), Mode::Random);
  const FaultResult rc = c.consume();
  EXPECT_TRUE(rc.fire);  // p=1 always fires
  EXPECT_EQ(rc.short_len, 4u);
}

TEST_F(FailPointTest, ConfigureToleratesWhitespaceAndEmptyEntries) {
  ASSERT_TRUE(configure("  test.cfg.ws = once ; ; \n"));
  EXPECT_TRUE(point("test.cfg.ws").armed());
  EXPECT_TRUE(configure(""));  // empty spec arms nothing, succeeds
}

TEST_F(FailPointTest, ConfigureOffDisarms) {
  point("test.cfg.off").arm(Mode::Once);
  ASSERT_TRUE(configure("test.cfg.off=off"));
  EXPECT_FALSE(point("test.cfg.off").armed());
}

TEST_F(FailPointTest, ConfigureRejectsMalformedSpecs) {
  const char* bad[] = {
      "noequals",                  // no NAME=MODE shape
      "test.bad=warp",             // unknown mode
      "test.bad=once,bogus=1",     // unknown key
      "test.bad=every,n=abc",      // non-numeric value
      "test.bad=once,errno=EWHAT", // unknown errno name
      "test.bad=once,errno",       // key without value
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(configure(spec, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST_F(FailPointTest, ConfigureKeepsEntriesBeforeTheMalformedOne) {
  std::string err;
  EXPECT_FALSE(configure("test.cfg.keep=once; test.bad=warp", &err));
  EXPECT_TRUE(point("test.cfg.keep").armed());
  EXPECT_FALSE(err.empty());
}

TEST_F(FailPointTest, ConfigureFromEnvArmsAndCounts) {
  ASSERT_EQ(::setenv("EDFKIT_FAULTS", "test.env.a=once;test.env.b=every,n=2",
                     1),
            0);
  EXPECT_EQ(configure_from_env(), 2u);
  EXPECT_TRUE(point("test.env.a").armed());
  EXPECT_TRUE(point("test.env.b").armed());
  ASSERT_EQ(::unsetenv("EDFKIT_FAULTS"), 0);
  disarm_all();
  EXPECT_EQ(configure_from_env(), 0u);  // unset: no-op
}

TEST_F(FailPointTest, PersistSiteListHasNoDuplicates) {
  std::vector<std::string> names(std::begin(kPersistSites),
                                 std::end(kPersistSites));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace edfkit::fault
