/// \file test_decision_pin.cpp
/// Decision pin: replays the fixed-seed churn traces of pin_traces.hpp
/// through AdmissionController and compares, per trace, a digest of the
/// whole decision stream (admitted, rung, verdict, TaskIds, iterations,
/// revisions), the final stats().to_json(), and the final StoreHeader
/// counts against values recorded from an earlier build. Any change to
/// what the ladder decides — or to how many ids, refinements or header
/// publications it spends deciding it — shows up here, so refactors of
/// the controller must leave every row unchanged. A failing row prints
/// its actual values in table form.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "pin_traces.hpp"

namespace edfkit {
namespace {

struct Pinned {
  const char* name;
  std::uint64_t decisions;  ///< Fnv64 of the decision stream
  const char* stats_json;
  std::uint64_t epoch;
  std::uint64_t residents;
  std::uint64_t constrained;
  std::uint64_t live_checkpoints;
  std::uint64_t dead_checkpoints;
  std::uint64_t segments;
};

constexpr Pinned kPinned[] = {
    {"skip-exact-g8-a", 0x3bae022e10647583ull,
     "{\"arrivals\":1809,\"admitted\":880,\"rejected\":929,\"removals\":776,\"groups\":136,\"total_effort\":96529,\"by_rung\":{\"structural\":0,\"utilization\":135,\"approximate\":722,\"exact\":0}}",
     3834, 104, 104, 1470, 695, 41},
    {"skip-exact-g8-b", 0x40f774919145b581ull,
     "{\"arrivals\":1790,\"admitted\":940,\"rejected\":850,\"removals\":842,\"groups\":132,\"total_effort\":63551,\"by_rung\":{\"structural\":0,\"utilization\":134,\"approximate\":732,\"exact\":0}}",
     3738, 98, 98, 1382, 980, 55},
    {"full-ladder-g6", 0xaefa92f7db394db8ull,
     "{\"arrivals\":1317,\"admitted\":836,\"rejected\":481,\"removals\":767,\"groups\":131,\"total_effort\":41197,\"by_rung\":{\"structural\":0,\"utilization\":95,\"approximate\":486,\"exact\":81}}",
     3112, 69, 69, 976, 156, 44},
    {"full-ladder-cert", 0x71011d7151f1c0abull,
     "{\"arrivals\":572,\"admitted\":197,\"rejected\":375,\"removals\":170,\"groups\":111,\"total_effort\":29538,\"by_rung\":{\"structural\":0,\"utilization\":159,\"approximate\":169,\"exact\":22}}",
     1000, 27, 27, 374, 78, 1},
    {"global-m4-cert", 0x3f38285fed0ec3feull,
     "{\"arrivals\":459,\"admitted\":181,\"rejected\":278,\"removals\":113,\"groups\":50,\"total_effort\":5726498,\"by_rung\":{\"structural\":0,\"utilization\":160,\"approximate\":0,\"exact\":149}}",
     1108, 68, 68, 272, 56, 1},
    {"global-m8", 0x5f1f5c27c3eb34ceull,
     "{\"arrivals\":451,\"admitted\":179,\"rejected\":272,\"removals\":75,\"groups\":40,\"total_effort\":23970231,\"by_rung\":{\"structural\":0,\"utilization\":146,\"approximate\":0,\"exact\":185}}",
     1160, 104, 104, 416, 40, 1},
    {"global-m8-skip", 0x34556d0d0dda1d96ull,
     "{\"arrivals\":424,\"admitted\":165,\"rejected\":259,\"removals\":58,\"groups\":31,\"total_effort\":3567640,\"by_rung\":{\"structural\":0,\"utilization\":135,\"approximate\":196,\"exact\":0}}",
     1160, 107, 107, 428, 124, 1},
    {"global-m2-small", 0xf27e4a4306ee7982ull,
     "{\"arrivals\":234,\"admitted\":97,\"rejected\":137,\"removals\":84,\"groups\":28,\"total_effort\":143223,\"by_rung\":{\"structural\":0,\"utilization\":76,\"approximate\":27,\"exact\":75}}",
     688, 13, 12, 36, 27, 1},
};

const Pinned* pinned(const std::string& name) {
  for (const Pinned& p : kPinned) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

std::string row(const char* name, std::uint64_t decisions,
                const std::string& json, const StoreHeader& h) {
  std::string escaped;
  for (const char c : json) {
    if (c == '"') escaped += '\\';
    escaped += c;
  }
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", 0x%016" PRIx64 "ull,\n \"%s\",\n %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 "},",
                name, decisions, escaped.c_str(), h.epoch, h.residents,
                h.constrained, h.live_checkpoints, h.dead_checkpoints,
                h.segments);
  return buf;
}

TEST(DecisionPin, EveryTraceMatchesItsRecordedDecisions) {
  for (const testing::PinTrace& trace : testing::pin_traces()) {
    AdmissionController ctl(trace.options);
    testing::PinDriver driver{ctl, {}, {}};
    for (const TraceEvent& ev : testing::pin_events(trace)) driver.step(ev);

    const std::string json = ctl.stats().to_json();
    const StoreHeader h = ctl.demand_header();
    const std::string actual = row(trace.name, driver.digest.h, json, h);
    const Pinned* p = pinned(trace.name);
    if (p == nullptr) {
      ADD_FAILURE() << "no pinned row; actual:\n" << actual;
      continue;
    }
    EXPECT_EQ(driver.digest.h, p->decisions) << actual;
    EXPECT_EQ(json, p->stats_json) << actual;
    EXPECT_EQ(h.epoch, p->epoch) << actual;
    EXPECT_EQ(h.residents, p->residents) << actual;
    EXPECT_EQ(h.constrained, p->constrained) << actual;
    EXPECT_EQ(h.live_checkpoints, p->live_checkpoints) << actual;
    EXPECT_EQ(h.dead_checkpoints, p->dead_checkpoints) << actual;
    EXPECT_EQ(h.segments, p->segments) << actual;
    EXPECT_TRUE(ctl.verify_consistency()) << trace.name;
  }
}

}  // namespace
}  // namespace edfkit
