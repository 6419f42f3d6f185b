#include "query/registry.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "analysis/chakraborty.hpp"
#include "analysis/devi.hpp"
#include "analysis/multi/global_tests.hpp"
#include "analysis/processor_demand.hpp"
#include "analysis/qpa.hpp"
#include "analysis/utilization.hpp"
#include "core/all_approx.hpp"
#include "core/dynamic_test.hpp"
#include "core/superpos.hpp"
#include "rtc/rtc_feas.hpp"
#include "sim/oracle.hpp"

namespace edfkit {
namespace {

FeasibilityResult run_liu_layland(const TaskSet& ts, const Platform&,
                                  const BackendParams&) {
  return liu_layland_test(ts);
}
FeasibilityResult run_devi(const TaskSet& ts, const Platform&,
                           const BackendParams&) {
  return devi_test(ts);
}
FeasibilityResult run_superpos(const TaskSet& ts, const Platform&,
                               const BackendParams& p) {
  return superpos_test(ts, std::get<SuperPosParams>(p).level);
}
FeasibilityResult run_chakraborty(const TaskSet& ts, const Platform&,
                                  const BackendParams& p) {
  return chakraborty_test(ts, std::get<ChakrabortyParams>(p).epsilon).base;
}
FeasibilityResult run_processor_demand(const TaskSet& ts, const Platform&,
                                       const BackendParams& p) {
  return processor_demand_test(ts, std::get<ProcessorDemandOptions>(p));
}
FeasibilityResult run_qpa(const TaskSet& ts, const Platform&,
                          const BackendParams&) {
  return qpa_test(ts);
}
FeasibilityResult run_dynamic(const TaskSet& ts, const Platform&,
                              const BackendParams& p) {
  return dynamic_error_test(ts, std::get<DynamicTestOptions>(p));
}
FeasibilityResult run_all_approx(const TaskSet& ts, const Platform&,
                                 const BackendParams& p) {
  return all_approx_test(ts, std::get<AllApproxOptions>(p));
}
FeasibilityResult certify_dynamic(const TaskSet& ts, const BackendParams& p,
                                  WalkBorders& borders) {
  return dynamic_error_test(ts, std::get<DynamicTestOptions>(p), &borders);
}
FeasibilityResult certify_all_approx(const TaskSet& ts,
                                     const BackendParams& p,
                                     WalkBorders& borders) {
  return all_approx_test(ts, std::get<AllApproxOptions>(p), &borders);
}
FeasibilityResult run_rtc_curve(const TaskSet& ts, const Platform&,
                                const BackendParams&) {
  return rtc::rtc_feasibility_test(ts);
}
FeasibilityResult run_devi_envelope(const TaskSet& ts, const Platform&,
                                    const BackendParams&) {
  return rtc::devi_envelope_test(ts);
}

FeasibilityResult run_gfb(const TaskSet& ts, const Platform& p,
                          const BackendParams&) {
  return multi::gfb_density_test(ts, p);
}
FeasibilityResult run_global_bcl(const TaskSet& ts, const Platform& p,
                                 const BackendParams&) {
  return multi::global_bcl_test(ts, p);
}
FeasibilityResult run_global_bcl_iter(const TaskSet& ts, const Platform& p,
                                      const BackendParams& params) {
  multi::GlobalTestConfig cfg;
  cfg.max_rounds = std::get<GlobalBclIterParams>(params).max_rounds;
  return multi::global_bcl_iterative_test(ts, p, cfg);
}
FeasibilityResult run_global_load(const TaskSet& ts, const Platform& p,
                                  const BackendParams& params) {
  multi::GlobalTestConfig cfg;
  cfg.max_load_points = std::get<GlobalLoadParams>(params).max_points;
  return multi::global_load_test(ts, p, cfg);
}
FeasibilityResult run_global_rta(const TaskSet& ts, const Platform& p,
                                 const BackendParams& params) {
  const auto& rp = std::get<GlobalRtaParams>(params);
  multi::GlobalTestConfig cfg;
  cfg.max_rounds = rp.max_rounds;
  cfg.max_rta_iterations = rp.max_iterations;
  return multi::global_rta_test(ts, p, cfg);
}
FeasibilityResult run_global_sim(const TaskSet& ts, const Platform& p,
                                 const BackendParams& params) {
  OracleConfig cfg;
  cfg.max_horizon = std::get<GlobalSimParams>(params).max_horizon;
  return simulate_global_feasibility(ts, p.m, cfg);
}

/// Classic Levenshtein distance with an early-out band; names are short
/// so the quadratic table is trivial.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

UnknownBackendError::UnknownBackendError(std::string name,
                                         std::vector<std::string> candidates)
    : std::invalid_argument([&] {
        std::string msg = "unknown backend \"" + name + "\"";
        if (!candidates.empty()) {
          msg += "; did you mean ";
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (i != 0) msg += ", ";
            msg += "\"" + candidates[i] + "\"";
          }
          msg += "?";
        }
        return msg;
      }()),
      name_(std::move(name)),
      candidates_(std::move(candidates)) {}

const char* to_string(TestKind k) noexcept {
  const BackendInfo* info = BackendRegistry::instance().find(k);
  return info != nullptr ? info->name : "?";
}

BackendRegistry::BackendRegistry() {
  constexpr std::uint8_t kUni = kPlatformUniprocessor;
  constexpr std::uint8_t kGlb = kPlatformGlobal;
  // Registration order == TestKind declaration order == sweep order.
  // LiuLayland does not take event streams: the offset expansion folds
  // tuple offsets into deadlines, so the implicit-deadline acceptance
  // direction never applies to genuinely bursty streams and only the
  // vacuous U > 1 direction would remain.
  // The global backends take tasks only: the stream expansion's folded
  // offsets read as jitter to the multi gates, which answer Unknown.
  backends_ = {
      {TestKind::LiuLayland, "liu-layland",
       "utilization bound [12]; exact for implicit deadlines",
       /*exact=*/false, /*tasks=*/true, /*streams=*/false,
       /*incremental=*/true, kUni, &run_liu_layland, nullptr},
      {TestKind::Devi, "devi", "sufficient density test [9]",
       /*exact=*/false, true, true, /*incremental=*/false, kUni, &run_devi,
       nullptr},
      {TestKind::SuperPos, "superpos",
       "superposition approximation SuperPos(x) [1]",
       /*exact=*/false, true, true, /*incremental=*/false, kUni,
       &run_superpos, nullptr},
      {TestKind::Chakraborty, "chakraborty",
       "epsilon-approximate analysis [8]",
       /*exact=*/false, true, true, /*incremental=*/true, kUni,
       &run_chakraborty, nullptr},
      {TestKind::ProcessorDemand, "processor-demand",
       "classic exact processor-demand test [3]",
       /*exact=*/true, true, true, /*incremental=*/false, kUni,
       &run_processor_demand, nullptr},
      {TestKind::Qpa, "qpa", "quick processor-demand analysis (exact)",
       /*exact=*/true, true, true, /*incremental=*/false, kUni, &run_qpa,
       nullptr},
      {TestKind::Dynamic, "dynamic",
       "dynamic-error exact test (paper 4.1)",
       /*exact=*/true, true, true, /*incremental=*/false, kUni,
       &run_dynamic, &certify_dynamic},
      {TestKind::AllApprox, "all-approx",
       "all-approximated exact test (paper 4.2)",
       /*exact=*/true, true, true, /*incremental=*/false, kUni,
       &run_all_approx, &certify_all_approx},
      {TestKind::RtcCurve, "rtc-curve",
       "real-time-calculus 2-segment curve test (3.6, sufficient)",
       /*exact=*/false, true, true, /*incremental=*/false, kUni,
       &run_rtc_curve, nullptr},
      {TestKind::DeviEnvelope, "devi-envelope",
       "Devi envelopes on the curve machinery (3.6, sufficient)",
       /*exact=*/false, true, true, /*incremental=*/false, kUni,
       &run_devi_envelope, nullptr},
      {TestKind::GfbDensity, "gfb",
       "global-EDF density bound (GFB) + O(n) infeasibility gates",
       /*exact=*/false, true, /*streams=*/false, /*incremental=*/true, kGlb,
       &run_gfb, nullptr},
      {TestKind::GlobalBcl, "gbl-bcl",
       "global-EDF one-pass window test (BCL-style)",
       /*exact=*/false, true, false, /*incremental=*/false, kGlb,
       &run_global_bcl, nullptr},
      {TestKind::GlobalBclIterative, "gbl-bcl-iter",
       "global-EDF slack-iterated window test",
       /*exact=*/false, true, false, /*incremental=*/false, kGlb,
       &run_global_bcl_iter, nullptr},
      {TestKind::GlobalLoad, "gbl-load",
       "global-EDF busy-window/load sweep",
       /*exact=*/false, true, false, /*incremental=*/false, kGlb,
       &run_global_load, nullptr},
      {TestKind::GlobalRta, "gbl-rta",
       "global-EDF response-time analysis (slack-iterated)",
       /*exact=*/false, true, false, /*incremental=*/false, kGlb,
       &run_global_rta, nullptr},
      {TestKind::GlobalSim, "gbl-sim",
       "m-processor EDF simulation rung (decisive closer)",
       /*exact=*/false, true, false, /*incremental=*/false, kGlb,
       &run_global_sim, nullptr},
  };
}

const BackendRegistry& BackendRegistry::instance() {
  static const BackendRegistry registry;
  return registry;
}

const BackendInfo* BackendRegistry::find(TestKind k) const noexcept {
  for (const BackendInfo& b : backends_) {
    if (b.kind == k) return &b;
  }
  return nullptr;
}

const BackendInfo* BackendRegistry::find(
    std::string_view name) const noexcept {
  for (const BackendInfo& b : backends_) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

const BackendInfo& BackendRegistry::resolve(std::string_view name) const {
  if (const BackendInfo* info = find(name)) return *info;
  throw UnknownBackendError(std::string(name), suggestions(name));
}

std::vector<std::string> BackendRegistry::suggestions(
    std::string_view name) const {
  std::vector<std::string> close;
  for (const BackendInfo& b : backends_) {
    const std::string_view bn = b.name;
    const bool substr = !name.empty() && (bn.find(name) != std::string_view::npos ||
                                          name.find(bn) != std::string_view::npos);
    if (substr || edit_distance(name, bn) <= 2) close.emplace_back(bn);
  }
  if (!close.empty()) return close;
  std::vector<std::string> all_names;
  for (const BackendInfo& b : backends_) all_names.emplace_back(b.name);
  return all_names;
}

std::vector<TestKind> BackendRegistry::kinds_for(WorkloadKind w) const {
  std::vector<TestKind> out;
  for (const BackendInfo& b : backends_) {
    if (b.supports(w)) out.push_back(b.kind);
  }
  return out;
}

std::vector<TestKind> BackendRegistry::kinds_for(const Platform& p) const {
  std::vector<TestKind> out;
  for (const BackendInfo& b : backends_) {
    if (b.supports(p)) out.push_back(b.kind);
  }
  return out;
}

std::string BackendRegistry::capability_table() const {
  std::ostringstream os;
  os << std::left << std::setw(18) << "backend" << std::setw(8) << "exact"
     << std::setw(8) << "tasks" << std::setw(9) << "streams"
     << std::setw(13) << "incremental" << std::setw(10) << "platform"
     << "summary\n";
  for (const BackendInfo& b : backends_) {
    const bool uni = (b.platform_caps & kPlatformUniprocessor) != 0;
    const bool glb = (b.platform_caps & kPlatformGlobal) != 0;
    const char* platform = uni && glb ? "any" : glb ? "global" : "uni";
    os << std::left << std::setw(18) << b.name << std::setw(8)
       << (b.exact ? "yes" : "no") << std::setw(8)
       << (b.supports_tasks ? "yes" : "no") << std::setw(9)
       << (b.supports_streams ? "yes" : "no") << std::setw(13)
       << (b.incremental ? "yes" : "no") << std::setw(10) << platform
       << b.summary << "\n";
  }
  return os.str();
}

const std::vector<TestKind>& all_test_kinds() {
  static const std::vector<TestKind> kinds = [] {
    std::vector<TestKind> out;
    for (const BackendInfo& b : BackendRegistry::instance().all()) {
      out.push_back(b.kind);
    }
    return out;
  }();
  return kinds;
}

bool is_exact(TestKind k) noexcept {
  const BackendInfo* info = BackendRegistry::instance().find(k);
  return info != nullptr && info->exact;
}

}  // namespace edfkit
