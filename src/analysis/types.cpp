#include "analysis/types.hpp"

#include <sstream>

namespace edfkit {

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::Feasible: return "feasible";
    case Verdict::Infeasible: return "infeasible";
    case Verdict::Unknown: return "unknown";
  }
  return "?";
}

std::string FeasibilityResult::to_string() const {
  std::ostringstream os;
  os << edfkit::to_string(verdict) << " iterations=" << iterations
     << " revisions=" << revisions;
  if (witness >= 0) os << " witness=" << witness;
  if (final_level > 0) os << " level=" << final_level;
  if (degraded) os << " [degraded]";
  return os.str();
}

FeasibilityResult make_verdict(Verdict v) noexcept {
  FeasibilityResult r;
  r.verdict = v;
  return r;
}

}  // namespace edfkit
