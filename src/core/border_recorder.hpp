/// \file border_recorder.hpp
/// The bookkeeping the dynamic and all-approximated walks share when
/// they certify themselves (core/borders.hpp has the semantics). Used by
/// their two sources only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "analysis/types.hpp"
#include "core/borders.hpp"
#include "util/math.hpp"

namespace edfkit {

/// Step count, at-bound result and border record of one walk. Inert
/// (every call a no-op or `false`) without a `WalkBorders`, so an
/// uncertified walk runs exactly as before.
class BorderRecorder {
 public:
  /// `below_one`: the set's U < 1 is proven; only then does the walk go
  /// past its bound (core/borders.hpp).
  BorderRecorder(WalkBorders* out, std::size_t tasks, Time bound,
                 bool below_one)
      : out_(out), certifying_(out != nullptr),
        unbounded_(is_time_infinite(bound)), below_one_(below_one) {
    if (out_ != nullptr) {
      out_->complete = false;
      out_->borders.assign(tasks, 0);
    }
  }

  /// The next test point lies past the bound and `r` (verdict aside) is
  /// the walk's result there. True when the walk goes on to its drain.
  bool walk_past_bound(const FeasibilityResult& r) {
    certifying_ = certifying_ && below_one_;
    if (!certifying_) return false;
    at_bound_ = r;
    at_bound_->verdict = Verdict::Feasible;
    return true;
  }
  [[nodiscard]] bool past_bound() const noexcept {
    return at_bound_.has_value();
  }
  [[nodiscard]] const FeasibilityResult& at_bound() const noexcept {
    return *at_bound_;
  }

  /// Count one step. True when the walk must stop now and return
  /// `capped(r)`: it passed the cap past its bound, or with no bound.
  bool step() {
    if (!certifying_ || ++steps_ <= out_->step_cap) return false;
    certifying_ = false;
    return past_bound() || unbounded_;
  }
  [[nodiscard]] FeasibilityResult capped(FeasibilityResult r) const {
    if (at_bound_) return *at_bound_;
    r.verdict = Verdict::Unknown;
    return r;
  }

  /// `point`, a job deadline of `task`, is its border so far: the walk
  /// approximated it there, or it is a one-shot task kept exact past its
  /// only deadline (core/borders.hpp).
  void record(std::size_t task, Time point) {
    if (certifying_) out_->borders[task] = point;
  }

  /// The test list drained: the walk's Feasible result (`r` when it
  /// never passed its bound).
  [[nodiscard]] FeasibilityResult drained(FeasibilityResult r) {
    if (certifying_) out_->complete = true;
    if (at_bound_) return *at_bound_;
    r.verdict = Verdict::Feasible;
    return r;
  }

 private:
  WalkBorders* out_;
  bool certifying_;
  bool unbounded_;
  bool below_one_;
  std::uint64_t steps_ = 0;
  std::optional<FeasibilityResult> at_bound_;
};

}  // namespace edfkit
