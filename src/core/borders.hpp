/// \file borders.hpp
/// Superposition borders recorded by a certifying exact walk.
///
/// A Feasible walk of the dynamic (§4.1) or all-approximated (§4.2) test
/// ends with every task on its envelope past a per-task border: the last
/// job deadline at which the walk approximated it. By Lemmas 1/3/4 those
/// borders are exactly the evidence a FeasibleBorders certificate
/// carries (query/certificate.hpp): between the walk's test points its
/// dbf' grows with slope <= U <= 1, and the checker's dbf' — exact up to
/// each border, envelope beyond — never exceeds the walk's.
///
/// A walk handed a `WalkBorders` does not stop at its feasibility bound:
/// it walks on until the test list drains and records the borders there.
/// Its verdict and every FeasibilityResult field are still the ones it
/// had at the bound. It gives up the borders, and returns its at-bound
/// result, when past the bound it
///   - takes more than `step_cap` steps in all (test-list pops plus
///     revised tasks, counted from its start),
///   - hits the dynamic test's level cap, or
///   - meets demand above capacity with nothing left to revise (which a
///     sound verdict rules out; never certify then).
/// Before the bound, passing the cap only drops the borders: the walk
/// runs on to its verdict as an uncertified walk would. A walk with no
/// bound (`bound = kTimeInfinity`) decides only at its drain, so passing
/// the cap ends it with verdict Unknown, where an uncertified walk would
/// run on. That stop is the certificate builder's; Query never certifies
/// a walk with no bound.
///
/// A one-shot task the dynamic walk keeps exact past its only deadline
/// gets that deadline as its border: from there on its exact dbf is its
/// envelope.
///
/// Only a set with U < 1 proven walks past its bound. At U == 1 the
/// fully approximated demand I + sum U_i (T_i - D_i) grows at the
/// capacity's own slope, so when that offset is positive it never fits
/// and the list never drains: such a walk would only burn the step cap
/// before the query fell back to the builder (which skips the walk for
/// such a set, query/certificate.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "util/math.hpp"

namespace edfkit {

struct WalkBorders {
  /// In: steps the walk may take to its drain (see above).
  std::uint64_t step_cap = 0;
  /// Out: true when the walk drained within the cap; `borders` then
  /// holds each task's last approximation point, in task order.
  bool complete = false;
  std::vector<Time> borders;
};

}  // namespace edfkit
