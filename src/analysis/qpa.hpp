/// \file qpa.hpp
/// Quick Processor-demand Analysis (Zhang & Burns, "Schedulability
/// Analysis for Real-Time Systems with EDF Scheduling", IEEE TC 2009).
///
/// QPA post-dates the reproduced paper; we include it as the natural
/// "future work" comparator: a different strategy for taming the
/// processor-demand test that walks *backwards* from the feasibility
/// bound, jumping from interval to interval via the dbf value itself:
///
///   t = max{ d | d < L }
///   while dbf(t) <= t and dbf(t) > min_deadline:
///       t = (dbf(t) < t) ? dbf(t) : max{ d | d < t }
///   feasible iff dbf(t) <= min_deadline
///
/// Each loop step costs O(n) (one dbf evaluation + one predecessor-
/// deadline scan); `iterations` counts loop steps so effort numbers are
/// comparable with the other tests' interval counts.
#pragma once

#include "analysis/types.hpp"
#include "model/task_set.hpp"

namespace edfkit {

/// Exact EDF feasibility via QPA. Requires U <= 1 precheck like PDA.
[[nodiscard]] FeasibilityResult qpa_test(const TaskSet& ts);

}  // namespace edfkit
