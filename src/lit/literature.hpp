/// \file literature.hpp
/// Reconstructions of the five literature task sets of paper Table 1.
///
/// The paper cites the sets (Burns; modified Ma & Shin; Generic Avionics
/// Platform; Gresser 1/2) without printing their parameters, and the
/// primary sources are not available offline. Each set here is a
/// *documented reconstruction* engineered to the properties Table 1
/// exhibits:
///   * sizes between 7 and 21 tasks (§5),
///   * Burns and GAP accepted by Devi's test (Devi column == n),
///   * Ma & Shin and both Gresser sets REJECTED by Devi yet exactly
///     feasible (Devi column "FAILED"),
///   * the Gresser sets specified as event streams with bursts and
///     expanded to sporadic tasks (§3.6),
///   * processor-demand iteration counts an order of magnitude (or more)
///     above the new tests'.
/// bench/table1_literature prints the measured Table 1; its file comment
/// lists the paper's values.
#pragma once

#include <string>
#include <vector>

#include "model/event_stream.hpp"
#include "model/task_set.hpp"

namespace edfkit::lit {

/// One named benchmark set with its documented expectations.
struct LiteratureSet {
  std::string name;
  TaskSet tasks;
  bool devi_accepts = false;  ///< Table 1: Devi column is a count, not FAILED
  bool feasible = true;       ///< exact-test ground truth
};

/// 14-task set in the style of the Burns example used in [1]
/// (mixed-rate control loops, moderate utilization, Devi-acceptable).
[[nodiscard]] LiteratureSet burns_set();

/// Modified Ma & Shin style set: high utilization multimedia/control mix
/// whose late deadlines defeat Devi's envelope but which is feasible.
[[nodiscard]] LiteratureSet ma_shin_set();

/// Generic Avionics Platform (Locke et al.) style set: 18 avionics
/// periodic functions, harmonically-flavoured periods, Devi-acceptable.
[[nodiscard]] LiteratureSet gap_set();

/// Gresser dissertation style event-stream example 1: sporadic streams
/// with one burst source, expanded to sporadic tasks.
[[nodiscard]] LiteratureSet gresser1_set();

/// Gresser style example 2: heavier bursts, more streams.
[[nodiscard]] LiteratureSet gresser2_set();

/// All five, in Table-1 order.
[[nodiscard]] std::vector<LiteratureSet> all_literature_sets();

}  // namespace edfkit::lit
