#include "admission/incremental_dbf.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "demand/approx.hpp"
#include "demand/dbf.hpp"

namespace edfkit {
namespace {

constexpr Int128 kS = kFixedPointScale;
constexpr double kInvS = 1.0 / 4611686018427387904.0;  // 2^-62

/// Below this many checkpoints the store stays single-segment: one flat
/// array scans faster than any index can save.
constexpr std::size_t kMinIndexSteps = 192;

/// Resident-count hysteresis for index engagement: the per-update bound
/// maintenance (slack_adjust, neighbor discovery) only pays for itself
/// once scans are long. The 16-task gap means churn oscillating around
/// either threshold cannot thrash engage/disengage transitions.
constexpr std::size_t kIndexOnResidents = 48;
constexpr std::size_t kIndexOffResidents = 32;

/// Deferred compaction: a segment (or the id index) compacts once its
/// tombstones are at least this many *and* at least a quarter (half for
/// ids) of the array — amortized O(1) per removal either way.
constexpr std::size_t kMinDeadForCompact = 32;

/// Per-task certified utilization pair. Matches scaled_utilization_bounds
/// term-for-term so incremental sums equal the from-scratch bounds.
ScaledPair task_util_pair(const Task& t) {
  if (is_time_infinite(t.period)) return {0, 0};
  return scale_fraction(static_cast<Int128>(t.wcet),
                        static_cast<Int128>(t.period));
}

/// Per-task certified pair for u * border = C * border / T.
ScaledPair task_offset_pair(const Task& t, Time border) {
  return scale_fraction(static_cast<Int128>(t.wcet) * border,
                        static_cast<Int128>(t.period));
}

/// Per-task certified pair for K_t = C * (T - D_eff) / T = C - C*D_eff/T
/// (a one-shot task's envelope is the constant C, so K_t = C). May be
/// negative for D_eff > T.
ScaledPair task_kay_pair(const Task& t) {
  const Int128 c = static_cast<Int128>(t.wcet) * kS;
  if (is_time_infinite(t.period)) return {c, c};
  const ScaledPair f =
      scale_fraction(static_cast<Int128>(t.wcet) * t.effective_deadline(),
                     static_cast<Int128>(t.period));
  return {c - f.hi, c - f.lo};
}

/// Cheap certified bounds on (num/den)*S via double division: IEEE
/// relative error is ~2^-52, far inside the 1e-9 safety inflation, and
/// the certificate only needs *some* valid bound — int128 divmods here
/// would dominate the per-update cost. \pre num >= 0, den > 0
Int128 frac_upper(Int128 num, Int128 den) {
  const double q = static_cast<double>(num) / static_cast<double>(den);
  return static_cast<Int128>(q * (1.0 + 1e-9) * static_cast<double>(kS)) + 1;
}
Int128 frac_lower(Int128 num, Int128 den) {
  const double q = static_cast<double>(num) / static_cast<double>(den);
  const Int128 v =
      static_cast<Int128>(q * (1.0 - 1e-9) * static_cast<double>(kS)) - 1;
  return v > 0 ? v : 0;
}

/// S-scaled upper bound on the contribution ratio of t at intervals
/// >= x: the envelope ratio u + K_t/I is decreasing for K_t >= 0 (its
/// value at max(x, D_eff)), and at most u for K_t < 0.
Int128 region_charge(const Task& t, Time x) {
  const Time from = std::max(x, t.effective_deadline());
  if (is_time_infinite(t.period)) {
    // One-shot: constant envelope C, ratio C/I decreasing.
    return frac_upper(static_cast<Int128>(t.wcet),
                      static_cast<Int128>(from));
  }
  if (t.effective_deadline() > t.period) {
    return task_util_pair(t).hi;  // K_t < 0: ratio rises toward u
  }
  // u + K_t/from == C*(from - D_eff + T) / (T*from) in one division.
  const Int128 num =
      static_cast<Int128>(t.wcet) *
      (static_cast<Int128>(from) - t.effective_deadline() + t.period);
  const Int128 den =
      static_cast<Int128>(t.period) * static_cast<Int128>(from);
  return frac_upper(num, den);
}

/// S-scaled lower bound on the contribution ratio of t over intervals
/// in [x, to_excl): both its exact steps and its envelope satisfy
/// contribution(I) >= max(C, u*(I - D_eff)) for I >= D_eff, whose two
/// ratio terms are monotone (C/I falls, u*(1 - D_eff/I) rises), so the
/// region minimum is max(C/to_excl, u*(1 - D_eff/x)). Zero if the
/// region reaches below D_eff. Used to credit the certificate (and the
/// slack index) when t departs — departures *restore* fast-path
/// headroom.
Int128 region_credit(const Task& t, Time x, Time to_excl) {
  const Time d = t.effective_deadline();
  if (x < d) return 0;
  Int128 credit = 0;
  if (!is_time_infinite(to_excl)) {
    credit = frac_lower(static_cast<Int128>(t.wcet),
                        static_cast<Int128>(to_excl));
  }
  if (!is_time_infinite(t.period) && x > d) {
    const Int128 num =
        static_cast<Int128>(t.wcet) * (static_cast<Int128>(x) - d);
    credit = std::max(credit,
                      frac_lower(num, static_cast<Int128>(t.period) *
                                          static_cast<Int128>(x)));
  }
  return credit;
}

/// Component-wise signed accumulation: lo into lo, hi into hi. This is
/// the exact inverse required for drift-free removal (ScaledPair's -=
/// is interval subtraction, which widens instead).
void accumulate(ScaledPair& dst, const ScaledPair& src, int sign) {
  dst.lo += sign * src.lo;
  dst.hi += sign * src.hi;
}

}  // namespace

IncrementalDemand::IncrementalDemand(double epsilon)
    : engage_at_(kIndexOnResidents),
      disengage_below_(kIndexOffResidents) {
  if (!(epsilon > 0.0) || epsilon > 1.0) {
    throw std::invalid_argument(
        "IncrementalDemand: epsilon in (0,1] required");
  }
  k_ = static_cast<Time>(std::ceil(1.0 / epsilon));
  segs_.emplace_back();  // one segment covering [0, infinity)
  cert_x_.fill(0);
  cert_region_.fill(kS);  // the empty set is fully slack everywhere
  bump_epoch();
}

void IncrementalDemand::set_index_thresholds(std::size_t engage_at,
                                             std::size_t disengage_below) {
  if (disengage_below > engage_at) {
    throw std::invalid_argument(
        "IncrementalDemand: disengage_below <= engage_at required");
  }
  engage_at_ = engage_at;
  disengage_below_ = disengage_below;
  update_index_engagement();
}

void IncrementalDemand::update_index_engagement() {
  if (!index_engaged_ && view_.size() >= engage_at_) {
    index_engaged_ = true;  // bounds start dirty; the next scan measures
  } else if (index_engaged_ && view_.size() < disengage_below_) {
    index_engaged_ = false;
    // Nothing maintains the bounds while disengaged — they must not be
    // trusted if the index later re-engages.
    for (Segment& g : segs_) g.min_ratio = -1.0;
  }
}

std::size_t IncrementalDemand::segment_of(Time at) const noexcept {
  // Last segment with lo <= at (segs_[0].lo is always 0).
  std::size_t lo = 0;
  std::size_t hi = segs_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (segs_[mid].lo <= at) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Time IncrementalDemand::step_time_at(std::size_t idx) const noexcept {
  // Live indexing keeps certificate cut anchors independent of when
  // tombstones are reclaimed (a store and its rebuild() decide alike);
  // the dead-skip walk only runs for segments that hold tombstones, a
  // few per check at most.
  for (const Segment& g : segs_) {
    const std::size_t live = g.steps.size() - g.dead;
    if (idx < live) {
      if (g.dead == 0) return g.steps[idx].at;
      for (const StepEntry& e : g.steps) {
        if (e.refs == 0) continue;
        if (idx == 0) return e.at;
        --idx;
      }
    }
    idx -= live;
  }
  return kTimeInfinity;  // unreachable for idx < total_steps_
}

void IncrementalDemand::slack_note_new_time(std::size_t seg, Time pred,
                                            Time succ) {
  Segment& g = segs_[seg];
  if (g.min_ratio < 0.0) return;  // already dirty
  // A new checkpoint splits an existing demand segment. Demand is
  // affine between existing checkpoints (steps and envelope borders
  // only change at them), so the slack *ratio* is monotone there and
  // the interior is bounded by the smaller endpoint ratio; with no
  // predecessor the demand left of the first checkpoint is zero
  // (ratio 1). A time beyond the last checkpoint has no right anchor:
  // the segment goes dirty and the next scan measures it.
  if (succ < 0) {
    g.min_ratio = -1.0;
    return;
  }
  double m = 1.0;
  const double sm = segs_[segment_of(succ)].min_ratio;
  if (sm < 0.0) {
    g.min_ratio = -1.0;
    return;
  }
  m = std::min(m, sm);
  if (pred >= 0) {
    const double pm = segs_[segment_of(pred)].min_ratio;
    if (pm < 0.0) {
      g.min_ratio = -1.0;
      return;
    }
    m = std::min(m, pm);
  }
  g.min_ratio = std::min(g.min_ratio, m);
}

void IncrementalDemand::slack_adjust(const Task& t, int sign) {
  slack_adjust(std::span<const Task>(&t, 1), sign);
}

void IncrementalDemand::slack_adjust(std::span<const Task> tasks,
                                     int sign) {
  // Double-arithmetic mirror of region_charge/region_credit: this runs
  // per segment on *every* add/remove, so the Int128 helpers are too
  // heavy. IEEE relative error (~2^-52) sits far inside the 1e-9
  // inflation/deflation, so charges stay certified upper bounds and
  // credits certified lower bounds. Group updates walk the segment
  // array once, applying every task's charge/credit to a segment
  // before moving on — same per-task arithmetic, one pass of segment
  // traffic.
  for (Segment& g : segs_) {
    for (const Task& t : tasks) {
      if (g.min_ratio < 0.0) break;
      const Time d = t.effective_deadline();
      if (g.hi <= d) continue;  // the task contributes nothing below D
      const double c_d = static_cast<double>(t.wcet);
      const double t_d = static_cast<double>(t.period);
      const double d_d = static_cast<double>(d);
      const bool one_shot = is_time_infinite(t.period);
      const double from = static_cast<double>(std::max(g.lo, d));
      if (sign > 0) {
        // Upper bound on the contribution ratio at I >= g.lo (the
        // envelope ratio, decreasing for K >= 0; at most u for K < 0).
        double charge;
        if (one_shot) {
          charge = c_d / from;
        } else if (d > t.period) {
          charge = (c_d / t_d) * (1.0 + 1e-9);
        } else {
          charge = c_d * (from - d_d + t_d) / (t_d * from);
        }
        g.min_ratio -= charge * (1.0 + 1e-9) + 1e-15;
        if (g.min_ratio < 0.0) g.min_ratio = -1.0;
      } else {
        // Lower bound on the restored ratio over [lo, hi): max of the
        // monotone pieces C/hi and u*(1 - D/lo), deflated.
        double credit = 0.0;
        if (g.lo >= d) {
          if (!is_time_infinite(g.hi)) {
            credit = c_d / static_cast<double>(g.hi);
          }
          if (!one_shot && g.lo > d) {
            const double lo_d = static_cast<double>(g.lo);
            credit = std::max(credit, (c_d / t_d) * (lo_d - d_d) / lo_d);
          }
          credit = credit * (1.0 - 1e-9) - 1e-15;
          if (credit < 0.0) credit = 0.0;
        }
        g.min_ratio = std::min(g.min_ratio + credit, 2.0);
      }
    }
  }
}

void IncrementalDemand::compact_segment(Segment& g) {
  ++compactions_;
  if (g.dead != 0) {
    std::erase_if(g.steps, [](const StepEntry& e) { return e.refs == 0; });
    dead_steps_ -= g.dead;
    g.dead = 0;
  }
  if (g.dead_borders != 0) {
    std::erase_if(g.borders,
                  [](const BorderEntry& e) { return e.refs == 0; });
    g.dead_borders = 0;
  }
}

void IncrementalDemand::resegment() {
  // Flatten the store (dropping tombstones — resegmentation is a full
  // compaction), pick fresh boundaries that equidistribute the live
  // checkpoints, and redistribute. All cached bounds restart dirty.
  std::vector<StepEntry> steps;
  steps.reserve(total_steps_);
  std::vector<BorderEntry> borders;
  for (Segment& g : segs_) {
    for (const StepEntry& e : g.steps) {
      if (e.refs != 0) steps.push_back(e);
    }
    for (const BorderEntry& e : g.borders) {
      if (e.refs != 0) borders.push_back(e);
    }
  }
  dead_steps_ = 0;
  seg_built_steps_ = steps.size();
  const std::size_t want =
      (!index_engaged_ || steps.size() < kMinIndexSteps)
          ? 1
          : std::clamp<std::size_t>(steps.size() / 24, 4, 64);
  std::vector<Time> los{0};
  for (std::size_t j = 1; j < want; ++j) {
    const Time lo = steps[j * steps.size() / want].at;
    if (lo != los.back()) los.push_back(lo);
  }
  segs_.assign(los.size(), Segment{});
  for (std::size_t j = 0; j < segs_.size(); ++j) {
    segs_[j].lo = los[j];
    segs_[j].hi = j + 1 < segs_.size() ? los[j + 1] : kTimeInfinity;
  }
  std::size_t gi = 0;
  for (const StepEntry& e : steps) {
    while (gi + 1 < segs_.size() && e.at >= segs_[gi + 1].lo) ++gi;
    segs_[gi].steps.push_back(e);
    segs_[gi].step_sum += e.step;
  }
  gi = 0;
  for (const BorderEntry& e : borders) {
    while (gi + 1 < segs_.size() && e.at >= segs_[gi + 1].lo) ++gi;
    segs_[gi].borders.push_back(e);
    accumulate(segs_[gi].slope_sum, e.slope, +1);
    accumulate(segs_[gi].offset_sum, e.offset, +1);
  }
}

void IncrementalDemand::apply_corners(const Task& t, Time from_level,
                                      Time to_level, int sign) {
  // Corner times of jobs [from_level, to_level), ascending.
  corner_scratch_.clear();
  for (Time j = from_level; j < to_level; ++j) {
    const Time d = t.job_deadline(j);
    if (is_time_infinite(d)) break;
    corner_scratch_.push_back(d);
    if (is_time_infinite(t.period)) break;  // one-shot: single corner
  }
  if (corner_scratch_.empty()) return;

  // Nearest *live* neighbors of the position `pos` inside segment
  // `seg_idx` (tombstones are demand-transparent, so the affine-
  // interpolation bound must anchor on live checkpoints). `skip_pos`
  // when pos itself is the entry being resurrected. The walk over
  // tombstone runs is capped: past kNoteWalkCap entries the segment
  // just goes dirty (conservative — the next scan measures it) instead
  // of paying an O(dead-run) search on the insert path.
  constexpr int kNoteWalkCap = 8;
  const auto note_between = [&](std::size_t seg_idx,
                                std::vector<StepEntry>::iterator pos,
                                bool skip_pos) {
    int budget = kNoteWalkCap;
    Time pred = -1;
    for (auto p = pos; p != segs_[seg_idx].steps.begin();) {
      --p;
      if (p->refs != 0) {
        pred = p->at;
        break;
      }
      if (--budget == 0) break;
    }
    if (pred < 0 && budget != 0) {
      for (std::size_t j = seg_idx; j-- > 0 && pred < 0 && budget != 0;) {
        for (auto p = segs_[j].steps.rbegin(); p != segs_[j].steps.rend();
             ++p) {
          if (p->refs != 0) {
            pred = p->at;
            break;
          }
          if (--budget == 0) break;
        }
      }
    }
    if (pred < 0 && budget == 0) {
      segs_[seg_idx].min_ratio = -1.0;
      return;
    }
    budget = kNoteWalkCap;
    Time succ = -1;
    for (auto p = pos + (skip_pos ? 1 : 0);
         p != segs_[seg_idx].steps.end(); ++p) {
      if (p->refs != 0) {
        succ = p->at;
        break;
      }
      if (--budget == 0) break;
    }
    if (succ < 0 && budget != 0) {
      for (std::size_t j = seg_idx + 1;
           j < segs_.size() && succ < 0 && budget != 0; ++j) {
        for (const StepEntry& e : segs_[j].steps) {
          if (e.refs != 0) {
            succ = e.at;
            break;
          }
          if (--budget == 0) break;
        }
      }
    }
    if (succ < 0 && budget == 0) {
      segs_[seg_idx].min_ratio = -1.0;
      return;
    }
    slack_note_new_time(seg_idx, pred, succ);
  };

  // Process the (ascending) corners grouped by segment, so each touched
  // segment pays one in-place pass plus at most one backward splice —
  // the single-segment case is exactly the historical flat-array merge.
  const auto by_at = [](const StepEntry& e, Time v) { return e.at < v; };
  std::size_t c0 = 0;
  std::size_t gi = segment_of(corner_scratch_.front());
  while (c0 < corner_scratch_.size()) {
    while (gi + 1 < segs_.size() &&
           corner_scratch_[c0] >= segs_[gi + 1].lo) {
      ++gi;
    }
    Segment& g = segs_[gi];
    std::size_t c1 = c0 + 1;
    while (c1 < corner_scratch_.size() && corner_scratch_[c1] < g.hi) ++c1;
    g.step_sum +=
        sign * t.wcet * static_cast<std::int64_t>(c1 - c0);
    if (sign > 0) {
      // Update existing checkpoints in place (resurrecting tombstones)
      // and mark genuinely new times, then splice those in with a
      // single backward merge.
      std::size_t missing = 0;
      auto it = g.steps.begin();
      for (std::size_t c = c0; c < c1; ++c) {
        Time& d = corner_scratch_[c];
        it = std::lower_bound(it, g.steps.end(), d, by_at);
        if (it != g.steps.end() && it->at == d) {
          if (it->refs == 0) {
            // Resurrection: demand-wise a brand-new checkpoint time —
            // bound its ratio through its live neighbors.
            --g.dead;
            --dead_steps_;
            ++total_steps_;
            if (index_engaged_ && g.min_ratio >= 0.0) {
              note_between(gi, it, /*skip_pos=*/true);
            }
          }
          it->refs += 1;
          it->step += t.wcet;
          d = -1;  // handled in place
        } else {
          ++missing;
          // Dirty segments need no bound update — skip the (costly)
          // neighbor discovery for them.
          if (index_engaged_ && g.min_ratio >= 0.0) {
            note_between(gi, it, /*skip_pos=*/false);
          }
        }
      }
      if (missing != 0) {
        std::size_t r = g.steps.size();  // read cursor into the old tail
        g.steps.resize(g.steps.size() + missing);
        std::size_t w = g.steps.size();  // write cursor
        for (std::size_t c = c1; c-- > c0;) {
          const Time d = corner_scratch_[c];
          if (d < 0) continue;
          while (r > 0 && g.steps[r - 1].at > d) {
            g.steps[--w] = g.steps[--r];
          }
          g.steps[--w] = StepEntry{d, t.wcet, 1};
        }
        total_steps_ += missing;
      }
    } else {
      // Withdraw the contributions. An emptied checkpoint becomes a
      // tombstone (refs == 0, step == 0) — no memmove; reclamation is
      // deferred until tombstones dominate the segment.
      std::size_t newly_dead = 0;
      auto it = g.steps.begin();
      for (std::size_t c = c0; c < c1; ++c) {
        it = std::lower_bound(it, g.steps.end(), corner_scratch_[c],
                              by_at);
        it->refs -= 1;
        it->step -= t.wcet;
        if (it->refs == 0) ++newly_dead;
      }
      if (newly_dead != 0) {
        total_steps_ -= newly_dead;
        g.dead += newly_dead;
        dead_steps_ += newly_dead;
        if (g.dead >= kMinDeadForCompact && g.dead * 4 >= g.steps.size()) {
          compact_segment(g);
        }
      }
    }
    c0 = c1;
  }
}

void IncrementalDemand::apply_border(const Task& t, Time level, int sign) {
  if (is_time_infinite(t.period)) return;  // one-shot: no envelope
  const Time border = t.job_deadline(level - 1);
  if (is_time_infinite(border)) return;
  // One evaluation of each certified pair (they cost 128-bit divides;
  // this path runs per add/remove/refine).
  const ScaledPair slope_pair = task_util_pair(t);
  const ScaledPair offset_pair = task_offset_pair(t, border);
  Segment& g = segs_[segment_of(border)];
  accumulate(g.slope_sum, slope_pair, sign);
  accumulate(g.offset_sum, offset_pair, sign);
  const auto bit = std::lower_bound(
      g.borders.begin(), g.borders.end(), border,
      [](const BorderEntry& e, Time v) { return e.at < v; });
  if (bit != g.borders.end() && bit->at == border) {
    if (bit->refs == 0) --g.dead_borders;  // resurrection
    bit->refs += sign;
    accumulate(bit->slope, slope_pair, sign);
    accumulate(bit->offset, offset_pair, sign);
    if (bit->refs == 0) {
      // Exact-inverse withdrawal zeroed slope/offset: the entry is a
      // harmless tombstone the scan absorbs as zero. Erasing it here
      // memmoves the border tail (O(n) per removal) — defer instead.
      ++g.dead_borders;
      if (g.dead_borders >= kMinDeadForCompact &&
          g.dead_borders * 4 >= g.borders.size()) {
        std::erase_if(g.borders,
                      [](const BorderEntry& e) { return e.refs == 0; });
        g.dead_borders = 0;
      }
    }
  } else {
    BorderEntry fresh;
    fresh.at = border;
    fresh.refs = sign;
    accumulate(fresh.slope, slope_pair, sign);
    accumulate(fresh.offset, offset_pair, sign);
    g.borders.insert(bit, fresh);
  }
}

void IncrementalDemand::apply_entries(const Task& t, Time level, int sign,
                                      bool adjust_slack) {
  apply_corners(t, 0, level, sign);
  apply_border(t, level, sign);
  if (adjust_slack && index_engaged_) slack_adjust(t, sign);
  accumulate(util_scaled_, task_util_pair(t), sign);
  accumulate(kay_, task_kay_pair(t), sign);
  apply_density(t, sign);
  if (sign > 0) {
    d_max_ = std::max(d_max_, t.effective_deadline());
  } else if (t.effective_deadline() == d_max_) {
    d_max_stale_ = true;
  }
  if (t.effective_deadline() < t.period) {
    constrained_ += static_cast<std::size_t>(sign);
  }
  // Maintain the certificate: an arrival shrinks each region's slack
  // ratio by at most its decayed contribution bound there (pointwise),
  // and a departure restores at least its minimum contribution ratio —
  // so under churn the fast path regenerates without a scan. A fully
  // dead certificate (every region -1) has nothing to maintain.
  if (cert_lo_ >= 0 || !cert_dead_) {
    cert_lo_ = kS;
    bool any_valid = false;
    for (std::size_t j = 0; j < kCertCuts; ++j) {
      Int128& c = cert_region_[j];
      if (c >= 0) {
        if (sign > 0) {
          c -= region_charge(t, cert_x_[j]);
          if (c < 0) c = -1;
        } else {
          const Time to_excl =
              j + 1 < kCertCuts ? cert_x_[j + 1] : kTimeInfinity;
          c = std::min(c + region_credit(t, cert_x_[j], to_excl), kS);
        }
      }
      any_valid = any_valid || c >= 0;
      cert_lo_ = std::min(cert_lo_, c);
    }
    cert_dead_ = !any_valid;
  }
  util_valid_ = false;
}

void IncrementalDemand::apply_density(const Task& t, int sign) {
  if (!multi::gfb_eligible(t)) {
    gfb_ineligible_ += static_cast<std::size_t>(sign);
    return;
  }
  const ScaledPair p = multi::density_pair(t);
  accumulate(density_sum_, p, sign);
  if (sign > 0) {
    // Floor and ceil are monotone, so both component maxima belong to
    // the largest density.
    density_max_.lo = std::max(density_max_.lo, p.lo);
    density_max_.hi = std::max(density_max_.hi, p.hi);
  } else if (p.hi == density_max_.hi) {
    // A smaller hi means a strictly smaller density: the max (and its
    // lo) is still resident. An equal one may have been the max.
    density_max_stale_ = true;
  }
}

void IncrementalDemand::rederive_density() {
  density_sum_ = ScaledPair{};
  density_max_ = ScaledPair{};
  density_max_stale_ = false;
  gfb_ineligible_ = 0;
  for (const Task& t : view_.tasks()) apply_density(t, +1);
}

multi::DensityBounds IncrementalDemand::density_bounds() const {
  if (density_max_stale_) {
    // Argmax by exact cross-multiplication (C_a*s_b vs C_b*s_a, each
    // < 2^126), then one pair for the winner.
    const Task* best = nullptr;
    for (const Task& t : view_.tasks()) {
      if (!multi::gfb_eligible(t)) continue;
      if (best == nullptr ||
          static_cast<Int128>(t.wcet) *
                  std::min(best->deadline, best->period) >
              static_cast<Int128>(best->wcet) *
                  std::min(t.deadline, t.period)) {
        best = &t;
      }
    }
    density_max_ =
        best != nullptr ? multi::density_pair(*best) : ScaledPair{};
    density_max_stale_ = false;
  }
  multi::DensityBounds b;
  b.sum = density_sum_;
  b.max = density_max_;
  b.ineligible = gfb_ineligible_;
  b.tasks = view_.size();
  return b;
}

void IncrementalDemand::refine(std::size_t row, Time to_level) {
  const Task& t = view_.tasks()[row];
  apply_border(t, levels_[row], -1);
  apply_corners(t, levels_[row], to_level, +1);
  apply_border(t, to_level, +1);
  levels_[row] = to_level;
  borders_of_row_[row] = is_time_infinite(t.period)
                             ? kTimeInfinity
                             : t.job_deadline(to_level - 1);
  // Refinement only lowers the approximated demand, so cached slack
  // bounds stay conservative — no adjustment needed.
}

void IncrementalDemand::ensure_util() const {
  if (util_valid_) return;
  Rational u;
  for (const Task& t : view_.tasks()) u += t.utilization();
  util_ = u;
  util_valid_ = true;
}

void IncrementalDemand::reserve(std::size_t n) {
  view_.reserve(n);
  levels_.reserve(n);
  borders_of_row_.reserve(n);
  id_index_.reserve(n);
}

TaskId IncrementalDemand::add_one(const Task& t, bool adjust_slack) {
  const TaskId id = next_id_++;
  const TaskView::Slot slot = view_.add(t);  // validates
  levels_.push_back(k_);
  borders_of_row_.push_back(is_time_infinite(t.period)
                                ? kTimeInfinity
                                : t.job_deadline(k_ - 1));
  id_index_.emplace_back(id, slot);  // ids ascend: stays sorted
  update_index_engagement();
  apply_entries(t, k_, +1, adjust_slack);
  return id;
}

TaskId IncrementalDemand::add(const Task& t) {
  const TaskId id = add_one(t, /*adjust_slack=*/true);
  bump_epoch();
  return id;
}

void IncrementalDemand::add_group(std::span<const Task> group,
                                  std::vector<TaskId>& ids) {
  for (const Task& t : group) t.validate();  // before any mutation
  ids.reserve(ids.size() + group.size());
  for (const Task& t : group) {
    ids.push_back(add_one(t, /*adjust_slack=*/false));
  }
  // One batched slack pass for the whole group (identical per-task
  // arithmetic, one walk of segment traffic).
  if (index_engaged_) slack_adjust(group, +1);
  bump_epoch();
}

std::size_t IncrementalDemand::id_pos(TaskId id) const noexcept {
  const auto it = std::lower_bound(
      id_index_.begin(), id_index_.end(), id,
      [](const std::pair<TaskId, TaskView::Slot>& p, TaskId v) {
        return p.first < v;
      });
  if (it == id_index_.end() || it->first != id ||
      it->second == TaskView::kInvalidSlot) {
    return static_cast<std::size_t>(-1);
  }
  return static_cast<std::size_t>(it - id_index_.begin());
}

bool IncrementalDemand::remove_one(TaskId id, bool adjust_slack,
                                   std::vector<Task>* withdrawn) {
  const std::size_t pos = id_pos(id);
  if (pos == static_cast<std::size_t>(-1)) return false;
  const TaskView::Slot slot = id_index_[pos].second;
  // Tombstone the index entry (ids stay sorted for binary search); the
  // O(n) tail memmove is deferred until dead entries dominate.
  id_index_[pos].second = TaskView::kInvalidSlot;
  ++dead_ids_;
  if (dead_ids_ >= kMinDeadForCompact &&
      dead_ids_ * 2 >= id_index_.size()) {
    std::erase_if(id_index_,
                  [](const std::pair<TaskId, TaskView::Slot>& p) {
                    return p.second == TaskView::kInvalidSlot;
                  });
    dead_ids_ = 0;
  }
  const std::size_t row = view_.row_of(slot);
  const Time level = levels_[row];
  // Withdraw the contributions while the row is still resident (no
  // Task copy — the name string alone would cost an allocation), then
  // drop the row.
  apply_entries(view_[slot], level, -1, adjust_slack);
  if (withdrawn != nullptr) withdrawn->push_back(view_[slot]);
  view_.remove(slot);
  levels_[row] = levels_.back();
  levels_.pop_back();
  borders_of_row_[row] = borders_of_row_.back();
  borders_of_row_.pop_back();
  update_index_engagement();
  return true;
}

bool IncrementalDemand::remove(TaskId id) {
  if (!remove_one(id, /*adjust_slack=*/true, nullptr)) return false;
  bump_epoch();
  return true;
}

std::size_t IncrementalDemand::remove_group(std::span<const TaskId> ids) {
  std::vector<Task> withdrawn;
  withdrawn.reserve(ids.size());
  std::size_t gone = 0;
  for (const TaskId id : ids) {
    gone += remove_one(id, /*adjust_slack=*/false, &withdrawn) ? 1 : 0;
  }
  if (gone != 0) {
    if (index_engaged_) slack_adjust(withdrawn, -1);
    bump_epoch();
  }
  return gone;
}

const Task* IncrementalDemand::find(TaskId id) const noexcept {
  const std::size_t pos = id_pos(id);
  if (pos == static_cast<std::size_t>(-1)) return nullptr;
  return &view_[id_index_[pos].second];
}

Time IncrementalDemand::level_of(TaskId id) const noexcept {
  const std::size_t pos = id_pos(id);
  if (pos == static_cast<std::size_t>(-1)) return 0;
  return levels_[view_.row_of(id_index_[pos].second)];
}

const Rational& IncrementalDemand::utilization() const {
  ensure_util();
  return util_;
}

double IncrementalDemand::utilization_double() const noexcept {
  return static_cast<double>(util_scaled_.hi) * kInvS;
}

UtilizationClass IncrementalDemand::utilization_class() const noexcept {
  // Certified scaled bounds decide everything but a ~n*2^-62-wide band
  // around exactly 1; only inside it is the exact rational materialized.
  if (util_scaled_.hi < kS) return UtilizationClass::BelowOne;
  if (util_scaled_.lo > kS) return UtilizationClass::AboveOne;
  ensure_util();
  switch (util_.compare(Time{1})) {
    case Ordering::Less: return UtilizationClass::BelowOne;
    case Ordering::Equal: return UtilizationClass::ExactlyOne;
    case Ordering::Greater: return UtilizationClass::AboveOne;
    case Ordering::Unknown: return UtilizationClass::Marginal;
  }
  return UtilizationClass::Marginal;
}

UtilizationClass IncrementalDemand::utilization_class_with(
    const Task& t) const {
  return utilization_class_with(std::span<const Task>(&t, 1));
}

UtilizationClass IncrementalDemand::utilization_class_with(
    std::span<const Task> group) const {
  ScaledPair widened = util_scaled_;
  for (const Task& t : group) accumulate(widened, task_util_pair(t), +1);
  if (widened.hi < kS) return UtilizationClass::BelowOne;
  if (widened.lo > kS) return UtilizationClass::AboveOne;
  ensure_util();
  Rational u = util_;
  for (const Task& t : group) u += t.utilization();
  switch (u.compare(Time{1})) {
    case Ordering::Less: return UtilizationClass::BelowOne;
    case Ordering::Equal: return UtilizationClass::ExactlyOne;
    case Ordering::Greater: return UtilizationClass::AboveOne;
    case Ordering::Unknown: return UtilizationClass::Marginal;
  }
  return UtilizationClass::Marginal;
}

bool IncrementalDemand::certificate_covers(const Task& t) const noexcept {
  // The widened set must certainly keep U <= 1 (the certificate's
  // beyond-last-checkpoint argument runs at slope U).
  if (util_scaled_.hi + task_util_pair(t).hi > kS) return false;
  // Per-region test with the decayed charge; regions entirely below
  // the candidate's first deadline see no contribution at all. The
  // segment-endpoint (phi) argument extends checkpoint coverage to
  // every interval, so all-regions-pass proves admissibility.
  const Time d = t.effective_deadline();
  for (std::size_t j = 0; j < kCertCuts; ++j) {
    if (j + 1 < kCertCuts && cert_x_[j + 1] <= d) continue;  // below D
    if (cert_region_[j] < 0) return false;
    if (region_charge(t, cert_x_[j]) > cert_region_[j]) return false;
  }
  return true;
}

bool IncrementalDemand::certificate_covers(
    std::span<const Task> group) const noexcept {
  // Sequential cover-then-charge on a local copy: member i is tested
  // against the certificate as its predecessors would have charged it,
  // mirroring apply_entries' maintenance arithmetic exactly.
  std::array<Int128, kCertCuts> region = cert_region_;
  Int128 util_hi = util_scaled_.hi;
  std::array<Int128, kCertCuts> charges;
  for (const Task& t : group) {
    const Int128 u_hi = task_util_pair(t).hi;
    if (util_hi + u_hi > kS) return false;
    util_hi += u_hi;
    // One region_charge evaluation per (task, region) — it costs
    // 128-bit divides; the cover test and the charge reuse it.
    const Time d = t.effective_deadline();
    for (std::size_t j = 0; j < kCertCuts; ++j) {
      charges[j] = region_charge(t, cert_x_[j]);
      if (j + 1 < kCertCuts && cert_x_[j + 1] <= d) continue;  // below D
      if (region[j] < 0) return false;
      if (charges[j] > region[j]) return false;
    }
    for (std::size_t j = 0; j < kCertCuts; ++j) {
      Int128& c = region[j];
      if (c < 0) continue;
      c -= charges[j];
      if (c < 0) c = -1;
    }
  }
  return true;
}

Time IncrementalDemand::exact_dbf_at(Time interval) const noexcept {
  return columns_dbf(view_.columns(), interval);
}

Rational IncrementalDemand::exact_demand_at(Time interval) const {
  Rational total;
  const std::span<const Task> rows = view_.tasks();
  for (std::size_t row = 0; row < rows.size(); ++row) {
    const Task& t = rows[row];
    if (interval < t.effective_deadline()) continue;
    if (is_time_infinite(t.period) ||
        interval <= t.job_deadline(levels_[row] - 1)) {
      total += Rational(dbf(t, interval));
    } else {
      total += approx_demand(t, interval);
    }
  }
  return total;
}

StoreHeader IncrementalDemand::header() const noexcept {
  StoreHeader h;
  h.epoch = epoch_;
  h.residents = view_.size();
  h.constrained = constrained_;
  h.live_checkpoints = total_steps_;
  h.dead_checkpoints = dead_steps_;
  h.segments = segs_.size();
  h.utilization = utilization_double();
  h.cert_ratio = cert_lo_ < 0 ? -1.0 : static_cast<double>(cert_lo_) * kInvS;
  return h;
}

DemandCheck IncrementalDemand::check() {
  return check(64 + 8 * static_cast<std::uint64_t>(view_.size()));
}

DemandCheck IncrementalDemand::check(std::uint64_t max_revisions) {
  const DemandCheck out = do_check(max_revisions);
  bump_epoch();
  return out;
}

DemandCheck IncrementalDemand::do_check(std::uint64_t max_revisions) {
  DemandCheck out;
  if (view_.empty()) {
    out.fits = true;
    cert_lo_ = kS;  // theta = 1
    return out;
  }
  const UtilizationClass uc = utilization_class();
  if (uc == UtilizationClass::AboveOne || uc == UtilizationClass::Marginal) {
    // AboveOne cannot fit. Marginal (certified bounds straddle 1 and
    // the exact rational overflowed) cannot be *proven* to fit either,
    // and fits is a proof — report degraded and let the caller
    // escalate rather than rest an accept on an uncertain U <= 1.
    cert_region_.fill(-1);
    cert_lo_ = -1;
    cert_dead_ = true;
    out.degraded = (uc == UtilizationClass::Marginal);
    return out;
  }
  cert_region_.fill(-1);  // re-established only by a full passing scan
  cert_lo_ = -1;
  cert_dead_ = true;
  if (total_steps_ == 0) {
    // Residents exist but contribute no finite checkpoint (degenerate
    // saturated deadlines): zero demand at every finite interval.
    cert_x_.fill(0);
    cert_region_.fill(kS);
    cert_lo_ = kS;
    cert_dead_ = false;
    out.fits = true;
    return out;
  }

  if (d_max_stale_) {
    const TaskColumns& cols = view_.columns();
    d_max_ = 0;
    for (const Time d : cols.deadline) d_max_ = std::max(d_max_, d);
    d_max_stale_ = false;
  }
  const Time d_max = d_max_;
  // Refinement ceiling: keeps the learned structure at O(n * 4k)
  // checkpoints — scans must stay cheap, so regions needing deeper
  // resolution escalate to the offline exact test instead.
  const Time max_level = 4 * k_;

  // Re-partition when the index should engage or the structure drifted
  // past its bucketing (refinement growth, mass departures); collapse
  // to the single flat segment when the index disengaged.
  if ((index_engaged_ &&
       ((segs_.size() == 1 && total_steps_ >= kMinIndexSteps) ||
        (segs_.size() > 1 && (total_steps_ > 2 * seg_built_steps_ ||
                              2 * total_steps_ < seg_built_steps_)))) ||
      (!index_engaged_ && segs_.size() > 1)) {
    resegment();
  }

restart:
  // Per-region minima of the certified slack-ratio lower bounds, for
  // the segmented certificate: region j spans checkpoints in
  // [cuts[j], cuts[j+1]). Cut positions equidistribute the *live*
  // checkpoint count (tombstones excluded, so the cuts — and every
  // decision derived from the certificate — do not depend on when
  // tombstones are reclaimed). Ratio interpolation (slack ratio of a
  // segment interior is at least the smaller endpoint ratio) makes
  // each region's min valid for every interval in it, provided the
  // straddling segment's left endpoint is carried into the region
  // entered — done at advance.
  //
  // Past the last checkpoint L the demand is exactly U*I + K, so the
  // slack ratio 1 - U - K/I is increasing for K >= 0 (its minimum, at
  // L, is already a measured checkpoint) and approaches 1-U from above
  // for K < 0 — only then does 1-U bind (folded into the last region).
  std::array<Time, kCertCuts> cuts{};
  std::array<double, kCertCuts> region_min;
  region_min.fill(2.0);
  for (std::size_t j = 1; j < kCertCuts; ++j) {
    cuts[j] = step_time_at(j * total_steps_ / kCertCuts);
  }
  if (kay_.lo < 0) {
    region_min.back() = std::min(
        region_min.back(),
        static_cast<double>(kS - util_scaled_.hi) * kInvS);
  }

  const double one_minus_u_d =
      static_cast<double>(kS - util_scaled_.hi) * kInvS;
  const double kay_d = static_cast<double>(kay_.hi) * kInvS;

  // Ascending scan over the segments. Demand at checkpoint I (certified
  // S-scaled):
  //   steps_acc * S  +  slope_acc * I  -  offset_acc
  // where slope/offset absorb each envelope *after* its border is
  // compared (the envelope term is zero exactly at the border).
  //
  // A segment whose cached slack-ratio bound is non-negative is
  // *proven* to fit everywhere inside: the scan fast-forwards over it
  // with its exact sums (leaving the accumulators exactly as a full
  // walk would) and only walks dirty segments — the saturated-regime
  // fast path. Walked segments re-measure their bound from the same
  // certified ratios the comparisons produce.
  //
  // Tombstones (refs == 0) are skipped outright: their step is zero
  // and, at U <= 1, slack is non-decreasing between live checkpoints
  // (demand slope Sigma u_active <= U <= 1), so a dead time can never
  // be the first failure point.
  //
  // The double filter mirrors the hi-bounds in tick units. Magnitudes
  // stay below ~2^63 ticks, so the accumulated IEEE error is below
  // 1e-3 ticks for any realistic workload while certified-interval
  // widths are ~1e-15 ticks: a guard band of 1e-6 relative (min 1e-3
  // absolute) classifies every checkpoint outside the band *provably*;
  // checkpoints inside it re-compare via int128, then exact rationals.
  {
    std::int64_t steps_acc = 0;
    double slope_d = 0.0;
    double offset_d = 0.0;
    ScaledPair slope_acc;
    ScaledPair offset_acc;
    std::size_t rj = 0;  // current certificate region
    double prev_ratio = 2.0;  // left endpoint of the running segment
    bool done = false;

    for (std::size_t gi = 0; gi < segs_.size() && !done; ++gi) {
      Segment& g = segs_[gi];
      if (g.steps.empty()) {
        // No checkpoint (and hence no border) in range: vacuously fits.
        if (index_engaged_) g.min_ratio = 2.0;
        continue;
      }
      if (index_engaged_ && g.min_ratio >= 0.0) {
        // Fast-forward: every checkpoint inside is proven to fit.
        ++out.segments_fast_forwarded;
        steps_acc += g.step_sum;
        accumulate(slope_acc, g.slope_sum, +1);
        accumulate(offset_acc, g.offset_sum, +1);
        slope_d = static_cast<double>(slope_acc.hi) * kInvS;
        offset_d = static_cast<double>(offset_acc.lo) * kInvS;
        region_min[rj] = std::min(region_min[rj], g.min_ratio);
        while (rj + 1 < kCertCuts && cuts[rj + 1] < g.hi) {
          ++rj;
          region_min[rj] = std::min(region_min[rj], g.min_ratio);
        }
        prev_ratio = std::min(prev_ratio, g.min_ratio);
        continue;
      }

      ++out.segments_walked;
      double seg_min = 2.0;  // measured ratio bound for this segment
      std::size_t bi = 0;    // g.borders consumed (second merge pointer)
      for (std::size_t si = 0; si < g.steps.size(); ++si) {
        const StepEntry& node = g.steps[si];
        if (node.refs == 0) continue;  // tombstone: never a failure point
        const Time i = node.at;
        const double i_d = static_cast<double>(i);
        // Advance the certificate region, carrying the straddling
        // segment's left-endpoint ratio into every region entered.
        while (rj + 1 < kCertCuts && i >= cuts[rj + 1]) {
          ++rj;
          region_min[rj] = std::min(region_min[rj], prev_ratio);
        }
        // Early stop: from any I >= every deadline, dbf'(I) <= U*I + K
        // (every task is at or below its envelope line there). Once
        // (1-U)*I >= K certifiably, this and all later checkpoints fit.
        if (i >= d_max && one_minus_u_d * i_d > kay_d &&
            (kS - util_scaled_.hi) * i >= kay_.hi) {
          double term = one_minus_u_d;
          if (kay_.hi > 0) {
            // Slack ratio on the skipped region is worst at its left
            // edge: theta(I) = 1 - U - K/I is increasing for K > 0.
            const Int128 q = kay_.hi / i;
            const Int128 r = kay_.hi % i;
            term = static_cast<double>(kS - util_scaled_.hi - q -
                                       (r != 0 ? 1 : 0)) *
                   kInvS;
          }
          region_min[rj] = std::min(region_min[rj], prev_ratio);
          for (std::size_t j = rj; j < kCertCuts; ++j) {
            region_min[j] = std::min(region_min[j], term);
          }
          if (index_engaged_) {
            // The stop proves slack >= 0 from i on (demand <= U*I + K
            // <= I), so the tail bounds refresh for free.
            const double tp = std::max(0.0, term);
            g.min_ratio = std::min(seg_min, tp);
            for (std::size_t j = gi + 1; j < segs_.size(); ++j) {
              segs_[j].min_ratio = std::max(segs_[j].min_ratio, tp);
            }
          }
          done = true;
          break;
        }
        steps_acc += node.step;
        ++out.iterations;
        out.max_interval_tested = i;

        const double demand_d =
            static_cast<double>(steps_acc) + slope_d * i_d - offset_d;
        const double slack_d = i_d - demand_d;
        const double band = 1e-6 * (demand_d + i_d) + 1e-3;
        if (slack_d < band) {
          // Inside (or below) the guard band: decide with certified
          // arithmetic — int128 bounds, then one exact rational.
          const Int128 cap = static_cast<Int128>(i) * kS;
          const Int128 steps_scaled = static_cast<Int128>(steps_acc) * kS;
          const Int128 hi = steps_scaled + slope_acc.hi * i - offset_acc.lo;
          Int128 lo = steps_scaled + slope_acc.lo * i - offset_acc.hi;
          if (lo < steps_scaled) lo = steps_scaled;  // envelopes are >= 0
          if (hi > cap) {
            bool fits_here = false;
            if (lo <= cap) {
              const Rational exact = exact_demand_at(i);
              if (exact.exact()) {
                fits_here = exact.certainly_le(i);
              } else {
                out.degraded = true;
              }
            }
            if (!fits_here) {
              // Approximated overload at i. If no envelope is active
              // below i the value is the exact dbf: infeasibility
              // proof. Otherwise raise the contributing tasks' levels
              // past i and rescan — the refinement persists across
              // decisions.
              bool refined = false;
              bool capped = false;
              const TaskColumns& cols = view_.columns();
              for (std::size_t row = 0; row < cols.size(); ++row) {
                // One flat-array read filters almost every row (the
                // border is kTimeInfinity for one-shots).
                if (borders_of_row_[row] >= i) continue;
                const Time want =
                    floor_div(i - cols.deadline[row], cols.period[row]) +
                    2;
                if (want > max_level || out.revisions >= max_revisions) {
                  capped = true;
                  continue;
                }
                ++out.revisions;
                // Overshoot the minimum level that clears i (within the
                // ceiling): one deep refinement replaces the cascade of
                // shallow ones a tight region otherwise provokes as the
                // scan fails at successively later checkpoints.
                refine(row, std::min<Time>(2 * want, max_level));
                refined = true;
              }
              if (!refined) {
                out.witness = i;
                if (!capped) {
                  out.overflow_proof = true;  // exact dbf(i) > i
                }
                return out;
              }
              goto restart;
            }
            prev_ratio = 0.0;  // at (or within a unit of) the line
          } else {
            prev_ratio =
                static_cast<double>((cap - hi) / i) * kInvS;
          }
          region_min[rj] = std::min(region_min[rj], prev_ratio);
        } else {
          // Provably fits; the band-subtracted ratio stays a certified
          // lower bound.
          prev_ratio = (slack_d - band) / i_d;
          region_min[rj] = std::min(region_min[rj], prev_ratio);
        }
        seg_min = std::min(seg_min, prev_ratio);
        // Absorb envelopes whose border is this checkpoint *after* the
        // comparison (the envelope term is zero exactly at the border;
        // every border time is also a *live* step checkpoint — the
        // border's own task holds a reference on that corner — so none
        // is skipped by tombstone handling).
        while (bi < g.borders.size() && g.borders[bi].at <= i) {
          accumulate(slope_acc, g.borders[bi].slope, +1);
          accumulate(offset_acc, g.borders[bi].offset, +1);
          ++bi;
          slope_d = static_cast<double>(slope_acc.hi) * kInvS;
          offset_d = static_cast<double>(offset_acc.lo) * kInvS;
        }
      }
      if (!done && index_engaged_) g.min_ratio = seg_min;
    }
  }
  // Publish the per-region certificate (cert_region_[j] bounds every
  // checkpoint ratio in [cuts[j], cuts[j+1]); segment interiors follow
  // from the endpoint argument in certificate_covers).
  cert_x_ = cuts;
  for (std::size_t j = 0; j < kCertCuts; ++j) {
    const double r = std::min(region_min[j], 1.0);
    cert_region_[j] =
        r >= 0.0 ? static_cast<Int128>(r * static_cast<double>(kS) *
                                       0.999999)
                 : Int128{-1};
  }
  cert_lo_ = kS;
  cert_dead_ = true;
  for (const Int128 c : cert_region_) {
    cert_lo_ = std::min(cert_lo_, c);
    cert_dead_ = cert_dead_ && c < 0;
  }
  out.fits = true;
  return out;
}

void IncrementalDemand::rebuild() {
  segs_.assign(1, Segment{});
  total_steps_ = 0;
  dead_steps_ = 0;
  seg_built_steps_ = 0;
  util_valid_ = false;
  util_scaled_ = ScaledPair{};
  kay_ = ScaledPair{};
  d_max_ = 0;
  d_max_stale_ = false;
  density_sum_ = ScaledPair{};
  density_max_ = ScaledPair{};
  density_max_stale_ = false;
  gfb_ineligible_ = 0;
  constrained_ = 0;
  cert_x_.fill(0);
  cert_region_.fill(view_.empty() ? kS : -1);  // next check() re-certifies
  cert_lo_ = cert_region_[0];
  cert_dead_ = !view_.empty();
  const std::span<const Task> rows = view_.tasks();
  for (std::size_t row = 0; row < rows.size(); ++row) {
    apply_entries(rows[row], levels_[row], +1);
  }
  bump_epoch();
}

bool IncrementalDemand::matches_rebuild() const {
  IncrementalDemand fresh(epsilon());
  fresh.k_ = k_;
  const std::span<const Task> rows = view_.tasks();
  for (std::size_t row = 0; row < rows.size(); ++row) {
    (void)fresh.view_.add(rows[row]);
    fresh.levels_.push_back(levels_[row]);
    fresh.borders_of_row_.push_back(borders_of_row_[row]);
    fresh.apply_entries(rows[row], levels_[row], +1);
  }
  // Compare the flattened *live* checkpoint/border sequences (the fresh
  // copy is single-segment and tombstone-free; ours may be partitioned
  // and carry tombstones, which must be step-0 and invisible) and
  // verify our per-segment aggregates against their own contents.
  if (fresh.total_steps_ != total_steps_) return false;
  {
    const std::vector<StepEntry>& fs = fresh.segs_[0].steps;
    const std::vector<BorderEntry>& fb = fresh.segs_[0].borders;
    std::size_t si = 0;
    std::size_t bi = 0;
    std::size_t dead_seen = 0;
    Time prev_lo = -1;
    for (const Segment& g : segs_) {
      if (g.lo <= prev_lo || g.hi <= g.lo) return false;
      prev_lo = g.lo;
      std::int64_t step_sum = 0;
      ScaledPair slope_sum;
      ScaledPair offset_sum;
      std::size_t seg_dead = 0;
      for (const StepEntry& e : g.steps) {
        if (e.at < g.lo || e.at >= g.hi) return false;
        if (e.refs == 0) {
          // Tombstone invariant: demand-transparent.
          if (e.step != 0) return false;
          ++seg_dead;
          continue;
        }
        if (si >= fs.size() || !(fs[si] == e)) return false;
        ++si;
        step_sum += e.step;
      }
      if (seg_dead != g.dead) return false;
      dead_seen += seg_dead;
      std::size_t seg_dead_borders = 0;
      for (const BorderEntry& e : g.borders) {
        if (e.at < g.lo || e.at >= g.hi) return false;
        if (e.refs == 0) {
          // Border tombstone invariant: exactly zero contribution.
          if (e.slope.lo != 0 || e.slope.hi != 0 || e.offset.lo != 0 ||
              e.offset.hi != 0) {
            return false;
          }
          ++seg_dead_borders;
          continue;
        }
        if (bi >= fb.size() || !(fb[bi] == e)) return false;
        ++bi;
        accumulate(slope_sum, e.slope, +1);
        accumulate(offset_sum, e.offset, +1);
      }
      if (seg_dead_borders != g.dead_borders) return false;
      if (step_sum != g.step_sum || slope_sum.lo != g.slope_sum.lo ||
          slope_sum.hi != g.slope_sum.hi ||
          offset_sum.lo != g.offset_sum.lo ||
          offset_sum.hi != g.offset_sum.hi) {
        return false;
      }
    }
    if (si != fs.size() || bi != fb.size()) return false;
    if (dead_seen != dead_steps_) return false;
  }
  if (fresh.util_scaled_.lo != util_scaled_.lo ||
      fresh.util_scaled_.hi != util_scaled_.hi) {
    return false;
  }
  if (fresh.kay_.lo != kay_.lo || fresh.kay_.hi != kay_.hi) return false;
  if (fresh.constrained_ != constrained_) return false;
  // The density aggregate: sums and counts exactly, the max after a
  // stale rescan (the fresh copy is never stale).
  const multi::DensityBounds db = density_bounds();
  const multi::DensityBounds fb = fresh.density_bounds();
  if (db.sum.lo != fb.sum.lo || db.sum.hi != fb.sum.hi ||
      db.max.lo != fb.max.lo || db.max.hi != fb.max.hi ||
      db.ineligible != fb.ineligible || db.tasks != fb.tasks) {
    return false;
  }
  const Rational& mine = utilization();
  const Rational& theirs = fresh.utilization();
  if (mine.exact() != theirs.exact()) return false;
  return !mine.exact() || mine.compare(theirs) == Ordering::Equal;
}

}  // namespace edfkit
