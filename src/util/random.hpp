/// \file random.hpp
/// Deterministic, seedable random source for workload generation.
///
/// All experiment code draws through this wrapper so that every figure and
/// table the bench/ programs print is reproducible from the seed printed
/// in the program's header line.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/math.hpp"

namespace edfkit {

/// Thin seedable wrapper over a 64-bit Mersenne twister.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5EDF'2005u) noexcept : eng_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). \pre lo <= hi
  [[nodiscard]] Time uniform_time(Time lo, Time hi);

  /// Uniform integer in [lo, hi] (inclusive). \pre lo <= hi
  [[nodiscard]] int uniform_int(int lo, int hi);

  /// Log-uniform time in [lo, hi]: exponent drawn uniformly. Used for
  /// period generation with large Tmax/Tmin ratios (paper Fig. 9).
  /// \pre 1 <= lo <= hi
  [[nodiscard]] Time log_uniform_time(Time lo, Time hi);

  /// True with probability p.
  [[nodiscard]] bool bernoulli(double p);

  /// Derive an independent child stream (for parallel/per-set use).
  [[nodiscard]] Rng fork();

  /// Access to the raw engine for std distributions.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return eng_; }

 private:
  std::mt19937_64 eng_;
};

}  // namespace edfkit
