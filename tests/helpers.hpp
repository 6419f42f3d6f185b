/// \file helpers.hpp
/// Shared helpers for the edfkit test suite.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "gen/scenario.hpp"
#include "model/task_set.hpp"
#include "util/binio.hpp"
#include "util/random.hpp"

namespace edfkit::testing {

/// Terse task constructor for hand-written fixtures.
inline Task tk(Time c, Time d, Time t) {
  Task x;
  x.wcet = c;
  x.deadline = d;
  x.period = t;
  return x;
}

inline TaskSet set_of(std::initializer_list<Task> ts) {
  return TaskSet(std::vector<Task>(ts));
}

/// A deterministic family of small random task sets whose hyperperiods
/// are simulable (periods from a divisor-rich pool) — the workhorse of
/// the property suites.
inline std::vector<TaskSet> small_random_sets(int count, double utilization,
                                              std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<TaskSet> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(draw_small_set(rng, utilization));
  }
  return out;
}

/// Mid-size random sets at paper-like parameters (not simulable, but all
/// analytical tests handle them).
inline std::vector<TaskSet> paper_random_sets(int count, double utilization,
                                              std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<TaskSet> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(draw_fig8_set(rng, utilization));
  }
  return out;
}

/// Snapshot section ids (admission/snapshot.cpp) the tests patch.
inline constexpr std::uint32_t kMetaSection = 1;
inline constexpr std::uint32_t kControllerSection = 2;

/// Overwrite `width` bytes at `offset` inside the first section `id` of
/// a snapshot image with `value` (little-endian) and re-seal the section
/// CRC, so the decode (not the framing) sees the change.
inline std::vector<std::uint8_t> patch_section(
    std::vector<std::uint8_t> bytes, std::uint32_t id, std::size_t offset,
    std::uint64_t value, std::size_t width) {
  std::size_t off = 16;  // magic + version + section count
  for (;;) {
    std::uint32_t sid = 0;
    std::uint64_t len = 0;
    std::memcpy(&sid, bytes.data() + off, 4);
    std::memcpy(&len, bytes.data() + off + 4, 8);
    const std::size_t payload = off + 16;
    if (sid == id) {
      std::memcpy(bytes.data() + payload + offset, &value, width);
      const std::uint32_t crc = crc32(bytes.data() + payload, len);
      std::memcpy(bytes.data() + off + 12, &crc, 4);
      return bytes;
    }
    off = payload + len;
  }
}

/// Iteration multiplier for the differential fuzz suites. The nightly
/// long-fuzz CI workflow sets EDFKIT_FUZZ_MULT=20 to run the same
/// fuzzers at 20x depth; interactive runs default to 1.
inline std::uint64_t fuzz_multiplier() {
  const char* env = std::getenv("EDFKIT_FUZZ_MULT");
  if (env == nullptr || *env == '\0') return 1;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 1 ? static_cast<std::uint64_t>(v) : 1;
}

/// Drop a minimized-repro artifact (seed + config + failure context)
/// into $EDFKIT_FUZZ_ARTIFACT_DIR, when set — the nightly workflow
/// uploads that directory on failure. No-op otherwise.
inline void write_fuzz_artifact(const std::string& name,
                                const std::string& content) {
  const char* dir = std::getenv("EDFKIT_FUZZ_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::string(dir) + "/" + name);
  out << content;
}

}  // namespace edfkit::testing
