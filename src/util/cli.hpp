/// \file cli.hpp
/// Tiny flag parser shared by bench/example binaries.
///
/// Supports `--name value`, `--name=value`, and boolean `--name`.
/// Every `--name` is accepted at parse time, so harness wrappers (e.g.
/// google-benchmark) can consume theirs afterwards; a binary that reads
/// a fixed set of flags refuses the rest with `reject_unknown()`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace edfkit {

class CliFlags {
 public:
  CliFlags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// True when a flag outside `known` (names without the leading "--")
  /// was given; each one is named on `err` as "error: unknown flag
  /// --NAME", in name order. A binary that exits 2 on this never runs a
  /// misspelt or retired flag silently on its default.
  [[nodiscard]] bool reject_unknown(
      std::initializer_list<std::string_view> known,
      std::ostream& err = std::cerr) const;

  /// Positional arguments and unrecognized tokens, in order.
  [[nodiscard]] const std::vector<std::string>& rest() const noexcept {
    return rest_;
  }

  /// argv[0].
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Integer flag overridable by environment variable (flag wins).
  [[nodiscard]] std::int64_t get_int_env(const std::string& name,
                                         const std::string& env_var,
                                         std::int64_t fallback) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> rest_;
};

}  // namespace edfkit
