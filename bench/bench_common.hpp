/// \file bench_common.hpp
/// Shared plumbing for the figure/table benches: seeded flags, CSV
/// emission, one banner format (what it reproduces, samples per point,
/// seed) so any printed table can be re-run from its own header, and a
/// minimal JSON emitter for machine-readable artifacts (BENCH_*.json —
/// see bench/perf_suite.cpp for the schema and the CI regression gate
/// that consumes it).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/random.hpp"

namespace edfkit::bench {

/// Streaming JSON writer with automatic comma management — enough for
/// flat benchmark reports (objects, arrays, string/number/bool values),
/// with no dependency. Keys are emitted verbatim (callers use literals).
class JsonEmitter {
 public:
  JsonEmitter() { begin('{', '}'); }

  JsonEmitter& key(const char* k) {
    comma();
    os_ << '"' << k << "\":";
    pending_value_ = true;
    return *this;
  }
  JsonEmitter& value(double v) {
    comma();
    // Round-trippable, locale-independent formatting.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << buf;
    return *this;
  }
  JsonEmitter& value(long long v) {
    comma();
    os_ << v;
    return *this;
  }
  JsonEmitter& value(bool v) {
    comma();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonEmitter& value(const char* v) {
    comma();
    os_ << '"';
    for (const char* p = v; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') os_ << '\\';
      os_ << *p;
    }
    os_ << '"';
    return *this;
  }

  JsonEmitter& kv(const char* k, double v) { return key(k).value(v); }
  JsonEmitter& kv(const char* k, long long v) { return key(k).value(v); }
  JsonEmitter& kv(const char* k, bool v) { return key(k).value(v); }
  JsonEmitter& kv(const char* k, const char* v) { return key(k).value(v); }

  JsonEmitter& begin_object(const char* k = nullptr) {
    if (k != nullptr) key(k);
    comma();
    begin('{', '}');
    return *this;
  }
  JsonEmitter& begin_array(const char* k = nullptr) {
    if (k != nullptr) key(k);
    comma();
    begin('[', ']');
    return *this;
  }
  JsonEmitter& end() {
    os_ << stack_.back();
    stack_.pop_back();
    first_.pop_back();
    return *this;
  }

  /// Close every open scope and return the document.
  [[nodiscard]] std::string str() {
    while (!stack_.empty()) end();
    return os_.str();
  }

  /// str() to a file; returns false on I/O failure.
  bool write(const std::string& path) {
    std::ofstream f(path);
    f << str() << "\n";
    return static_cast<bool>(f);
  }

 private:
  void begin(char open, char close) {
    os_ << open;
    stack_.push_back(close);
    first_.push_back(true);
    pending_value_ = false;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // the value completing a "key": pair — no comma
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }

  std::ostringstream os_;
  std::vector<char> stack_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

/// Pull one numeric field out of a (previously emitted) flat JSON
/// document: scans for `"key":` after the position of `section` and
/// parses the number that follows. Good enough to read back our own
/// BENCH_*.json baselines without a JSON dependency; returns `fallback`
/// when absent.
[[nodiscard]] inline double json_number_after(const std::string& doc,
                                              const std::string& section,
                                              const std::string& key,
                                              double fallback) {
  std::size_t from = 0;
  if (!section.empty()) {
    from = doc.find("\"" + section + "\"");
    if (from == std::string::npos) return fallback;
  }
  const std::size_t at = doc.find("\"" + key + "\":", from);
  if (at == std::string::npos) return fallback;
  const char* p = doc.c_str() + at + key.size() + 3;
  char* endp = nullptr;
  const double v = std::strtod(p, &endp);
  return endp == p ? fallback : v;
}

struct BenchSetup {
  std::int64_t sets;      ///< samples per sweep point
  std::uint64_t seed;
  CsvWriter csv;          ///< active iff --csv given

  BenchSetup(const CliFlags& flags, std::int64_t default_sets)
      : sets(flags.get_int_env("sets", "EDFKIT_SETS", default_sets)),
        seed(static_cast<std::uint64_t>(flags.get_int("seed", 20050307))),
        csv(flags.has("csv") ? CsvWriter(flags.get("csv", "bench.csv"))
                             : CsvWriter()) {}
};

inline void banner(const char* what, const char* paper_ref,
                   const BenchSetup& s) {
  std::printf("== %s ==\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("samples per point: %lld (override: --sets N or EDFKIT_SETS)\n",
              static_cast<long long>(s.sets));
  std::printf("seed: %llu\n\n", static_cast<unsigned long long>(s.seed));
}

}  // namespace edfkit::bench
