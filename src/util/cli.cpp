#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace edfkit {

CliFlags::CliFlags(int argc, char** argv) {
  program_ = (argc > 0) ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      rest_.push_back(tok);
      continue;
    }
    std::string name = tok.substr(2);
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    // `--name value` unless next token is another flag or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[i + 1];
      ++i;
    } else {
      values_[name] = "";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& fallback) const {
  const auto it = values_.find(name);
  return (it == values_.end()) ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::stoll(it->second);
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::stod(it->second);
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes")
    return true;
  return false;
}

bool CliFlags::reject_unknown(std::initializer_list<std::string_view> known,
                              std::ostream& err) const {
  bool rejected = false;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      err << "error: unknown flag --" << name << '\n';
      rejected = true;
    }
  }
  return rejected;
}

std::int64_t CliFlags::get_int_env(const std::string& name,
                                   const std::string& env_var,
                                   std::int64_t fallback) const {
  if (has(name)) return get_int(name, fallback);
  if (const char* v = std::getenv(env_var.c_str())) {
    try {
      return std::stoll(v);
    } catch (const std::exception&) {
      return fallback;
    }
  }
  return fallback;
}

}  // namespace edfkit
