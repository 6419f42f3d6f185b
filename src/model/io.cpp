#include "model/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace edfkit {
namespace {

Time parse_time_field(const std::string& tok, int line_no) {
  if (tok == "inf" || tok == "INF") return kTimeInfinity;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument("trailing chars");
    return static_cast<Time>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("task set line " + std::to_string(line_no) +
                                ": bad time value '" + tok + "'");
  }
}

}  // namespace

TaskSet read_task_set(std::istream& in) {
  TaskSet ts;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw)) continue;  // blank line
    if (kw != "task") {
      throw std::invalid_argument("task set line " + std::to_string(line_no) +
                                  ": expected 'task', got '" + kw + "'");
    }
    std::string name, c, d, t;
    if (!(ls >> name >> c >> d >> t)) {
      throw std::invalid_argument("task set line " + std::to_string(line_no) +
                                  ": expected 'task <name> <C> <D> <T> [J]'");
    }
    Task tk;
    tk.name = name;
    tk.wcet = parse_time_field(c, line_no);
    tk.deadline = parse_time_field(d, line_no);
    tk.period = parse_time_field(t, line_no);
    std::string j;
    if (ls >> j) tk.jitter = parse_time_field(j, line_no);
    std::string extra;
    if (ls >> extra) {
      throw std::invalid_argument("task set line " + std::to_string(line_no) +
                                  ": unexpected trailing token '" + extra + "'");
    }
    try {
      ts.add(std::move(tk));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("task set line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
  }
  return ts;
}

TaskSet parse_task_set(const std::string& text) {
  std::istringstream in(text);
  return read_task_set(in);
}

void write_task_set(std::ostream& out, const TaskSet& ts) {
  out << "# edfkit task set: n=" << ts.size() << " U~"
      << ts.utilization_double() << "\n";
  std::size_t i = 0;
  for (const Task& t : ts) {
    out << "task ";
    if (t.name.empty()) {
      out << "t" << i;
    } else {
      out << t.name;
    }
    out << " " << t.wcet << " " << t.deadline << " ";
    if (is_time_infinite(t.period)) {
      out << "inf";
    } else {
      out << t.period;
    }
    if (t.jitter != 0) out << " " << t.jitter;
    out << "\n";
    ++i;
  }
}

std::string format_task_set(const TaskSet& ts) {
  std::ostringstream os;
  write_task_set(os, ts);
  return os.str();
}

TaskSet load_task_set(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw std::runtime_error("cannot open " + path);
  return read_task_set(in);
}

void save_task_set(const std::string& path, const TaskSet& ts) {
  std::ofstream out(path);
  if (!out.is_open()) throw std::runtime_error("cannot open " + path);
  write_task_set(out, ts);
}

}  // namespace edfkit
