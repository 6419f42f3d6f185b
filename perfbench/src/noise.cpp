#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <string>
#include <system_error>

#include "runs.hpp"

namespace perfbench {

std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t v[8] = {};
  in >> label;
  for (std::uint64_t& x : v) in >> x;
  if (!in || label != "cpu") return 0;
  return v[7];  // user nice system idle iowait irq softirq steal
}

int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::system_error(errno, std::generic_category(), "sched_getaffinity");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::system_error(errno, std::generic_category(), "sched_setaffinity");
  }
  return cpu;
}

void print_host(std::FILE* out, int pinned_cpu) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::fprintf(out,
               "host: nproc=%ld cpu=\"%s\" pinning=benchmark, server and "
               "twin all on cpu %d\n",
               ::sysconf(_SC_NPROCESSORS_ONLN), model.c_str(), pinned_cpu);
}

void print_phase_noise(std::FILE* out, std::uint64_t steal_delta, double cpu_s,
                       double wall_s) {
  std::fprintf(out,
               "noise: steal_ticks=%llu over the timed phase, deciding "
               "process cpu/wall=%.3f (%.3f s / %.3f s)\n",
               static_cast<unsigned long long>(steal_delta),
               wall_s > 0 ? cpu_s / wall_s : 0.0, cpu_s, wall_s);
}

}  // namespace perfbench
