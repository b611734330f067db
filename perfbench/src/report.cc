#include "perfbench/src/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

uint64_t Percentile(std::vector<uint64_t>* values, double q) {
  if (values->empty()) {
    return 0;
  }
  std::sort(values->begin(), values->end());
  double pos = q * static_cast<double>(values->size() - 1);
  return (*values)[static_cast<size_t>(pos + 0.5)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Best(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(
      0.01 * static_cast<double>(values.size() - 1) + 0.5)];
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string clock, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                            std::move(clock), std::move(note)});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void Report::PrintLines() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-40s = %-14.6g %-6s [%s]%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.clock.c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
}

std::string Report::Json(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& keep) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : keep) {
    const Metric* m = Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      std::abort();
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m->value);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + m->name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang";
#else
constexpr const char* kCompiler = "gcc";
#endif

std::string Provenance(const std::string& workload, uint64_t seed,
                       int seconds, bool trace) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "provenance workload=%s seed=%llu seconds=%d trace=%d "
                "nproc=%ld compiler=\"%s %s\" build=%s flags=\"%s\"",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                kCompiler, __VERSION__, PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
