// Statistics and output for perfbench runs.
//
// Every metric carries its unit and its clock: `host` (the real CPU the
// benchmark runs on), `virt` (the simulation's VirtualClock, exact for a
// seed), or `count` (deterministic work counts and ratios of them).

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// The percentile rule of flexrpc::RunFleet: nearest rank at q * (n - 1),
// rounded. Sorts `values` in place; 0 when empty.
uint64_t Percentile(std::vector<uint64_t>* values, double q);

// Median of doubles (mean of the middle two for even counts); 0 if empty.
double Median(std::vector<double> values);
// The 1st percentile (nearest rank): the best of N, ignoring the fastest
// 1% as outliers; 0 if empty.
double Best(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;  // host | virt | count
  std::string note;   // sample count, or what the value is over
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string clock, std::string note = "");
  const Metric* Find(const std::string& name) const;

  // One human-readable line per metric:
  //   metric <name> = <value> <unit> [<clock>] <note>
  void PrintLines() const;
  // The final line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  // carrying only the metrics named in `keep`, in that order. Every name in
  // `keep` must have been added.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& keep) const;

 private:
  std::vector<Metric> metrics_;
};

// Build and host provenance, printed with every run.
std::string Provenance(const std::string& workload, uint64_t seed,
                       int seconds, bool trace);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
