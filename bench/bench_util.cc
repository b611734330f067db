#include "bench/bench_util.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace flexrpc_bench {

BenchHarness::BenchHarness(std::string name, int* argc, char** argv)
    : name_(std::move(name)) {
  // Strip our flags before google-benchmark sees argv — it rejects flags
  // it does not recognize.
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke_ = true;
    } else if (std::strcmp(arg, "--record") == 0) {
      record_ = true;
    } else if (std::strncmp(arg, "--json_dir=", 11) == 0) {
      json_dir_ = arg + 11;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  benchmark::Initialize(argc, argv);
}

BenchHarness::~BenchHarness() {
  benchmark::Shutdown();
}

void BenchHarness::RunMicrobenchmarks() {
  // The adaptive-iteration gbench phase is skipped under --smoke: it is
  // slow and its iteration counts are nondeterministic. It always runs
  // outside the trace window, so it never perturbs the gated counters.
  if (!smoke_) {
    benchmark::RunSpecifiedBenchmarks();
  }
  session_.emplace();
  window_timer_.emplace();
}

double BenchHarness::BestOf(int rep_count,
                            bool smaller_is_better,
                            const std::function<double()>& measure) {
  // Timing reps run untraced: enabled tracing costs dozens of relaxed
  // atomic RMWs per call, which would shift the reproduced figures.
  bool was_tracing = flexrpc::TraceEnabled();
  flexrpc::SetTraceEnabled(false);
  double best = measure();
  for (int rep = 1; rep < rep_count; ++rep) {
    double value = measure();
    if (smaller_is_better ? value < best : value > best) {
      best = value;
    }
  }
  flexrpc::SetTraceEnabled(was_tracing);
  if (was_tracing) {
    // One extra traced repetition so the artifact still counts the work
    // (one rep's worth, which keeps the gated counters deterministic).
    measure();
  }
  return best;
}

void BenchHarness::Report(std::string name, double value, std::string unit) {
  results_.push_back(
      BenchResult{std::move(name), value, std::move(unit)});
}

bool BenchHarness::WriteArtifact(const std::string& filename,
                                 const std::string& contents) const {
  std::string path =
      (json_dir_.empty() ? std::string(".") : json_dir_) + "/" + filename;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int BenchHarness::Finish() {
  if (finished_) {
    return 0;
  }
  finished_ = true;
  double wall_seconds =
      window_timer_.has_value() ? window_timer_->ElapsedSeconds() : 0.0;
  flexrpc::TraceSnapshot delta;
  if (session_.has_value()) {
    delta = session_->Report();
  }

  flexrpc::JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("flexrpc-bench-v1");
  json.Key("bench").String(name_);
  json.Key("smoke").Bool(smoke_);
  json.Key("wall_seconds").Double(wall_seconds);
  // Modeled (virtual-clock) time spent on the simulated wire inside the
  // measurement window; zero for benches that never touch the link model.
  json.Key("virtual_nanos")
      .UInt(delta.counter(flexrpc::TraceCounter::kNetWireVirtualNanos));
  json.Key("results").BeginArray();
  for (const BenchResult& result : results_) {
    json.BeginObject();
    json.Key("name").String(result.name);
    json.Key("value").Double(result.value);
    json.Key("unit").String(result.unit);
    json.EndObject();
  }
  json.EndArray();
  json.Key("trace");
  flexrpc::WriteTraceSnapshot(json, delta);
  json.EndObject();

  std::printf("\n");
  return WriteArtifact("BENCH_" + name_ + ".json", json.str()) ? 0 : 1;
}

}  // namespace flexrpc_bench
