// flextrace_check — the CI budget gate over BENCH_<name>.json artifacts.
//
// The flextrace counters are deterministic for the fixed-iteration bench
// workloads (the simulation performs the same operations every run), so
// the budgets pin exact values: any drift in copies, allocations, traps,
// or bytes-on-wire is a regression (or an intentional change that must
// regenerate the budgets with --update).
//
//   flextrace_check --budgets=bench/budgets/smoke.json --dir=OUT
//   flextrace_check --budgets=bench/budgets/smoke.json --dir=OUT --update
//
// --timeline switches the gate to flexwatch TIMELINE_<name>.json
// artifacts: tick counts, series counts, sketch-cell counts, and total
// sketch samples are exact for a seeded run, so the timeline budgets pin
// them the same way (same --update regeneration, same unified-diff
// failure report):
//
//   flextrace_check --timeline --budgets=bench/budgets/timeline.json \
//       --dir=OUT [--update]
//
// Exit code 0 = all benches within budget; 1 = violation or usage error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/json.h"
#include "src/support/status.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"

namespace flexrpc {
namespace {

// The gated subset of the counter catalog: the work the paper's
// evaluation argues about. Timing *values* are deliberately absent —
// they are host-dependent — but histogram observation counts are gated
// separately below.
constexpr const char* kGatedCounters[] = {
    "kernel.traps",
    "kernel.port_transfers.unique",
    "kernel.port_transfers.nonunique",
    "mem.copies",
    "mem.copy_bytes",
    "arena.bump_allocs",
    "arena.block_allocs",
    "fbuf.allocs",
    "fbuf.bytes_by_reference",
    "fbuf.bytes_copied",
    "ipc.bytes_copied",
    "ipc.sigcache.hits",
    "ipc.sigcache.misses",
    "rpc.client.calls",
    "rpc.server.dispatches",
    "marshal.bytes_marshaled",
    "marshal.bytes_unmarshaled",
    // flexspec dispatch: hit/miss split is deterministic for a fixed
    // workload — a drift means a specialization appeared, vanished, or
    // stopped matching its plan key.
    "marshal.spec.hit",
    "marshal.spec.miss",
    "net.packets",
    "net.bytes_on_wire",
    // Lossy-wire substrate: injected faults and their recovery are
    // deterministic (seeded FaultPlan + virtual clock), so CI pins them
    // exactly — a drift here means the fault schedule itself changed.
    "net.datagrams_sent",
    "net.datagrams_delivered",
    "net.fault.drops",
    "net.fault.dups",
    "net.fault.reorders",
    "net.fault.corrupts",
    "net.checksum_failures",
    "net.frame_copies",
    "rpc.dupcache.hits",
    "rpc.dupcache.misses",
    // Adaptive transport: estimator samples, Karn exclusions, RTO clamps,
    // and AIMD window moves are exact for the seeded bench workloads — a
    // drift means the control loop's trajectory changed.
    "rpc.rtt.samples",
    "rpc.rtt.karn_skips",
    "rpc.rtt.clamps",
    "rpc.cwnd.increases",
    "rpc.cwnd.decreases",
    // Managed-binding control plane: calls routed, live rebinds, probes,
    // and health transitions are exact for the scripted kill schedules —
    // a drift means the failover trajectory changed.
    "rpc.binder.calls",
    "rpc.binder.reissues",
    "rpc.binder.probes",
    "rpc.binder.cutovers",
    "rpc.failover.suspects",
    "rpc.failover.reinstates",
    // The call engine (connection mux + worker-pool dispatch), every shape
    // from serial to fleet. Exact for a fixed seed: arrivals, faults,
    // sheds, and retransmits all replay.
    "rpc.mux.conns_opened",
    "rpc.mux.calls",
    "rpc.mux.retransmits",
    "rpc.mux.stale_replies",
    "rpc.mux.flow_stalls",
    "rpc.dispatch.accepts",
    "rpc.dispatch.executions",
    "rpc.dispatch.shed",
    "rpc.dupcache.evictions",
    "rpc.dupcache.evicted_reexecs",
};

// Histogram *counts* are gated too: the number of observations (marshals,
// dispatches, messages, wire transfers) is exact for a fixed workload even
// where the observed values are host wall time. Budget keys carry a
// ".count" suffix on the histogram name; an artifact that elides a
// zero-observation histogram reads as 0.
constexpr const char* kGatedHistogramCounts[] = {
    "rpc.marshal_nanos.count",
    "rpc.unmarshal_nanos.count",
    "rpc.dispatch_nanos.count",
    "ipc.message_bytes.count",
    "net.transfer_virtual_nanos.count",
    "rpc.dispatch.queue_depth.count",
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError(StrFormat("cannot open %s", path.c_str()));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Result<JsonValue> LoadJson(const std::string& path) {
  FLEXRPC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    return InvalidArgumentError(StrFormat(
        "%s: %s", path.c_str(), parsed.status().message().c_str()));
  }
  return parsed;
}

uint64_t CounterOf(const JsonValue& artifact, const char* name) {
  const JsonValue* trace = artifact.Find("trace");
  const JsonValue* counters =
      trace != nullptr ? trace->Find("counters") : nullptr;
  const JsonValue* v = counters != nullptr ? counters->Find(name) : nullptr;
  if (v == nullptr || !v->IsNumber()) {
    return 0;
  }
  return static_cast<uint64_t>(v->number);
}

uint64_t HistogramCountOf(const JsonValue& artifact,
                          const std::string& histogram) {
  const JsonValue* trace = artifact.Find("trace");
  const JsonValue* histograms =
      trace != nullptr ? trace->Find("histograms") : nullptr;
  const JsonValue* h = histograms != nullptr
                           ? histograms->Find(histogram.c_str())
                           : nullptr;
  // Zero-observation histograms are elided from the artifact entirely.
  const JsonValue* v = h != nullptr ? h->Find("count") : nullptr;
  if (v == nullptr || !v->IsNumber()) {
    return 0;
  }
  return static_cast<uint64_t>(v->number);
}

// Resolves a budget key to its observed value: "<histogram>.count" keys
// read trace.histograms, everything else reads trace.counters.
uint64_t GatedValueOf(const JsonValue& artifact, const std::string& key) {
  constexpr std::string_view kCountSuffix = ".count";
  if (key.size() > kCountSuffix.size() &&
      key.compare(key.size() - kCountSuffix.size(), kCountSuffix.size(),
                  kCountSuffix) == 0) {
    return HistogramCountOf(
        artifact, key.substr(0, key.size() - kCountSuffix.size()));
  }
  return CounterOf(artifact, key.c_str());
}

struct Options {
  std::string argv0 = "flextrace_check";
  std::string budgets_path;
  std::string dir = ".";
  bool update = false;
  bool timeline = false;  // gate TIMELINE_*.json instead of BENCH_*.json
};

// One out-of-budget counter, kept structured so the failure report can
// render a unified diff of the budget file against observed reality.
struct Drift {
  std::string bench;
  std::string key;
  uint64_t want_lo = 0;
  uint64_t want_hi = 0;
  uint64_t got = 0;
};

int Fail(const char* why) {
  std::fprintf(stderr, "flextrace_check: %s\n", why);
  return 1;
}

// Validates one artifact's shape and (unless updating) its counters
// against the bench's budget entry. Appends human-readable violations.
void CheckBench(const std::string& bench, const JsonValue& artifact,
                bool want_smoke, const JsonValue* budget,
                std::vector<std::string>* violations,
                std::vector<Drift>* drifts) {
  const JsonValue* schema = artifact.Find("schema");
  if (schema == nullptr || schema->string != "flexrpc-bench-v1") {
    violations->push_back(bench + ": missing/unknown schema");
    return;
  }
  const JsonValue* smoke = artifact.Find("smoke");
  if (smoke == nullptr || smoke->kind != JsonValue::Kind::kBool) {
    violations->push_back(bench + ": missing smoke flag");
    return;
  }
  // Comparing a full run against smoke budgets (or vice versa) would
  // "fail" on every counter for the wrong reason — refuse outright.
  if (smoke->boolean != want_smoke) {
    violations->push_back(StrFormat(
        "%s: artifact is a %s run but budgets are for %s runs",
        bench.c_str(), smoke->boolean ? "smoke" : "full",
        want_smoke ? "smoke" : "full"));
    return;
  }
  const JsonValue* results = artifact.Find("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray ||
      results->array.empty()) {
    violations->push_back(bench + ": empty results array");
  }
  if (budget == nullptr) {
    return;
  }
  for (const auto& [name, want] : budget->object) {
    uint64_t got = GatedValueOf(artifact, name);
    uint64_t lo;
    uint64_t hi;
    if (want.IsNumber()) {
      lo = hi = static_cast<uint64_t>(want.number);
    } else if (want.kind == JsonValue::Kind::kArray &&
               want.array.size() == 2 && want.array[0].IsNumber() &&
               want.array[1].IsNumber()) {
      lo = static_cast<uint64_t>(want.array[0].number);
      hi = static_cast<uint64_t>(want.array[1].number);
    } else {
      violations->push_back(bench + ": malformed budget for " + name);
      continue;
    }
    if (got < lo || got > hi) {
      violations->push_back(StrFormat(
          "%s: %s = %llu outside budget [%llu, %llu]", bench.c_str(),
          name.c_str(), static_cast<unsigned long long>(got),
          static_cast<unsigned long long>(lo),
          static_cast<unsigned long long>(hi)));
      drifts->push_back(Drift{bench, name, lo, hi, got});
    }
  }
}

// --- the --timeline gate -------------------------------------------------

// The gated shape of a flexwatch timeline, all exact for a seeded run:
// drift in tick count means the run's virtual span changed; drift in the
// sketch-cell or sample counts means observations moved across windows,
// dimensions, or series.
struct TimelineShape {
  uint64_t tick_nanos = 0;
  uint64_t ticks = 0;
  uint64_t counter_series = 0;
  uint64_t gauge_series = 0;
  uint64_t sketch_cells = 0;    // distinct (series, dim, window) sketches
  uint64_t sketch_samples = 0;  // summed sketch counts
};

constexpr const char* kTimelineKeys[] = {
    "tick_nanos",   "ticks",        "counter_series",
    "gauge_series", "sketch_cells", "sketch_samples",
};

uint64_t TimelineKeyOf(const TimelineShape& shape, const std::string& key) {
  if (key == "tick_nanos") return shape.tick_nanos;
  if (key == "ticks") return shape.ticks;
  if (key == "counter_series") return shape.counter_series;
  if (key == "gauge_series") return shape.gauge_series;
  if (key == "sketch_cells") return shape.sketch_cells;
  if (key == "sketch_samples") return shape.sketch_samples;
  return 0;
}

Result<TimelineShape> LoadTimelineShape(const std::string& path) {
  FLEXRPC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  auto timeline = ParseTimeline(text);
  if (!timeline.ok()) {
    return InvalidArgumentError(StrFormat(
        "%s: %s", path.c_str(), timeline.status().message().c_str()));
  }
  TimelineShape shape;
  shape.tick_nanos = timeline->tick_nanos;
  shape.ticks = timeline->ticks;
  shape.counter_series = timeline->counters.size();
  shape.gauge_series = timeline->gauges.size();
  shape.sketch_cells = timeline->sketches.size();
  for (const auto& [key, sketch] : timeline->sketches) {
    (void)key;
    shape.sketch_samples += sketch.count();
  }
  return shape;
}

int RunTimeline(const Options& opts) {
  auto budgets = LoadJson(opts.budgets_path);
  if (!budgets.ok()) {
    return Fail(budgets.status().ToString().c_str());
  }
  const JsonValue* schema = budgets->Find("schema");
  if (schema == nullptr ||
      schema->string != "flexrpc-timeline-budgets-v1") {
    return Fail("timeline budgets file has missing/unknown schema");
  }
  const JsonValue* benches = budgets->Find("benches");
  if (benches == nullptr || !benches->IsObject()) {
    return Fail("timeline budgets file has no benches object");
  }

  if (opts.update) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("flexrpc-timeline-budgets-v1");
    w.Key("benches").BeginObject();
    for (const auto& [bench, unused] : benches->object) {
      (void)unused;
      auto shape =
          LoadTimelineShape(opts.dir + "/TIMELINE_" + bench + ".json");
      if (!shape.ok()) {
        return Fail(shape.status().ToString().c_str());
      }
      w.Key(bench).BeginObject();
      for (const char* key : kTimelineKeys) {
        w.Key(key).UInt(TimelineKeyOf(*shape, key));
      }
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::FILE* f = std::fopen(opts.budgets_path.c_str(), "w");
    if (f == nullptr) {
      return Fail("cannot write timeline budgets file");
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("flextrace_check: rewrote %s (%zu timelines)\n",
                opts.budgets_path.c_str(), benches->object.size());
    return 0;
  }

  std::vector<std::string> violations;
  std::vector<Drift> drifts;
  for (const auto& [bench, budget] : benches->object) {
    auto shape =
        LoadTimelineShape(opts.dir + "/TIMELINE_" + bench + ".json");
    if (!shape.ok()) {
      violations.push_back(shape.status().ToString());
      continue;
    }
    if (!budget.IsObject()) {
      violations.push_back(bench + ": malformed timeline budget entry");
      continue;
    }
    for (const auto& [key, want] : budget.object) {
      if (!want.IsNumber()) {
        violations.push_back(bench + ": malformed timeline budget for " +
                             key);
        continue;
      }
      uint64_t lo = static_cast<uint64_t>(want.number);
      uint64_t got = TimelineKeyOf(*shape, key);
      if (got != lo) {
        violations.push_back(StrFormat(
            "%s: %s = %llu, budget pins %llu", bench.c_str(), key.c_str(),
            static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(lo)));
        drifts.push_back(Drift{bench, key, lo, lo, got});
      }
    }
  }
  if (!violations.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "flextrace_check: FAIL %s\n", v.c_str());
    }
    if (!drifts.empty()) {
      std::fprintf(stderr, "\n--- %s (budget)\n+++ %s (observed)\n",
                   opts.budgets_path.c_str(), opts.dir.c_str());
      std::string current_bench;
      for (const Drift& d : drifts) {
        if (d.bench != current_bench) {
          current_bench = d.bench;
          std::fprintf(stderr, "@@ timeline %s @@\n", d.bench.c_str());
        }
        std::fprintf(stderr, "-  \"%s\": %llu\n", d.key.c_str(),
                     static_cast<unsigned long long>(d.want_lo));
        std::fprintf(stderr, "+  \"%s\": %llu\n", d.key.c_str(),
                     static_cast<unsigned long long>(d.got));
      }
    }
    std::fprintf(stderr,
                 "\nflextrace_check: %zu violation(s). If the change is "
                 "intentional, regenerate the timeline budgets with:\n"
                 "  %s --timeline --budgets=%s --dir=%s --update\n",
                 violations.size(), opts.argv0.c_str(),
                 opts.budgets_path.c_str(), opts.dir.c_str());
    return 1;
  }
  std::printf("flextrace_check: %zu timeline(s) within budget\n",
              benches->object.size());
  return 0;
}

int Run(const Options& opts) {
  auto budgets = LoadJson(opts.budgets_path);
  if (!budgets.ok()) {
    return Fail(budgets.status().ToString().c_str());
  }
  const JsonValue* schema = budgets->Find("schema");
  if (schema == nullptr ||
      schema->string != "flexrpc-bench-budgets-v1") {
    return Fail("budgets file has missing/unknown schema");
  }
  const JsonValue* mode = budgets->Find("mode");
  if (mode == nullptr ||
      (mode->string != "smoke" && mode->string != "full")) {
    return Fail("budgets file mode must be \"smoke\" or \"full\"");
  }
  bool want_smoke = mode->string == "smoke";
  const JsonValue* benches = budgets->Find("benches");
  if (benches == nullptr || !benches->IsObject()) {
    return Fail("budgets file has no benches object");
  }

  if (opts.update) {
    // Regenerate: pin every gated counter to its observed value.
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("flexrpc-bench-budgets-v1");
    w.Key("mode").String(mode->string);
    w.Key("benches").BeginObject();
    for (const auto& [bench, unused] : benches->object) {
      (void)unused;
      auto artifact =
          LoadJson(opts.dir + "/BENCH_" + bench + ".json");
      if (!artifact.ok()) {
        return Fail(artifact.status().ToString().c_str());
      }
      w.Key(bench).BeginObject();
      for (const char* name : kGatedCounters) {
        w.Key(name).UInt(CounterOf(*artifact, name));
      }
      for (const char* name : kGatedHistogramCounts) {
        w.Key(name).UInt(GatedValueOf(*artifact, name));
      }
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::FILE* f = std::fopen(opts.budgets_path.c_str(), "w");
    if (f == nullptr) {
      return Fail("cannot write budgets file");
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("flextrace_check: rewrote %s (%zu benches)\n",
                opts.budgets_path.c_str(), benches->object.size());
    return 0;
  }

  std::vector<std::string> violations;
  std::vector<Drift> drifts;
  for (const auto& [bench, budget] : benches->object) {
    auto artifact = LoadJson(opts.dir + "/BENCH_" + bench + ".json");
    if (!artifact.ok()) {
      violations.push_back(artifact.status().ToString());
      continue;
    }
    CheckBench(bench, *artifact, want_smoke, &budget, &violations, &drifts);
  }
  if (!violations.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "flextrace_check: FAIL %s\n", v.c_str());
    }
    if (!drifts.empty()) {
      // A unified diff of the budget file against observed reality, one
      // hunk per bench — paste-able into a review to see exactly what the
      // work change moved.
      std::fprintf(stderr, "\n--- %s (budget)\n+++ %s (observed)\n",
                   opts.budgets_path.c_str(), opts.dir.c_str());
      std::string current_bench;
      for (const Drift& d : drifts) {
        if (d.bench != current_bench) {
          current_bench = d.bench;
          std::fprintf(stderr, "@@ bench %s @@\n", d.bench.c_str());
        }
        if (d.want_lo == d.want_hi) {
          std::fprintf(stderr, "-  \"%s\": %llu\n", d.key.c_str(),
                       static_cast<unsigned long long>(d.want_lo));
        } else {
          std::fprintf(stderr, "-  \"%s\": [%llu, %llu]\n", d.key.c_str(),
                       static_cast<unsigned long long>(d.want_lo),
                       static_cast<unsigned long long>(d.want_hi));
        }
        std::fprintf(stderr, "+  \"%s\": %llu\n", d.key.c_str(),
                     static_cast<unsigned long long>(d.got));
      }
    }
    std::fprintf(stderr,
                 "\nflextrace_check: %zu violation(s). If the work change "
                 "is intentional, regenerate the budgets with:\n"
                 "  %s --budgets=%s --dir=%s --update\n",
                 violations.size(), opts.argv0.c_str(),
                 opts.budgets_path.c_str(), opts.dir.c_str());
    return 1;
  }
  std::printf("flextrace_check: %zu bench(es) within budget\n",
              benches->object.size());
  return 0;
}

}  // namespace
}  // namespace flexrpc

int main(int argc, char** argv) {
  flexrpc::Options opts;
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '\0') {
    opts.argv0 = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--budgets=", 10) == 0) {
      opts.budgets_path = arg + 10;
    } else if (std::strncmp(arg, "--dir=", 6) == 0) {
      opts.dir = arg + 6;
    } else if (std::strcmp(arg, "--update") == 0) {
      opts.update = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      opts.timeline = true;
    } else {
      std::fprintf(stderr,
                   "usage: flextrace_check [--timeline] --budgets=FILE "
                   "[--dir=DIR] [--update]\n");
      return 1;
    }
  }
  if (opts.budgets_path.empty()) {
    return flexrpc::Fail("--budgets= is required");
  }
  return opts.timeline ? flexrpc::RunTimeline(opts) : flexrpc::Run(opts);
}
