// flextrace_check — the CI budget gate over BENCH_<name>.json artifacts.
//
// The flextrace counters are deterministic for the fixed-iteration bench
// workloads (the simulation performs the same operations every run), so
// the budgets pin exact values for the whole counter catalog: any drift
// in copies, allocations, traps, or bytes-on-wire is a regression (or an
// intentional change that must regenerate the budgets with --update).
// Each bench's budget must name exactly the catalog's counters — a
// counter missing from it, or a key the catalog does not have, fails the
// check — so a new counter is one catalog line plus one --update.
//
//   flextrace_check --budgets=bench/budgets/smoke.json --dir=OUT
//   flextrace_check --budgets=bench/budgets/smoke.json --dir=OUT --update
//
// --timeline switches the gate to flexwatch TIMELINE_<name>.json
// artifacts: tick counts, series counts, sketch-cell counts, and total
// sketch samples are exact for a seeded run, so the timeline budgets pin
// them the same way (same key-set rule, same --update regeneration, same
// unified-diff failure report):
//
//   flextrace_check --timeline --budgets=bench/budgets/timeline.json
//       --dir=OUT [--update]
//
// A budget or artifact value that is not a non-negative integer is a
// violation. Exit code 0 = all benches within budget; 1 = violation or
// usage error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/json.h"
#include "src/support/status.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

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

struct Options {
  std::string argv0 = "flextrace_check";
  std::string budgets_path;
  std::string dir = ".";
  bool update = false;
  bool timeline = false;  // gate TIMELINE_*.json instead of BENCH_*.json
};

// One out-of-budget value, kept structured so the failure report can
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

// One artifact's gated (key, value) pairs, in the order --update writes
// them. The keys are exactly what a budget entry must name.
using Observed = std::vector<std::pair<std::string, uint64_t>>;

// Reads a BENCH_ artifact: its whole counter catalog, after the shape
// checks that make the counters comparable at all.
Status ObserveBench(std::string_view text, bool want_smoke, Observed* out) {
  FLEXRPC_ASSIGN_OR_RETURN(JsonValue artifact, ParseJson(text));
  const JsonValue* schema = artifact.Find("schema");
  if (schema == nullptr || schema->string != "flexrpc-bench-v1") {
    return InvalidArgumentError("missing/unknown schema");
  }
  const JsonValue* smoke = artifact.Find("smoke");
  if (smoke == nullptr || smoke->kind != JsonValue::Kind::kBool) {
    return InvalidArgumentError("missing smoke flag");
  }
  // Comparing a full run against smoke budgets (or vice versa) would
  // "fail" on every counter for the wrong reason — refuse outright.
  if (smoke->boolean != want_smoke) {
    return InvalidArgumentError(StrFormat(
        "artifact is a %s run but budgets are for %s runs",
        smoke->boolean ? "smoke" : "full", want_smoke ? "smoke" : "full"));
  }
  const JsonValue* results = artifact.Find("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray ||
      results->array.empty()) {
    return InvalidArgumentError("empty results array");
  }
  const JsonValue* trace = artifact.Find("trace");
  const JsonValue* counters =
      trace != nullptr ? trace->Find("counters") : nullptr;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    std::string name(TraceCounterName(static_cast<TraceCounter>(i)));
    const JsonValue* v = counters != nullptr ? counters->Find(name) : nullptr;
    // A counter the artifact does not carry counted nothing.
    std::optional<uint64_t> value = v != nullptr ? v->AsUInt() : 0u;
    if (!value) {
      return InvalidArgumentError(
          StrFormat("counter %s is not an integer", name.c_str()));
    }
    out->emplace_back(std::move(name), *value);
  }
  return Status::Ok();
}

// Reads a TIMELINE_ artifact's gated shape, all exact for a seeded run:
// drift in tick count means the run's virtual span changed; drift in the
// sketch-cell (distinct series, dim, window) or summed sample counts means
// observations moved across windows, dimensions, or series.
Status ObserveTimeline(std::string_view text, bool /*want_smoke*/,
                       Observed* out) {
  FLEXRPC_ASSIGN_OR_RETURN(Timeline timeline, ParseTimeline(text));
  uint64_t sketch_samples = 0;
  for (const auto& [key, sketch] : timeline.sketches) {
    sketch_samples += sketch.count();
  }
  *out = {
      {"tick_nanos", timeline.tick_nanos},
      {"ticks", timeline.ticks},
      {"counter_series", timeline.counters.size()},
      {"gauge_series", timeline.gauges.size()},
      {"sketch_cells", timeline.sketches.size()},
      {"sketch_samples", sketch_samples},
  };
  return Status::Ok();
}

// What differs between the two artifact kinds; loading the budgets,
// comparing keys, --update, the diff and the hint are shared.
struct ArtifactKind {
  const char* budgets_schema;
  const char* prefix;      // artifact file name: <prefix><bench>.json
  const char* noun;        // diff hunk header
  const char* plural;      // summary line
  const char* key_noun;    // what a budget key names
  const char* catalog;     // where the observed keys come from
  bool has_mode;           // budgets pin "smoke" or "full" runs
  bool ranges;             // a budget may be [lo, hi] rather than exact
  Status (*observe)(std::string_view text, bool want_smoke, Observed* out);
};

constexpr ArtifactKind kBenchKind = {
    "flexrpc-bench-budgets-v1", "BENCH_", "bench", "bench(es)",
    "counter", "counter catalog", true, true, ObserveBench};
constexpr ArtifactKind kTimelineKind = {
    "flexrpc-timeline-budgets-v1", "TIMELINE_", "timeline", "timeline(s)",
    "key", "timeline shape", false, false, ObserveTimeline};

Result<Observed> Observe(const ArtifactKind& kind, const Options& opts,
                         const std::string& bench, bool want_smoke) {
  FLEXRPC_ASSIGN_OR_RETURN(
      std::string text,
      ReadFile(opts.dir + "/" + kind.prefix + bench + ".json"));
  Observed observed;
  Status status = kind.observe(text, want_smoke, &observed);
  if (!status.ok()) {
    return InvalidArgumentError(
        StrFormat("%s: %s", bench.c_str(), status.message().c_str()));
  }
  return observed;
}

// Compares one bench's observed values against its budget entry.
void CheckBudget(const ArtifactKind& kind, const std::string& bench,
                 const Observed& observed, const JsonValue& budget,
                 std::vector<std::string>* violations,
                 std::vector<Drift>* drifts) {
  if (!budget.IsObject()) {
    violations->push_back(bench + ": malformed budget entry");
    return;
  }
  for (const auto& [key, got] : observed) {
    if (budget.Find(key) == nullptr) {
      violations->push_back(StrFormat("%s: %s %s is missing from the budget",
                                      bench.c_str(), kind.key_noun,
                                      key.c_str()));
    }
  }
  for (const auto& [key, want] : budget.object) {
    auto it = std::find_if(observed.begin(), observed.end(),
                           [&](const auto& kv) { return kv.first == key; });
    if (it == observed.end()) {
      violations->push_back(StrFormat("%s: budget key %s is not in the %s",
                                      bench.c_str(), key.c_str(),
                                      kind.catalog));
      continue;
    }
    std::optional<uint64_t> lo = want.AsUInt();
    std::optional<uint64_t> hi = lo;
    if (kind.ranges && want.kind == JsonValue::Kind::kArray &&
        want.array.size() == 2) {
      lo = want.array[0].AsUInt();
      hi = want.array[1].AsUInt();
    }
    if (!lo || !hi) {
      violations->push_back(bench + ": malformed budget for " + key);
      continue;
    }
    uint64_t got = it->second;
    if (got < *lo || got > *hi) {
      violations->push_back(
          *lo == *hi
              ? StrFormat("%s: %s = %llu, budget pins %llu", bench.c_str(),
                          key.c_str(), static_cast<unsigned long long>(got),
                          static_cast<unsigned long long>(*lo))
              : StrFormat("%s: %s = %llu outside budget [%llu, %llu]",
                          bench.c_str(), key.c_str(),
                          static_cast<unsigned long long>(got),
                          static_cast<unsigned long long>(*lo),
                          static_cast<unsigned long long>(*hi)));
      drifts->push_back(Drift{bench, key, *lo, *hi, got});
    }
  }
}

int Run(const ArtifactKind& kind, const Options& opts) {
  auto budgets = LoadJson(opts.budgets_path);
  if (!budgets.ok()) {
    return Fail(budgets.status().ToString().c_str());
  }
  const JsonValue* schema = budgets->Find("schema");
  if (schema == nullptr || schema->string != kind.budgets_schema) {
    return Fail("budgets file has missing/unknown schema");
  }
  const JsonValue* mode = budgets->Find("mode");
  if (kind.has_mode && (mode == nullptr || (mode->string != "smoke" &&
                                            mode->string != "full"))) {
    return Fail("budgets file mode must be \"smoke\" or \"full\"");
  }
  bool want_smoke = kind.has_mode && mode->string == "smoke";
  const JsonValue* benches = budgets->Find("benches");
  if (benches == nullptr || !benches->IsObject()) {
    return Fail("budgets file has no benches object");
  }

  if (opts.update) {
    // Regenerate: pin every observed value exactly.
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(kind.budgets_schema);
    if (kind.has_mode) {
      w.Key("mode").String(mode->string);
    }
    w.Key("benches").BeginObject();
    for (const auto& [bench, unused] : benches->object) {
      (void)unused;
      auto observed = Observe(kind, opts, bench, want_smoke);
      if (!observed.ok()) {
        return Fail(observed.status().ToString().c_str());
      }
      w.Key(bench).BeginObject();
      for (const auto& [key, value] : *observed) {
        w.Key(key).UInt(value);
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
    std::printf("flextrace_check: rewrote %s (%zu %s)\n",
                opts.budgets_path.c_str(), benches->object.size(),
                kind.plural);
    return 0;
  }

  std::vector<std::string> violations;
  std::vector<Drift> drifts;
  for (const auto& [bench, budget] : benches->object) {
    auto observed = Observe(kind, opts, bench, want_smoke);
    if (!observed.ok()) {
      violations.push_back(observed.status().ToString());
      continue;
    }
    CheckBudget(kind, bench, *observed, budget, &violations, &drifts);
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
          std::fprintf(stderr, "@@ %s %s @@\n", kind.noun, d.bench.c_str());
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
                 "\nflextrace_check: %zu violation(s). If the change is "
                 "intentional, regenerate the budgets with:\n"
                 "  %s%s --budgets=%s --dir=%s --update\n",
                 violations.size(), opts.argv0.c_str(),
                 opts.timeline ? " --timeline" : "",
                 opts.budgets_path.c_str(), opts.dir.c_str());
    return 1;
  }
  std::printf("flextrace_check: %zu %s within budget\n",
              benches->object.size(), kind.plural);
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
  return flexrpc::Run(
      opts.timeline ? flexrpc::kTimelineKind : flexrpc::kBenchKind, opts);
}
