// perfbench — the repository benchmark.
//
//   perfbench --workload <nfs_read|fleet_steady|fleet_overload_lossy>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Runs one workload, single-threaded, from a seed, for about `seconds` of
// host time, checks its outputs, prints every metric with its unit and
// clock, and ends with one JSON line. --trace 0 measures the end-to-end
// metrics with no instrumentation beyond per-call timestamps. --trace 1
// alternates those untraced repetitions (the base of
// bench.trace_overhead_pct) with traced ones: boundary spans, allocation
// counting, the library's flextrace counters and the layer replays; it
// reports the per-layer metrics. Exit status 1 when any output check
// failed, 2 on bad arguments. perfbench/README.md documents every metric.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/alloc_counter.h"
#include "perfbench/src/fleet_workload.h"
#include "perfbench/src/nfs_workload.h"
#include "perfbench/src/report.h"
#include "perfbench/src/spans.h"
#include "src/support/trace.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_out;
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* clock;
};

// The metrics BENCHMARK.json declares; the final JSON line carries exactly
// these (end-to-end untraced, per-layer traced).
constexpr MetricSpec kEndToEnd[] = {
    {"host_ns_per_call", "ns", "host"},
    {"host_call_p50_ns", "ns", "host"},
    {"host_call_p99_ns", "ns", "host"},
    {"virt_p50_us", "us", "virt"},
    {"virt_p99_us", "us", "virt"},
    {"virt_goodput_cps", "1/s", "virt"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MiB", "host"},
};

constexpr MetricSpec kPerLayer[] = {
    {"marshal.encode_pct", "%", "host"},
    {"marshal.decode_pct", "%", "host"},
    {"apps.nfs_server_pct", "%", "host"},
    {"net.link_model_pct", "%", "host"},
    {"rpc.mux.submit_pct", "%", "host"},
    {"support.event_loop_self_pct", "%", "host"},
    {"rpc.poke_pct", "%", "host"},
    {"app.handler_pct", "%", "host"},
    {"app.completion_pct", "%", "host"},
    {"bench.generator_pct", "%", "host"},
    {"bench.unattributed_pct", "%", "host"},
    {"bench.trace_overhead_pct", "%", "host"},
    {"bench.replay_coverage_pct", "%", "host"},
    {"bench.calls", "count", "count"},
    {"marshal.allocs_per_call", "count", "count"},
    {"apps.nfs_server_allocs_per_call", "count", "count"},
    {"marshal.wire_bytes_per_call", "B", "count"},
    {"marshal.spec_hit_ratio", "ratio", "count"},
    {"osim.copies_per_call", "count", "count"},
    {"osim.copy_bytes_per_call", "B", "count"},
    {"rpc.mux.submit_allocs_per_call", "count", "count"},
    {"support.event_loop_allocs_per_call", "count", "count"},
    {"rpc.poke_allocs_per_call", "count", "count"},
    {"app.handler_allocs_per_call", "count", "count"},
    {"app.completion_allocs_per_call", "count", "count"},
    {"support.events_per_call", "count", "count"},
    {"net.frames_per_call", "count", "count"},
    {"net.wire_bytes_per_call", "B", "count"},
    {"net.checksum_failures_per_call", "count", "count"},
    {"net.datagram.allocs_per_frame", "count", "count"},
    {"rpc.mux.retransmits_per_call", "count", "count"},
    {"rpc.mux.stale_replies_per_call", "count", "count"},
    {"rpc.mux.flow_stalls_per_call", "count", "count"},
    {"rpc.dispatch.exec_ratio", "ratio", "count"},
    {"rpc.dispatch.shed_per_call", "count", "count"},
    {"rpc.dispatch.max_queue_depth", "count", "count"},
    {"rpc.dispatch.busy_ratio", "ratio", "virt"},
    {"rpc.endpoint.dup_hit_ratio", "ratio", "count"},
};

double PerCall(double total, double calls) {
  return calls == 0 ? 0 : total / calls;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string Samples(size_t n, const char* what) {
  return "(1st percentile of " + std::to_string(n) + " " + what + ")";
}

struct RunState {
  Report report;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (std::find(failures.begin(), failures.end(), what) ==
          failures.end()) {
        failures.push_back(what);
      }
    }
  }
};

// Host metrics of the untraced repetitions.
struct HostSeries {
  std::vector<double> ns_per_call;
  std::vector<double> call_p50;
  std::vector<double> call_p99;
  std::vector<double> setup_s;
};

// Host figures are best of N (1st percentile). On a shared machine a
// neighbour's load slows every pass of a stretch of seconds alike, so a
// median follows the neighbour; the best passes read the unloaded machine.
void AddHostMetrics(const HostSeries& h, const char* rep_name,
                    const char* call_what, RunState* st) {
  st->report.Add("host_ns_per_call", Best(h.ns_per_call), "ns", "host",
                 Samples(h.ns_per_call.size(), rep_name));
  st->report.Add("host_call_p50_ns", Best(h.call_p50), "ns", "host",
                 std::string(call_what) + " " +
                     Samples(h.call_p50.size(), rep_name));
  st->report.Add("host_call_p99_ns", Best(h.call_p99), "ns", "host",
                 std::string(call_what) + " " +
                     Samples(h.call_p99.size(), rep_name));
  st->report.Add("setup_s", Best(h.setup_s), "s", "host",
                 Samples(h.setup_s.size(), "set-ups"));
}

void AddRunTotals(uint64_t failed, uint64_t attempted, double samples,
                  const std::string& per, RunState* st) {
  st->report.Add("fail_ratio",
                 PerCall(static_cast<double>(failed),
                         static_cast<double>(attempted)),
                 "ratio", "count", "failed / attempted");
  st->report.Add("host_call_samples", samples, "count", "count",
                 "calls per " + per + " behind each host_call percentile");
  st->report.Add("peak_rss_mb", PeakRssMb(), "MiB", "host",
                 "peak resident set of this run");
}

void AddLayerTimes(const SpanRecorder& spans, const Attribution& total,
                   uint64_t wall_ns, double calls,
                   std::initializer_list<Layer> layers, RunState* st) {
  for (Layer l : layers) {
    std::string name = LayerName(l);
    st->report.Add(name + "_ns", PerCall(total.self_ns[static_cast<size_t>(l)],
                                         calls),
                   "ns", "host", "self time per call");
    st->report.Add(name + "_pct",
                   100.0 * PerCall(total.self_ns[static_cast<size_t>(l)],
                                   static_cast<double>(wall_ns)),
                   "%", "host", "share of traced wall time");
    st->Check(total.self_ns[static_cast<size_t>(l)] ==
                  spans.self_ns(l),
              "attribution closure: online and span-list self time of " +
                  name + " disagree");
  }
  st->report.Add("bench.unattributed_pct",
                 100.0 * PerCall(total.unattributed_ns,
                                 static_cast<double>(wall_ns)),
                 "%", "host", "wall time outside every boundary span");
}

void AddAttribution(Attribution* total, const Attribution& part) {
  for (size_t l = 0; l < kLayerCount; ++l) {
    total->self_ns[l] += part.self_ns[l];
  }
  total->unattributed_ns += part.unattributed_ns;
}

void WriteSpans(const Options& opt, const std::vector<Span>& spans,
                uint64_t origin, RunState* st) {
  if (opt.spans_out.empty()) {
    return;
  }
  std::FILE* f = std::fopen(opt.spans_out.c_str(), "w");
  bool ok = f != nullptr && WriteSpansTsv(spans, origin, f);
  if (f != nullptr) {
    ok = std::fclose(f) == 0 && ok;
  }
  st->Check(ok, "could not write spans to " + opt.spans_out);
  if (ok) {
    std::printf("spans %zu written to %s\n", spans.size(),
                opt.spans_out.c_str());
  }
}

// Per-layer totals of the traced repetitions.
struct TracedTotals {
  SpanRecorder spans;
  Attribution attribution;
  uint64_t wall_ns = 0;
  uint64_t calls = 0;
  std::vector<double> ns_per_call;
  uint64_t allocs_before[kLayerCount] = {};
  uint64_t layer_allocs[kLayerCount] = {};  // of the region Snapshot() kept
  flexrpc::TraceSnapshot counters_start;
  flexrpc::TraceSnapshot region_counters;   // of the last region
  flexrpc::TraceSnapshot counters;          // of the region Snapshot() kept

  // Brackets one traced measured region.
  void Begin() {
    for (size_t l = 0; l < kLayerCount; ++l) {
      allocs_before[l] = spans.self_allocs(static_cast<Layer>(l));
    }
    counters_start = flexrpc::CaptureTrace();
    spans.ClearSpans();
  }
  void End(uint64_t wall_start, uint64_t wall_end, uint64_t region_calls,
           RunState* st) {
    region_counters = flexrpc::TraceDelta(counters_start,
                                          flexrpc::CaptureTrace());
    Attribution part;
    st->Check(AttributeSpans(spans.spans(), wall_start, wall_end, &part),
              "attribution closure: spans do not add up to the wall time");
    AddAttribution(&attribution, part);
    wall_ns += wall_end - wall_start;
    calls += region_calls;
    ns_per_call.push_back(PerCall(static_cast<double>(wall_end - wall_start),
                                  static_cast<double>(region_calls)));
  }
  // Keeps the exact counts of the region just ended.
  void Snapshot() {
    for (size_t l = 0; l < kLayerCount; ++l) {
      layer_allocs[l] =
          spans.self_allocs(static_cast<Layer>(l)) - allocs_before[l];
    }
    counters = region_counters;
  }
  double AllocsPerCall(Layer l, double region_calls) const {
    return PerCall(static_cast<double>(layer_allocs[static_cast<size_t>(l)]),
                   region_calls);
  }
};

// Switches the traced pass's instrumentation: allocation counting and the
// flextrace counters the library keeps.
void Instrument(bool on) {
  SetAllocCounting(on);
  flexrpc::SetTraceEnabled(on);
}

void AddTraceOverhead(const HostSeries& host, const TracedTotals& traced,
                      RunState* st) {
  st->report.Add("bench.trace_overhead_pct",
                 100.0 * (Best(traced.ns_per_call) / Best(host.ns_per_call) -
                          1.0),
                 "%", "host", "traced / untraced host_ns_per_call - 1");
}

// ---------------------------------------------------------------- nfs_read

void RunNfsRead(const Options& opt, RunState* st) {
  const uint64_t budget = static_cast<uint64_t>(opt.seconds) * 1'000'000'000;
  // Several set-ups per run: each repetition builds a fresh file, client
  // and plan, then reads the file pass after pass for its share of time.
  // With --trace 1 untraced and traced repetitions alternate, so both see
  // the same machine.
  const uint64_t rep_budget = std::max<uint64_t>(budget / 20, 200'000'000);
  HostSeries host;
  TracedTotals traced;
  std::vector<uint64_t> first_virt;
  size_t calls_per_pass = 0;
  uint64_t wire_bytes = 0;
  size_t traced_passes = 0;

  const uint64_t start = HostNowNanos();
  for (uint32_t rep = 0; HostNowNanos() - start < budget ||
                         host.setup_s.empty() ||
                         (opt.trace && traced_passes < 2);
       ++rep) {
    const bool trace = opt.trace && rep % 2 == 1;
    uint64_t t = HostNowNanos();
    NfsBench bench(opt.seed);
    if (!trace) {
      host.setup_s.push_back(Seconds(HostNowNanos() - t));
    }
    calls_per_pass = bench.calls_per_pass();
    Instrument(trace);
    const uint64_t rep_start = HostNowNanos();
    do {
      if (trace) {
        traced.Begin();
      }
      NfsPassResult r = bench.RunPass(trace ? &traced.spans : nullptr);
      st->Check(bench.VerifyAndClear(),
                "nfs_read: user buffer differs from the server's file");
      st->attempted += r.calls;
      st->failed += r.failed;
      if (first_virt.empty()) {
        first_virt = bench.virt_call_ns();
      } else {
        st->Check(first_virt == bench.virt_call_ns(),
                  "nfs_read: virtual call latencies differ between passes");
      }
      if (trace) {
        traced.End(r.wall_start, r.wall_end, r.calls, st);
        if (++traced_passes == 2) {  // pass #1 is steady state
          traced.Snapshot();
          wire_bytes = r.wire_bytes;
          WriteSpans(opt, traced.spans.spans(), r.wall_start, st);
        }
        continue;
      }
      host.ns_per_call.push_back(
          PerCall(static_cast<double>(r.wall_end - r.wall_start),
                  static_cast<double>(r.calls)));
      std::vector<uint64_t> call_ns = bench.host_call_ns();
      host.call_p50.push_back(static_cast<double>(Percentile(&call_ns, 0.5)));
      host.call_p99.push_back(
          static_cast<double>(Percentile(&call_ns, 0.99)));
    } while (HostNowNanos() - rep_start < rep_budget &&
             HostNowNanos() - start < budget);
    Instrument(false);
  }

  const double calls = static_cast<double>(calls_per_pass);
  if (!opt.trace) {
    uint64_t virt_sum = 0;
    for (uint64_t v : first_virt) {
      virt_sum += v;
    }
    std::vector<uint64_t> sorted_virt = first_virt;
    AddHostMetrics(host, "passes", "encode start to bytes delivered", st);
    st->report.Add("virt_p50_us",
                   static_cast<double>(Percentile(&sorted_virt, 0.5)) / 1e3,
                   "us", "virt", "over the calls of one pass");
    st->report.Add("virt_p99_us",
                   static_cast<double>(Percentile(&sorted_virt, 0.99)) / 1e3,
                   "us", "virt", "over the calls of one pass");
    st->report.Add("virt_goodput_cps", PerCall(calls, Seconds(virt_sum)),
                   "1/s", "virt", "completed calls per virtual second");
    AddRunTotals(st->failed, st->attempted, calls, "pass", st);
    return;
  }

  AddLayerTimes(traced.spans, traced.attribution, traced.wall_ns,
                static_cast<double>(traced.calls),
                {Layer::kMarshalEncode, Layer::kMarshalDecode,
                 Layer::kAppsNfsServer, Layer::kNetLinkModel},
                st);
  using flexrpc::TraceCounter;
  const flexrpc::TraceSnapshot& c = traced.counters;
  const double hits =
      static_cast<double>(c.counter(TraceCounter::kMarshalSpecHits));
  const double misses =
      static_cast<double>(c.counter(TraceCounter::kMarshalSpecMisses));
  st->report.Add("marshal.allocs_per_call",
                 traced.AllocsPerCall(Layer::kMarshalEncode, calls) +
                     traced.AllocsPerCall(Layer::kMarshalDecode, calls),
                 "count", "count", "operator new in encode + decode");
  st->report.Add("apps.nfs_server_allocs_per_call",
                 traced.AllocsPerCall(Layer::kAppsNfsServer, calls), "count",
                 "count");
  st->report.Add("marshal.wire_bytes_per_call",
                 PerCall(static_cast<double>(wire_bytes), calls), "B",
                 "count", "request + reply datagram");
  st->report.Add("marshal.spec_hit_ratio", PerCall(hits, hits + misses),
                 "ratio", "count", "flexspec marshal.spec.hit / attempts");
  st->report.Add("osim.copies_per_call",
                 PerCall(static_cast<double>(
                             c.counter(TraceCounter::kDataCopies)),
                         calls),
                 "count", "count", "mem.copies (CopyToUser)");
  st->report.Add("osim.copy_bytes_per_call",
                 PerCall(static_cast<double>(
                             c.counter(TraceCounter::kDataCopyBytes)),
                         calls),
                 "B", "count", "mem.copy_bytes");
  st->report.Add("bench.calls", calls, "count", "count", "calls per pass");
  AddTraceOverhead(host, traced, st);
}

// ------------------------------------------------------------------ fleets

void AddFleetCounts(const FleetOutcome& o, uint32_t workers, RunState* st) {
  const double calls = static_cast<double>(o.calls);
  auto per_call = [&](uint64_t v) {
    return PerCall(static_cast<double>(v), calls);
  };
  const uint64_t shed = o.dispatch.shed_accept + o.dispatch.shed_run;
  st->report.Add("net.frames_per_call", per_call(o.wire.sent), "count",
                 "count", "DatagramChannel frames sent, both directions");
  st->report.Add("net.checksum_failures_per_call",
                 per_call(o.wire.checksum_failures), "count", "count");
  st->report.Add("rpc.mux.retransmits_per_call", per_call(o.mux.retransmits),
                 "count", "count");
  st->report.Add("rpc.mux.stale_replies_per_call",
                 per_call(o.mux.stale_replies), "count", "count");
  st->report.Add("rpc.mux.flow_stalls_per_call", per_call(o.mux.flow_stalls),
                 "count", "count");
  st->report.Add("rpc.dispatch.exec_ratio",
                 PerCall(static_cast<double>(o.dispatch.executions),
                         static_cast<double>(o.dispatch.accepted)),
                 "ratio", "count", "executions / accepted");
  st->report.Add("rpc.dispatch.shed_per_call", per_call(shed), "count",
                 "count");
  st->report.Add("rpc.dispatch.max_queue_depth",
                 static_cast<double>(o.dispatch.max_queue_depth), "count",
                 "count");
  st->report.Add("rpc.dispatch.busy_ratio",
                 PerCall(static_cast<double>(o.dispatch.busy_nanos),
                         static_cast<double>(workers) *
                             static_cast<double>(o.span_nanos)),
                 "ratio", "virt", "worker busy time / (workers x span)");
  st->report.Add("rpc.endpoint.dup_hit_ratio",
                 PerCall(static_cast<double>(o.dispatch.dup_replies),
                         static_cast<double>(o.dispatch.accepted)),
                 "ratio", "count", "reply-cache answers / accepted");
  st->report.Add("support.events_per_call", per_call(o.events_run), "count",
                 "count", "EventQueue::RunNext dispatches");
}

void RunFleetWorkload(const Options& opt,
                      flexrpc::FleetConfig (*make_config)(uint64_t, uint32_t),
                      RunState* st) {
  const uint64_t budget = static_cast<uint64_t>(opt.seconds) * 1'000'000'000;
  HostSeries host;
  TracedTotals traced;
  std::vector<FleetOutcome> parts;  // each part's first outcome
  std::vector<uint64_t> pooled;     // virtual latencies of every part
  FleetOutcome traced_first;
  ReplayCosts replay;
  auto check_outcome = [&](const FleetOutcome& o, uint32_t part) {
    st->attempted += o.calls;
    st->failed += o.failed;
    st->Check(o.outstanding == 0, "fleet stalled with calls outstanding");
    st->Check(o.evicted_reexecs == 0, "at-most-once violated");
    st->Check(o.late_arrivals == 0, "load generator fired late");
    st->Check(o.bad_replies == 0, "reply prefix or length wrong");
    st->Check(o.completed + o.failed == o.calls, "calls unaccounted for");
    if (part == parts.size()) {
      parts.push_back(o);
      return;
    }
    const FleetOutcome& first = parts[part];
    st->Check(o.p50_nanos == first.p50_nanos &&
                  o.p99_nanos == first.p99_nanos &&
                  o.p999_nanos == first.p999_nanos &&
                  o.completed == first.completed &&
                  o.window_completed == first.window_completed &&
                  o.mux.retransmits == first.mux.retransmits &&
                  o.dispatch.dup_replies == first.dispatch.dup_replies &&
                  o.events_run == first.events_run,
              "fleet: virtual outcome differs between repetitions");
  };

  // Untraced repetition u runs part u % kFleetParts, and the first
  // kFleetParts always run, whatever the time budget; with --trace 1
  // untraced and traced repetitions alternate. The first traced one feeds
  // the exact counts, the spans file and the layer replays.
  const size_t untraced_needed = opt.trace ? 1 : kFleetParts;
  size_t untraced_reps = 0;
  size_t traced_reps = 0;
  const uint64_t start = HostNowNanos();
  for (uint32_t rep = 0; HostNowNanos() - start < budget ||
                         untraced_reps < untraced_needed ||
                         (opt.trace && traced_reps == 0);
       ++rep) {
    const bool trace = opt.trace && rep % 2 == 1;
    const uint32_t part = static_cast<uint32_t>(
        (trace ? traced_reps : untraced_reps) % kFleetParts);
    uint64_t t = HostNowNanos();
    auto bench = std::make_unique<FleetBench>(make_config(opt.seed, part),
                                              trace ? &traced.spans : nullptr);
    if (!trace) {
      host.setup_s.push_back(Seconds(HostNowNanos() - t));
    }
    Instrument(trace);
    if (trace) {
      traced.Begin();
    }
    const uint64_t t0 = HostNowNanos();
    bench->Run();
    const uint64_t t1 = HostNowNanos();
    FleetOutcome o = bench->Finish();
    check_outcome(o, part);
    if (trace) {
      traced.End(t0, t1, o.calls, st);
      if (traced_reps++ == 0) {
        traced.Snapshot();
        traced_first = o;
        WriteSpans(opt, traced.spans.spans(), t0, st);
        replay = bench->ReplayLayers(o);
      }
      Instrument(false);
      continue;
    }
    if (untraced_reps++ < kFleetParts) {
      pooled.insert(pooled.end(), bench->latencies().begin(),
                    bench->latencies().end());
    }
    host.ns_per_call.push_back(PerCall(static_cast<double>(t1 - t0),
                                       static_cast<double>(o.calls)));
    host.call_p50.push_back(
        static_cast<double>(Percentile(&bench->submit_host_ns(), 0.5)));
    host.call_p99.push_back(
        static_cast<double>(Percentile(&bench->submit_host_ns(), 0.99)));
  }

  if (!opt.trace) {
    uint64_t calls = 0, failed = 0, window_completed = 0, window_nanos = 0;
    for (const FleetOutcome& o : parts) {
      calls += o.calls;
      failed += o.failed;
      window_completed += o.window_completed;
      window_nanos += o.window_nanos;
    }
    const std::string over =
        "due time to completion, " + std::to_string(pooled.size()) +
        " calls of " + std::to_string(parts.size()) + " parts";
    AddHostMetrics(host, "repetitions", "caller blocked in Submit", st);
    st->report.Add("virt_p50_us",
                   static_cast<double>(Percentile(&pooled, 0.5)) / 1e3, "us",
                   "virt", over);
    st->report.Add("virt_p99_us",
                   static_cast<double>(Percentile(&pooled, 0.99)) / 1e3, "us",
                   "virt", over);
    st->report.Add("virt_p999_us",
                   static_cast<double>(Percentile(&pooled, 0.999)) / 1e3,
                   "us", "virt", over);
    st->report.Add("virt_goodput_cps",
                   PerCall(static_cast<double>(window_completed),
                           Seconds(window_nanos)),
                   "1/s", "virt",
                   "calls completed while arrivals were due, per second");
    AddRunTotals(failed, calls, static_cast<double>(parts[0].calls),
                 "repetition", st);
    return;
  }

  AddLayerTimes(traced.spans, traced.attribution, traced.wall_ns,
                static_cast<double>(traced.calls),
                {Layer::kMuxSubmit, Layer::kEventLoop, Layer::kPoke,
                 Layer::kAppHandler, Layer::kAppCompletion,
                 Layer::kGenerator},
                st);
  const FleetOutcome& o = traced_first;
  const double calls = static_cast<double>(o.calls);
  st->report.Add("rpc.mux.submit_allocs_per_call",
                 traced.AllocsPerCall(Layer::kMuxSubmit, calls), "count",
                 "count");
  st->report.Add("support.event_loop_allocs_per_call",
                 traced.AllocsPerCall(Layer::kEventLoop, calls), "count",
                 "count");
  st->report.Add("rpc.poke_allocs_per_call",
                 traced.AllocsPerCall(Layer::kPoke, calls), "count", "count");
  st->report.Add("app.handler_allocs_per_call",
                 traced.AllocsPerCall(Layer::kAppHandler, calls), "count",
                 "count");
  st->report.Add("app.completion_allocs_per_call",
                 traced.AllocsPerCall(Layer::kAppCompletion, calls), "count",
                 "count");
  st->report.Add("net.wire_bytes_per_call",
                 PerCall(static_cast<double>(traced.counters.counter(
                             flexrpc::TraceCounter::kNetBytesOnWire)),
                         calls),
                 "B", "count", "net.bytes_on_wire, headers included");
  AddFleetCounts(o, make_config(opt.seed, 0).dispatch.workers, st);

  st->report.Add("net.datagram.send_ns", replay.send_ns, "ns", "host",
                 "replay, per frame");
  st->report.Add("net.datagram.receive_ns", replay.receive_ns, "ns", "host",
                 "replay, per Receive");
  st->report.Add("net.datagram.allocs_per_frame", replay.allocs_per_frame,
                 "count", "count", "replay, Send + Receive");
  st->report.Add("net.checksum_ns_per_kib", replay.checksum_ns_per_kib, "ns",
                 "host", "replay, DatagramChecksum");
  st->report.Add("net.fault.next_ns", replay.fault_next_ns, "ns", "host",
                 "replay, FaultPlan::Next");
  st->report.Add("support.event_queue.schedule_ns", replay.schedule_ns, "ns",
                 "host", "replay");
  st->report.Add("support.event_queue.cancel_ns", replay.cancel_ns, "ns",
                 "host", "replay");
  st->report.Add("support.event_queue.run_ns", replay.run_ns, "ns", "host",
                 "replay, empty callback");
  st->report.Add("rpc.endpoint.handle_ns", replay.endpoint_handle_ns, "ns",
                 "host", "replay, copy-only handler");

  // How much of the library's own host time (event-loop self + submit +
  // poke) the replayed per-operation costs explain at the run's counts.
  // The arrivals were scheduled during set-up, outside the measured region.
  const double explained =
      replay.send_ns * static_cast<double>(o.wire.sent) +
      replay.receive_ns *
          static_cast<double>(o.wire.delivered + o.wire.checksum_failures) +
      replay.schedule_ns * static_cast<double>(o.events_scheduled - o.calls) +
      replay.cancel_ns * static_cast<double>(o.events_cancelled) +
      replay.run_ns * static_cast<double>(o.events_run) +
      replay.endpoint_handle_ns * static_cast<double>(o.executions);
  const uint64_t library_ns =
      traced.attribution.self_ns[static_cast<size_t>(Layer::kEventLoop)] +
      traced.attribution.self_ns[static_cast<size_t>(Layer::kMuxSubmit)] +
      traced.attribution.self_ns[static_cast<size_t>(Layer::kPoke)];
  const double library_per_rep =
      PerCall(static_cast<double>(library_ns),
              static_cast<double>(traced.calls)) *
      calls;
  st->report.Add("bench.replay_coverage_pct",
                 100.0 * PerCall(explained, library_per_rep), "%", "host",
                 "library time explained by replayed op costs x op counts");
  st->report.Add("support.event_queue.scheduled_per_call",
                 PerCall(static_cast<double>(o.events_scheduled), calls),
                 "count", "count");
  st->report.Add("support.event_queue.cancelled_per_call",
                 PerCall(static_cast<double>(o.events_cancelled), calls),
                 "count", "count");
  st->report.Add("bench.calls", calls, "count", "count",
                 "calls per repetition");
  AddTraceOverhead(host, traced, st);
}

// ------------------------------------------------------------------- main

bool ParseOptions(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      long s = std::strtol(value.c_str(), &end, 10);
      have_seconds = end != value.c_str() && *end == '\0' && s >= 1 &&
                     s <= 3600;
      opt->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt->trace = value == "1";
    } else if (flag == "--spans-out") {
      opt->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

int Main(int argc, char** argv) {
  // Fixed glibc thresholds: the default dynamic mmap threshold moves with
  // the allocation history, which makes peak RSS jump between seeds.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  mallopt(M_TRIM_THRESHOLD, 256 * 1024);
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <nfs_read|fleet_steady|"
                 "fleet_overload_lossy> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  RunState st;
  if (opt.workload == "nfs_read") {
    std::printf("%s\n", Provenance(opt.workload, opt.seed, opt.seconds,
                                   opt.trace).c_str());
    RunNfsRead(opt, &st);
  } else if (opt.workload == "fleet_steady" ||
             opt.workload == "fleet_overload_lossy") {
    std::printf("%s\n", Provenance(opt.workload, opt.seed, opt.seconds,
                                   opt.trace).c_str());
    RunFleetWorkload(opt,
                     opt.workload == "fleet_steady" ? &FleetSteadyConfig
                                                    : &FleetOverloadLossyConfig,
                     &st);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }

  // Layers a workload never enters report 0 (counts, shares).
  std::vector<std::string> keep;
  for (const MetricSpec& spec : opt.trace ? std::vector<MetricSpec>(
                                                std::begin(kPerLayer),
                                                std::end(kPerLayer))
                                          : std::vector<MetricSpec>(
                                                std::begin(kEndToEnd),
                                                std::end(kEndToEnd))) {
    const Metric* m = st.report.Find(spec.name);
    if (m == nullptr) {
      st.report.Add(spec.name, 0, spec.unit, spec.clock,
                    "(layer not on this workload's path)");
    } else if (m->unit != spec.unit) {
      std::fprintf(stderr, "perfbench: %s measured in %s, declared %s\n",
                   spec.name, m->unit.c_str(), spec.unit);
      return 2;
    }
    keep.push_back(spec.name);
  }
  st.report.PrintLines();
  for (const std::string& f : st.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", st.report.Json(st.correct, st.attempted, st.failed,
                                     keep).c_str());
  return st.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
