#include "src/analysis/flexwatch.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>

#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {

// Gauge/counter names the fleet registers (src/sim/fleet.cc); the shed
// series is named after its flextrace counter. The analysis degrades
// gracefully when a series is absent — a timeline from a different
// harness still gets ribbons and sketch-derived onset.
constexpr char kQueueDepthGauge[] = "rpc.dispatch.queue_depth";
constexpr char kCompletedCounter[] = "rpc.mux.completed";

const Timeline::Series* FindSeries(const std::vector<Timeline::Series>& all,
                                   std::string_view name) {
  for (const Timeline::Series& s : all) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

uint64_t SampleAt(const Timeline::Series* series, uint64_t window) {
  if (series == nullptr || window >= series->samples.size()) {
    return 0;
  }
  return series->samples[window];
}

// Queue depth per window: the dispatch gauge when the harness registered
// one, else the per-window max of kQueueDepth sketch observations.
std::vector<uint64_t> DepthPerWindow(const Timeline& timeline) {
  std::vector<uint64_t> depth(timeline.ticks, 0);
  const Timeline::Series* gauge =
      FindSeries(timeline.gauges, kQueueDepthGauge);
  if (gauge != nullptr) {
    for (uint64_t w = 0; w < timeline.ticks; ++w) {
      depth[w] = SampleAt(gauge, w);
    }
    return depth;
  }
  for (const auto& [key, sketch] : timeline.sketches) {
    if (key.series == static_cast<uint16_t>(WatchSeries::kQueueDepth) &&
        key.window < depth.size()) {
      depth[key.window] = std::max(depth[key.window], sketch.max());
    }
  }
  return depth;
}

// First window opening a sustained climb: depth positive, non-decreasing
// across the next two windows, strictly higher by the end. Integer rule —
// no smoothing, no floats — so two runs of the same timeline agree.
int64_t DetectOnset(const std::vector<uint64_t>& depth) {
  if (depth.size() < 3) {
    return -1;
  }
  for (uint64_t w = 0; w + 2 < depth.size(); ++w) {
    if (depth[w] > 0 && depth[w + 1] >= depth[w] &&
        depth[w + 2] >= depth[w + 1] && depth[w + 2] > depth[w]) {
      return static_cast<int64_t>(w);
    }
  }
  return -1;
}

std::vector<WatchDimTotal> SortedTotals(
    const std::map<uint32_t, QuantileSketch>& by_dim) {
  std::vector<WatchDimTotal> out;
  out.reserve(by_dim.size());
  for (const auto& [dim, sketch] : by_dim) {
    WatchDimTotal t;
    t.dim = dim;
    t.count = sketch.count();
    t.sum_nanos = sketch.sum();
    t.p99_nanos = sketch.Quantile(0.99);
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(),
            [](const WatchDimTotal& a, const WatchDimTotal& b) {
              if (a.sum_nanos != b.sum_nanos) {
                return a.sum_nanos > b.sum_nanos;
              }
              return a.dim < b.dim;
            });
  return out;
}

// "1234567" ns -> "1234.567" (microseconds, three decimals, no floats).
std::string Micros(uint64_t nanos) {
  return StrFormat("%llu.%03llu",
                   static_cast<unsigned long long>(nanos / 1000),
                   static_cast<unsigned long long>(nanos % 1000));
}

void AppendDimTable(std::string* out, const char* title, const char* dim_label,
                    const std::vector<WatchDimTotal>& totals,
                    size_t max_rows) {
  if (totals.empty()) {
    return;
  }
  *out += StrFormat("%s (by total latency)\n", title);
  *out += StrFormat("  %-8s %8s %14s %12s\n", dim_label, "count", "sum_us",
                    "p99_us");
  size_t rows = std::min(totals.size(), max_rows);
  for (size_t i = 0; i < rows; ++i) {
    const WatchDimTotal& t = totals[i];
    *out += StrFormat("  %-8u %8llu %14s %12s\n", t.dim,
                      static_cast<unsigned long long>(t.count),
                      Micros(t.sum_nanos).c_str(),
                      Micros(t.p99_nanos).c_str());
  }
  if (totals.size() > rows) {
    *out += StrFormat("  ... %zu more\n", totals.size() - rows);
  }
}

uint64_t CounterTotal(const Timeline::Series& series) {
  uint64_t total = 0;
  for (uint64_t v : series.samples) {
    total += v;
  }
  return total;
}

}  // namespace

WatchAnalysis AnalyzeTimeline(const Timeline& timeline) {
  WatchAnalysis analysis;
  analysis.tick_nanos = timeline.tick_nanos;
  analysis.ticks = timeline.ticks;

  // Per-window call-latency sketches merged across connections, plus the
  // whole-run per-dimension accumulators for attribution.
  std::map<uint64_t, QuantileSketch> latency_by_window;
  std::map<uint32_t, QuantileSketch> conns;
  std::map<uint32_t, QuantileSketch> workers;
  std::map<uint32_t, QuantileSketch> replicas;
  for (const auto& [key, sketch] : timeline.sketches) {
    switch (static_cast<WatchSeries>(key.series)) {
      case WatchSeries::kCallLatency:
        latency_by_window[key.window].Merge(sketch);
        conns[key.dim].Merge(sketch);
        break;
      case WatchSeries::kWorkerExec:
        workers[key.dim].Merge(sketch);
        break;
      case WatchSeries::kReplicaLatency:
        replicas[key.dim].Merge(sketch);
        break;
      case WatchSeries::kQueueDepth:
        break;  // consumed by DepthPerWindow
      default:
        break;  // unknown series from a newer writer: ignore
    }
  }

  std::vector<uint64_t> depth = DepthPerWindow(timeline);
  const Timeline::Series* shed = FindSeries(
      timeline.counters, TraceCounterName(TraceCounter::kRpcDispatchShed));
  const Timeline::Series* completed =
      FindSeries(timeline.counters, kCompletedCounter);

  analysis.windows.reserve(timeline.ticks);
  for (uint64_t w = 0; w < timeline.ticks; ++w) {
    WatchWindow win;
    win.window = w;
    win.start_nanos = timeline.start_nanos + w * timeline.tick_nanos;
    auto it = latency_by_window.find(w);
    if (it != latency_by_window.end() && !it->second.empty()) {
      win.calls = it->second.count();
      win.p50_nanos = it->second.Quantile(0.50);
      win.p99_nanos = it->second.Quantile(0.99);
      win.max_nanos = it->second.max();
    }
    win.queue_depth = w < depth.size() ? depth[w] : 0;
    win.shed = SampleAt(shed, w);
    win.completed = SampleAt(completed, w);
    analysis.windows.push_back(win);
  }

  analysis.onset_window = DetectOnset(depth);
  if (analysis.onset_window >= 0) {
    analysis.onset_nanos =
        timeline.start_nanos +
        static_cast<uint64_t>(analysis.onset_window) * timeline.tick_nanos;
  }

  analysis.connections = SortedTotals(conns);
  analysis.workers = SortedTotals(workers);
  analysis.replicas = SortedTotals(replicas);
  return analysis;
}

std::string RenderWatchReport(const WatchAnalysis& analysis,
                              size_t max_window_rows) {
  std::string out;
  out += StrFormat("flexwatch: %llu windows x %s us tick\n",
                   static_cast<unsigned long long>(analysis.ticks),
                   Micros(analysis.tick_nanos).c_str());
  if (analysis.windows.empty()) {
    out += "  (no windows recorded)\n";
    return out;
  }
  out += StrFormat("  %6s %10s %8s %12s %12s %7s %7s %7s\n", "window",
                   "t_us", "calls", "p50_us", "p99_us", "queue", "shed",
                   "done");
  size_t rows = std::min(analysis.windows.size(), max_window_rows);
  for (size_t i = 0; i < rows; ++i) {
    const WatchWindow& w = analysis.windows[i];
    std::string marker =
        analysis.onset_window == static_cast<int64_t>(w.window) ? "  <- onset"
                                                                : "";
    out += StrFormat("  %6llu %10s %8llu %12s %12s %7llu %7llu %7llu%s\n",
                     static_cast<unsigned long long>(w.window),
                     Micros(w.start_nanos).c_str(),
                     static_cast<unsigned long long>(w.calls),
                     Micros(w.p50_nanos).c_str(), Micros(w.p99_nanos).c_str(),
                     static_cast<unsigned long long>(w.queue_depth),
                     static_cast<unsigned long long>(w.shed),
                     static_cast<unsigned long long>(w.completed),
                     marker.c_str());
  }
  if (analysis.windows.size() > rows) {
    out += StrFormat("  ... %zu more windows\n",
                     analysis.windows.size() - rows);
  }
  if (analysis.onset_window >= 0) {
    out += StrFormat(
        "saturation onset: window %lld (t=%s us, sustained queue growth)\n",
        static_cast<long long>(analysis.onset_window),
        Micros(analysis.onset_nanos).c_str());
  } else {
    out += "saturation onset: none (queue never grew for 3 windows)\n";
  }
  AppendDimTable(&out, "connections", "conn", analysis.connections, 8);
  AppendDimTable(&out, "workers", "worker", analysis.workers, 8);
  AppendDimTable(&out, "replicas", "replica", analysis.replicas, 8);
  return out;
}

std::string DiffTimelines(const Timeline& a, const Timeline& b,
                          size_t max_window_rows) {
  std::string out;
  out += StrFormat(
      "timeline diff: a=%llu windows x %s us, b=%llu windows x %s us\n",
      static_cast<unsigned long long>(a.ticks), Micros(a.tick_nanos).c_str(),
      static_cast<unsigned long long>(b.ticks), Micros(b.tick_nanos).c_str());
  if (a.tick_nanos != b.tick_nanos) {
    out += "  warning: tick sizes differ; window indices are not aligned\n";
  }

  WatchAnalysis wa = AnalyzeTimeline(a);
  WatchAnalysis wb = AnalyzeTimeline(b);
  auto onset_str = [](int64_t w) {
    return w >= 0 ? StrFormat("window %lld", static_cast<long long>(w))
                  : std::string("none");
  };
  out += StrFormat("  onset: a=%s b=%s%s\n", onset_str(wa.onset_window).c_str(),
                   onset_str(wb.onset_window).c_str(),
                   wa.onset_window == wb.onset_window ? " (agree)"
                                                      : " (DIFFER)");

  // Counter totals side by side: every name present in either timeline.
  std::map<std::string, std::pair<uint64_t, uint64_t>> totals;
  for (const Timeline::Series& s : a.counters) {
    totals[s.name].first = CounterTotal(s);
  }
  for (const Timeline::Series& s : b.counters) {
    totals[s.name].second = CounterTotal(s);
  }
  if (!totals.empty()) {
    out += StrFormat("  %-24s %12s %12s %12s\n", "counter", "a", "b", "delta");
    for (const auto& [name, ab] : totals) {
      int64_t delta = static_cast<int64_t>(ab.second) -
                      static_cast<int64_t>(ab.first);
      out += StrFormat("  %-24s %12llu %12llu %+12lld\n", name.c_str(),
                       static_cast<unsigned long long>(ab.first),
                       static_cast<unsigned long long>(ab.second),
                       static_cast<long long>(delta));
    }
  }

  // Per-window p99 ribbon deltas over the shared prefix.
  uint64_t shared = std::min(wa.ticks, wb.ticks);
  uint64_t rows = std::min<uint64_t>(shared, max_window_rows);
  if (rows > 0) {
    out += StrFormat("  %6s %12s %12s %14s\n", "window", "a_p99_us",
                     "b_p99_us", "delta_us");
    for (uint64_t w = 0; w < rows; ++w) {
      const WatchWindow& x = wa.windows[w];
      const WatchWindow& y = wb.windows[w];
      int64_t delta = static_cast<int64_t>(y.p99_nanos) -
                      static_cast<int64_t>(x.p99_nanos);
      char sign = delta < 0 ? '-' : '+';
      uint64_t mag = delta < 0 ? static_cast<uint64_t>(-delta)
                               : static_cast<uint64_t>(delta);
      out += StrFormat("  %6llu %12s %12s %c%13s\n",
                       static_cast<unsigned long long>(w),
                       Micros(x.p99_nanos).c_str(), Micros(y.p99_nanos).c_str(),
                       sign, Micros(mag).c_str());
    }
    if (shared > rows) {
      out += StrFormat("  ... %llu more shared windows\n",
                       static_cast<unsigned long long>(shared - rows));
    }
  }
  if (wa.ticks != wb.ticks) {
    out += StrFormat("  window count differs: a=%llu b=%llu\n",
                     static_cast<unsigned long long>(wa.ticks),
                     static_cast<unsigned long long>(wb.ticks));
  }
  return out;
}

}  // namespace flexrpc
