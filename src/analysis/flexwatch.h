// flexwatch analysis — saturation-onset detection and per-window latency
// ribbons over flexwatch timelines.
//
// A Timeline (src/support/timeline.h) is raw per-window material: counter
// deltas, gauge samples, and dimensioned quantile sketches. This layer
// turns it into answers: how p50/p99 evolved window by window (the
// "ribbon" the report renders), *when* queueing began (the saturation
// onset window — the first window opening a sustained queue-depth climb),
// and which connections / workers / replicas the latency concentrates on.
// flexrec answers the same saturation question per call (queued-phase
// attribution); the two are cross-checked in bench_fleet_nfs.
//
// Everything here is integer arithmetic over an already-deterministic
// artifact, so the analysis and both renderers are deterministic too.

#ifndef FLEXRPC_SRC_ANALYSIS_FLEXWATCH_H_
#define FLEXRPC_SRC_ANALYSIS_FLEXWATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/timeline.h"

namespace flexrpc {

// One window of the ribbon: call-latency quantiles merged across every
// connection, alongside that window's queue/shed/throughput readings.
struct WatchWindow {
  uint64_t window = 0;       // index into the timeline
  uint64_t start_nanos = 0;  // window start on the virtual clock
  uint64_t calls = 0;        // call-latency observations in the window
  uint64_t p50_nanos = 0;
  uint64_t p99_nanos = 0;
  uint64_t max_nanos = 0;
  uint64_t queue_depth = 0;  // rpc.dispatch.queue_depth gauge at close
  uint64_t shed = 0;         // rpc.dispatch.shed delta in the window
  uint64_t completed = 0;    // rpc.mux.completed delta in the window
};

// Per-dimension latency totals for one series, used for attribution
// ("which connection / worker / replica is the time going to").
struct WatchDimTotal {
  uint32_t dim = 0;
  uint64_t count = 0;
  uint64_t sum_nanos = 0;
  uint64_t p99_nanos = 0;  // over the dimension's whole run
};

struct WatchAnalysis {
  uint64_t tick_nanos = 0;
  uint64_t ticks = 0;
  std::vector<WatchWindow> windows;  // dense, one per recorded window

  // The saturation onset: the first window starting a sustained
  // queue-depth climb — depth positive, non-decreasing across the next
  // two windows, and strictly higher by the end (an integer rule, so the
  // detection is reproducible). -1 when the run never saturates.
  int64_t onset_window = -1;
  uint64_t onset_nanos = 0;  // that window's start time

  // Attribution, descending by sum_nanos (ties by dim ascending).
  std::vector<WatchDimTotal> connections;  // call_latency_nanos by conn
  std::vector<WatchDimTotal> workers;      // worker_exec_nanos by worker
  std::vector<WatchDimTotal> replicas;     // replica_latency_nanos by tag
};

// Analyzes a timeline. Deterministic: same timeline, same analysis.
WatchAnalysis AnalyzeTimeline(const Timeline& timeline);

// Fixed-width text report: the per-window ribbon, the detected onset, and
// the per-dimension attribution tables. Deterministic.
std::string RenderWatchReport(const WatchAnalysis& analysis,
                              size_t max_window_rows = 64);

// Run-over-run comparison: tick/shape drift, per-window p99 ribbon deltas,
// and counter-total deltas between two timelines (e.g. two seeds, or the
// same seed before/after a change). Deterministic.
std::string DiffTimelines(const Timeline& a, const Timeline& b,
                          size_t max_window_rows = 64);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_ANALYSIS_FLEXWATCH_H_
