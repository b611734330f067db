// flextrace — the per-call observability layer.
//
// The paper's evaluation (§4) is entirely about *counting work*: copies,
// allocations, name-table traffic, register save/clear/restore, bytes on
// the wire. flextrace makes those counts first-class runtime data so every
// benchmark (and any embedding application) can emit them as a
// machine-readable artifact instead of a hand-transcribed table.
//
// Design constraints, in order:
//   1. Zero overhead when disabled. Tracing is off by default; every trace
//      point is one relaxed atomic bool load and a predictable branch.
//      No strings, no hashing, no locks anywhere near a hot path: the
//      counter catalog is a closed enum indexing a flat array.
//   2. Exact and deterministic when enabled. Counters count operations the
//      simulation performs, so two runs of the same fixed-iteration
//      workload produce identical values — which is what lets CI gate the
//      whole catalog with equality-tight budgets (tools/flextrace). The
//      registry holds no host time at all.
//   3. Thread-safe. Counters are relaxed atomics, so the TSan suite
//      (tools/ci.sh, FLEXRPC_SANITIZE=thread) stays clean even when
//      multiple tasks trace concurrently.
//
// Vocabulary:
//   * TraceCounter — a monotonic event/byte count, declared once in
//     trace_counters.def.
//   * TraceSession — enables tracing, snapshots a baseline, and reports
//     the delta as a structured object or JSON.
// flextrace has no histograms: value distributions are flexwatch's
// QuantileSketch (timeline.h).

#ifndef FLEXRPC_SRC_SUPPORT_TRACE_H_
#define FLEXRPC_SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace flexrpc {

// The closed counter catalog, declared once in trace_counters.def.
enum class TraceCounter : uint16_t {
#define FLEXRPC_TRACE_COUNTER(id, name) id,
#include "src/support/trace_counters.def"
#undef FLEXRPC_TRACE_COUNTER
  kCount,
};

inline constexpr size_t kTraceCounterCount =
    static_cast<size_t>(TraceCounter::kCount);

// The counter's stable dot-separated name, for serialization and budgets.
std::string_view TraceCounterName(TraceCounter c);

namespace trace_internal {

extern std::atomic<bool> g_enabled;
extern std::atomic<uint64_t> g_counters[kTraceCounterCount];

}  // namespace trace_internal

// True while some TraceSession (or an explicit SetTraceEnabled) has
// tracing on. The relaxed load compiles to a plain byte load.
inline bool TraceEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

// Manual switch. TraceSession is the usual owner; benches use this to
// measure the disabled path while a session is active.
void SetTraceEnabled(bool enabled);

// Counts `n` events on `c`. The whole body folds to a test-and-skip when
// tracing is disabled — safe on any hot path.
inline void TraceAdd(TraceCounter c, uint64_t n = 1) {
  if (TraceEnabled()) {
    trace_internal::g_counters[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
}

// Zeroes every counter (not the enabled flag).
void ResetTrace();

// Point-in-time copy of the whole registry.
struct TraceSnapshot {
  uint64_t counters[kTraceCounterCount] = {};

  uint64_t counter(TraceCounter c) const {
    return counters[static_cast<size_t>(c)];
  }
};

TraceSnapshot CaptureTrace();

// b - a, fieldwise. Meaningful when `a` was captured before `b` with no
// intervening ResetTrace.
TraceSnapshot TraceDelta(const TraceSnapshot& a, const TraceSnapshot& b);

// Serializes a snapshot as one JSON object:
//   {"counters": {"<counter name>": <count>, ...}}
// Every counter in the catalog appears, including zeros, so downstream
// consumers (budget gate, diffs) never see a missing key.
std::string TraceSnapshotToJson(const TraceSnapshot& snapshot);

// Same serialization, written as a nested value into an existing writer
// (the caller has already positioned it, e.g. after a Key()).
class JsonWriter;
void WriteTraceSnapshot(JsonWriter& w, const TraceSnapshot& snapshot);

// Scoped measurement window: enables tracing on construction (remembering
// the previous state), captures a baseline, and reports deltas on demand.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Work counters accumulated since construction (or since the enclosing
  // baseline was re-armed with Rebase).
  TraceSnapshot Report() const;
  std::string ReportJson() const { return TraceSnapshotToJson(Report()); }

  // Moves the baseline to "now" — everything before is discarded.
  void Rebase();

 private:
  TraceSnapshot baseline_;
  bool was_enabled_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_TRACE_H_
