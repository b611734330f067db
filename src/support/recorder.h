// flexrec — the per-call RPC flight recorder.
//
// flextrace (trace.h) answers "how much work did the run perform" with
// aggregate counters; this layer answers "why did THIS call take the time
// it did" with a causal, per-xid event timeline. Every interesting moment
// on the call path — submission, marshal begin/end, each physical frame
// entering and leaving the wire, every fault decision, server execution,
// retransmits and RTO fires, reply matching, completion — is recorded as
// one fixed-size typed event into a fixed-capacity lock-free ring buffer.
//
// Design constraints, in order (mirroring flextrace):
//   1. Zero overhead when disabled. Recording is off by default; every
//      record point is one relaxed atomic bool load and a predictable
//      branch. No strings, no allocation, no locks on any hot path: an
//      event is a POD slot write at a fetch_add'ed ring index.
//   2. Deterministic recordings. Events are stamped with both the
//      simulation's virtual clock and the host's wall clock, but the
//      serialized recording carries only the virtual stamps by default —
//      so two runs of the same seeded workload produce *byte-identical*
//      recordings, which is what lets the fault soak tests gate on them.
//      (Pass include_wall_nanos=true for live profiling; such recordings
//      are not run-to-run comparable.)
//   3. Bounded memory. The ring overwrites the oldest events at capacity
//      and reports how many were dropped; consumers must stay well-formed
//      under truncation (the Chrome exporter emits an explicit truncation
//      marker instead of a malformed trace).
//
// Consumers:
//   * ExportChromeTrace — Chrome trace_event-format JSON, loadable in
//     Perfetto / chrome://tracing: one track per endpoint, spans from
//     begin/end event pairs, instant events for faults and retransmits.
//   * tools/flextrace/flexrec_report (via src/analysis/flexrec.h) — a
//     deterministic per-call latency breakdown, retransmit cause
//     classification, and window-occupancy timeline.

#ifndef FLEXRPC_SRC_SUPPORT_RECORDER_H_
#define FLEXRPC_SRC_SUPPORT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"
#include "src/support/timing.h"

namespace flexrpc {

// The closed event catalog, declared once in rec_events.def.
enum class RecEvent : uint8_t {
#define FLEXRPC_REC_EVENT(id, name) id,
#include "src/support/rec_events.def"
#undef FLEXRPC_REC_EVENT
  kCount,
};

// Which track of the timeline an event belongs to, declared once in
// rec_endpoints.def.
enum class RecEndpoint : uint8_t {
#define FLEXRPC_REC_ENDPOINT(id, name) id,
#include "src/support/rec_endpoints.def"
#undef FLEXRPC_REC_ENDPOINT
  kCount,
};

inline constexpr size_t kRecEventCount = static_cast<size_t>(RecEvent::kCount);
inline constexpr size_t kRecEndpointCount =
    static_cast<size_t>(RecEndpoint::kCount);
inline constexpr size_t kDefaultRecorderCapacity = 1u << 16;

// Stable names for serialization ("call_submit", "wire_tx", ...).
std::string_view RecEventName(RecEvent e);
std::string_view RecEndpointName(RecEndpoint e);

// One ring slot. `a` and `b` are event-specific payloads (see the catalog
// comments); both are zero when an event has nothing to say.
struct RecordedEvent {
  uint64_t virtual_nanos = 0;  // simulation time (deterministic)
  uint64_t wall_nanos = 0;     // host steady_clock (not serialized by
                               // default — host-dependent)
  uint64_t a = 0;
  uint64_t b = 0;
  uint32_t xid = 0;      // 0 when the event is not attributable to a call
  uint32_t replica = 0;  // replica tag from the enclosing
                         // RecorderReplicaScope; 0 = unreplicated (the
                         // single-transport paths never set one)
  uint32_t conn = 0;     // connection tag from the enclosing
                         // RecorderConnScope; 0 = unmultiplexed. Call
                         // identity under the mux is the (conn, xid) pair —
                         // xids are only unique per connection.
  RecEvent type = RecEvent::kCallSubmit;
  RecEndpoint endpoint = RecEndpoint::kClient;
};

namespace rec_internal {

extern std::atomic<bool> g_enabled;

void RecordSlow(RecEvent type, RecEndpoint endpoint, uint32_t xid,
                uint64_t virtual_nanos, uint64_t a, uint64_t b);

}  // namespace rec_internal

// True while a RecorderSession is active. The relaxed load compiles to a
// plain byte load, so a disabled record point costs one test-and-skip.
inline bool RecorderEnabled() {
  return rec_internal::g_enabled.load(std::memory_order_relaxed);
}

// Records one event. Callers pass the virtual timestamp explicitly —
// scheduled-delivery transports record spans whose endpoints lie in the
// future of the current clock (e.g. a modeled server execution window).
inline void RecordEvent(RecEvent type, RecEndpoint endpoint, uint32_t xid,
                        uint64_t virtual_nanos, uint64_t a = 0,
                        uint64_t b = 0) {
  if (RecorderEnabled()) {
    rec_internal::RecordSlow(type, endpoint, xid, virtual_nanos, a, b);
  }
}

// Thread-local per-call context for layers that have no call identity of
// their own (the marshal engine interprets plans without knowing which
// xid, or even which clock, it is working for). The transport-facing code
// (src/apps/nfs.cc) opens a scope around each stub invocation; engine
// record points then attribute to the scope's xid at the scope clock's
// current time. Scopes nest (the previous scope is restored on exit) and
// are per-thread, so concurrent un-scoped marshaling records nothing.
class RecorderCallScope {
 public:
  RecorderCallScope(uint32_t xid, const VirtualClock* clock);
  ~RecorderCallScope();

  RecorderCallScope(const RecorderCallScope&) = delete;
  RecorderCallScope& operator=(const RecorderCallScope&) = delete;

  // Current thread's scope, if any.
  static bool Active();
  static uint32_t CurrentXid();
  static uint64_t CurrentVirtualNanos();

 private:
  uint32_t prev_xid_;
  const VirtualClock* prev_clock_;
  bool prev_active_;
};

// Thread-local replica context. A replicated binding runs one call engine
// per replica over the same record points; the binder opens this scope
// around everything it hands a replica (Submit, Cancel), and the engine's
// scheduled events reopen the scope they were scheduled under, so
// channel- and server-side events inherit the replica identity without any
// record-point signature change. Events recorded outside any scope carry
// replica 0, which serializes and exports exactly as before — unreplicated
// recordings are byte-identical to pre-replica ones. Scopes nest; tags
// are 1-based (ReplicaGroup assigns index + 1).
class RecorderReplicaScope {
 public:
  explicit RecorderReplicaScope(uint32_t replica_tag);
  ~RecorderReplicaScope();

  RecorderReplicaScope(const RecorderReplicaScope&) = delete;
  RecorderReplicaScope& operator=(const RecorderReplicaScope&) = delete;

  // Current thread's replica tag (0 when no scope is open).
  static uint32_t Current();

 private:
  uint32_t prev_tag_;
};

// Thread-local connection context, the multiplexed sibling of
// RecorderReplicaScope. The mux and the server dispatch open this scope
// around every per-connection operation (submission, timer events, reply
// handling, worker assignment), and the conn-tagging DatagramChannel opens
// it around wire events, so the whole record-point surface inherits the
// (conn, xid) call identity without signature changes. Events recorded
// outside any scope carry conn 0 and serialize exactly as before — all
// single-connection recordings are byte-identical to pre-mux ones. Scopes
// nest; tags are 1-based (ConnectionMux assigns them from OpenConnection).
class RecorderConnScope {
 public:
  explicit RecorderConnScope(uint32_t conn_tag);
  ~RecorderConnScope();

  RecorderConnScope(const RecorderConnScope&) = delete;
  RecorderConnScope& operator=(const RecorderConnScope&) = delete;

  // Current thread's connection tag (0 when no scope is open).
  static uint32_t Current();

 private:
  uint32_t prev_tag_;
};

// A drained ring: events oldest-first, plus how many were overwritten.
struct Recording {
  size_t capacity = 0;
  uint64_t total_events = 0;    // everything ever recorded this session
  uint64_t dropped_events = 0;  // total_events - events.size()
  std::vector<RecordedEvent> events;
};

// Scoped recording window: allocates the ring, enables recording, and
// restores the previous enabled state on destruction. One session at a
// time (nesting aborts); Stop() may be called early to drain the ring
// before the scope ends.
class RecorderSession {
 public:
  explicit RecorderSession(size_t capacity = kDefaultRecorderCapacity);
  ~RecorderSession();

  RecorderSession(const RecorderSession&) = delete;
  RecorderSession& operator=(const RecorderSession&) = delete;

  // Disables recording and drains the ring oldest-first. Idempotent — the
  // second call returns an empty recording.
  Recording Stop();

 private:
  bool stopped_ = false;
};

// Serializes a recording as one JSON document:
//   {"schema": "flexrpc-rec-v1", "capacity": N, "total_events": N,
//    "dropped_events": N, "events": [{"type": "wire_tx", "ep": "wire.a2b",
//    "xid": 7, "vt": 1234, "a": 0, "b": 0}, ...]}
// With include_wall_nanos=false (the default) the output is a pure
// function of the simulation, i.e. byte-identical across runs of the same
// seeded workload.
std::string RecordingToJson(const Recording& recording,
                            bool include_wall_nanos = false);

// Parses a RecordingToJson document back (the flexrec_report CLI reads
// recordings from disk). Unknown event/endpoint names are an error — the
// catalog is closed.
Result<Recording> ParseRecording(std::string_view json);

// Exports a recording as Chrome trace_event-format JSON (the "JSON Array
// with metadata" flavor: {"traceEvents": [...], ...}), loadable in
// Perfetto and chrome://tracing. One thread track per RecEndpoint; span
// (B/E) pairs for marshal and server-execution windows; async (b/e) spans
// for call lifetimes keyed by xid; instant events for faults, wire
// activity, retransmits, and reply dispositions. Timestamps are virtual
// microseconds. Truncated recordings stay well-formed: unmatched end
// events are suppressed, unmatched begins are closed at the final
// timestamp, and a "truncated" instant event reports the dropped count.
std::string ExportChromeTrace(const Recording& recording);

// Same export, plus Perfetto counter tracks (ph:"C") when `timeline` is
// non-null: every flexwatch counter and gauge series (queue depth, cwnd,
// in-flight, shed rate, throughput deltas) becomes a value-over-time
// track sampled at its window-close timestamps. Passing nullptr is
// byte-identical to the single-argument overload.
struct Timeline;
std::string ExportChromeTrace(const Recording& recording,
                              const Timeline* timeline);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_RECORDER_H_
