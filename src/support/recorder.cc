#include "src/support/recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/support/json.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"

namespace flexrpc {
namespace rec_internal {

std::atomic<bool> g_enabled{false};

namespace {

// The ring itself: slots are sized once per session (before recording is
// enabled) and written at a fetch_add'ed index, so concurrent recorders
// never contend on anything but the index counter.
std::vector<RecordedEvent> g_slots;
std::atomic<uint64_t> g_next{0};

thread_local uint32_t tls_replica_tag = 0;
thread_local uint32_t tls_conn_tag = 0;

uint64_t WallNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void RecordSlow(RecEvent type, RecEndpoint endpoint, uint32_t xid,
                uint64_t virtual_nanos, uint64_t a, uint64_t b) {
  uint64_t index = g_next.fetch_add(1, std::memory_order_relaxed);
  RecordedEvent& slot = g_slots[index % g_slots.size()];
  slot.virtual_nanos = virtual_nanos;
  slot.wall_nanos = WallNanos();
  slot.a = a;
  slot.b = b;
  slot.xid = xid;
  slot.replica = tls_replica_tag;
  slot.conn = tls_conn_tag;
  slot.type = type;
  slot.endpoint = endpoint;
}

}  // namespace rec_internal

namespace {

// Indexed by RecEvent and RecEndpoint, generated from the same lists as
// the enums.
constexpr std::string_view kEventNames[] = {
#define FLEXRPC_REC_EVENT(id, name) name,
#include "src/support/rec_events.def"
#undef FLEXRPC_REC_EVENT
};

constexpr std::string_view kEndpointNames[] = {
#define FLEXRPC_REC_ENDPOINT(id, name) name,
#include "src/support/rec_endpoints.def"
#undef FLEXRPC_REC_ENDPOINT
};

// Position of `name` in a name table; N when the table lacks it.
template <size_t N>
size_t IndexOfName(const std::string_view (&names)[N], std::string_view name) {
  return static_cast<size_t>(std::find(names, names + N, name) - names);
}

thread_local bool tls_scope_active = false;
thread_local uint32_t tls_scope_xid = 0;
thread_local const VirtualClock* tls_scope_clock = nullptr;

}  // namespace

std::string_view RecEventName(RecEvent e) {
  return kEventNames[static_cast<size_t>(e)];
}

std::string_view RecEndpointName(RecEndpoint e) {
  return kEndpointNames[static_cast<size_t>(e)];
}

RecorderCallScope::RecorderCallScope(uint32_t xid, const VirtualClock* clock)
    : prev_xid_(tls_scope_xid),
      prev_clock_(tls_scope_clock),
      prev_active_(tls_scope_active) {
  tls_scope_xid = xid;
  tls_scope_clock = clock;
  tls_scope_active = true;
}

RecorderCallScope::~RecorderCallScope() {
  tls_scope_xid = prev_xid_;
  tls_scope_clock = prev_clock_;
  tls_scope_active = prev_active_;
}

RecorderReplicaScope::RecorderReplicaScope(uint32_t replica_tag)
    : prev_tag_(rec_internal::tls_replica_tag) {
  rec_internal::tls_replica_tag = replica_tag;
}

RecorderReplicaScope::~RecorderReplicaScope() {
  rec_internal::tls_replica_tag = prev_tag_;
}

uint32_t RecorderReplicaScope::Current() {
  return rec_internal::tls_replica_tag;
}

RecorderConnScope::RecorderConnScope(uint32_t conn_tag)
    : prev_tag_(rec_internal::tls_conn_tag) {
  rec_internal::tls_conn_tag = conn_tag;
}

RecorderConnScope::~RecorderConnScope() {
  rec_internal::tls_conn_tag = prev_tag_;
}

uint32_t RecorderConnScope::Current() { return rec_internal::tls_conn_tag; }

bool RecorderCallScope::Active() { return tls_scope_active; }

uint32_t RecorderCallScope::CurrentXid() { return tls_scope_xid; }

uint64_t RecorderCallScope::CurrentVirtualNanos() {
  return tls_scope_clock != nullptr ? tls_scope_clock->now_nanos() : 0;
}

RecorderSession::RecorderSession(size_t capacity) {
  if (RecorderEnabled()) {
    std::fprintf(stderr, "recorder: nested RecorderSession\n");
    std::abort();
  }
  rec_internal::g_slots.assign(capacity == 0 ? 1 : capacity,
                               RecordedEvent{});
  rec_internal::g_next.store(0, std::memory_order_relaxed);
  rec_internal::g_enabled.store(true, std::memory_order_relaxed);
}

RecorderSession::~RecorderSession() {
  if (!stopped_) {
    rec_internal::g_enabled.store(false, std::memory_order_relaxed);
  }
}

Recording RecorderSession::Stop() {
  Recording recording;
  if (stopped_) {
    return recording;
  }
  stopped_ = true;
  rec_internal::g_enabled.store(false, std::memory_order_relaxed);
  uint64_t total = rec_internal::g_next.load(std::memory_order_relaxed);
  size_t capacity = rec_internal::g_slots.size();
  recording.capacity = capacity;
  recording.total_events = total;
  if (total <= capacity) {
    recording.events.assign(rec_internal::g_slots.begin(),
                            rec_internal::g_slots.begin() +
                                static_cast<ptrdiff_t>(total));
  } else {
    // The ring wrapped: the oldest surviving event sits at total % capacity.
    recording.dropped_events = total - capacity;
    size_t start = static_cast<size_t>(total % capacity);
    recording.events.reserve(capacity);
    recording.events.insert(recording.events.end(),
                            rec_internal::g_slots.begin() +
                                static_cast<ptrdiff_t>(start),
                            rec_internal::g_slots.end());
    recording.events.insert(recording.events.end(),
                            rec_internal::g_slots.begin(),
                            rec_internal::g_slots.begin() +
                                static_cast<ptrdiff_t>(start));
  }
  return recording;
}

std::string RecordingToJson(const Recording& recording,
                            bool include_wall_nanos) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("flexrpc-rec-v1");
  w.Key("capacity").UInt(recording.capacity);
  w.Key("total_events").UInt(recording.total_events);
  w.Key("dropped_events").UInt(recording.dropped_events);
  w.Key("events").BeginArray();
  for (const RecordedEvent& e : recording.events) {
    w.BeginObject();
    w.Key("type").String(RecEventName(e.type));
    w.Key("ep").String(RecEndpointName(e.endpoint));
    w.Key("xid").UInt(e.xid);
    if (e.replica != 0) {
      // Only replicated runs carry the key, so recordings made before the
      // replica field existed — and all single-transport recordings —
      // serialize byte-identically.
      w.Key("r").UInt(e.replica);
    }
    if (e.conn != 0) {
      // Same rule as "r": only multiplexed runs carry the key, so every
      // single-connection recording stays byte-identical.
      w.Key("c").UInt(e.conn);
    }
    w.Key("vt").UInt(e.virtual_nanos);
    w.Key("a").UInt(e.a);
    w.Key("b").UInt(e.b);
    if (include_wall_nanos) {
      w.Key("wt").UInt(e.wall_nanos);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

namespace {

Result<uint64_t> RequireUInt(const JsonValue& object, const char* key,
                             uint64_t max = UINT64_MAX) {
  const JsonValue* v = object.Find(key);
  std::optional<uint64_t> value =
      v != nullptr ? v->AsUInt(max) : std::nullopt;
  if (!value) {
    return InvalidArgumentError(StrFormat(
        "recording field \"%s\" is not an integer in [0, %llu]", key,
        static_cast<unsigned long long>(max)));
  }
  return *value;
}

// Optional fields read as zero when absent.
Result<uint64_t> OptionalUInt(const JsonValue& object, const char* key,
                              uint64_t max = UINT64_MAX) {
  if (object.Find(key) == nullptr) {
    return uint64_t{0};
  }
  return RequireUInt(object, key, max);
}

}  // namespace

Result<Recording> ParseRecording(std::string_view json) {
  FLEXRPC_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json));
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->string != "flexrpc-rec-v1") {
    return InvalidArgumentError("not a flexrpc-rec-v1 recording");
  }
  Recording recording;
  FLEXRPC_ASSIGN_OR_RETURN(uint64_t capacity, RequireUInt(doc, "capacity"));
  recording.capacity = static_cast<size_t>(capacity);
  FLEXRPC_ASSIGN_OR_RETURN(recording.total_events,
                           RequireUInt(doc, "total_events"));
  FLEXRPC_ASSIGN_OR_RETURN(recording.dropped_events,
                           RequireUInt(doc, "dropped_events"));
  const JsonValue* events = doc.Find("events");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return InvalidArgumentError("recording has no events array");
  }
  recording.events.reserve(events->array.size());
  for (const JsonValue& entry : events->array) {
    RecordedEvent e;
    const JsonValue* type = entry.Find("type");
    const JsonValue* ep = entry.Find("ep");
    if (type == nullptr || ep == nullptr) {
      return InvalidArgumentError("recording event missing type/ep");
    }
    size_t type_index = IndexOfName(kEventNames, type->string);
    if (type_index == kRecEventCount) {
      return InvalidArgumentError(
          StrFormat("unknown event type \"%s\"", type->string.c_str()));
    }
    e.type = static_cast<RecEvent>(type_index);
    size_t ep_index = IndexOfName(kEndpointNames, ep->string);
    if (ep_index == kRecEndpointCount) {
      return InvalidArgumentError(
          StrFormat("unknown endpoint \"%s\"", ep->string.c_str()));
    }
    e.endpoint = static_cast<RecEndpoint>(ep_index);
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t xid,
                             RequireUInt(entry, "xid", UINT32_MAX));
    e.xid = static_cast<uint32_t>(xid);
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t replica,
                             OptionalUInt(entry, "r", UINT32_MAX));
    e.replica = static_cast<uint32_t>(replica);
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t conn,
                             OptionalUInt(entry, "c", UINT32_MAX));
    e.conn = static_cast<uint32_t>(conn);
    FLEXRPC_ASSIGN_OR_RETURN(e.virtual_nanos, RequireUInt(entry, "vt"));
    FLEXRPC_ASSIGN_OR_RETURN(e.a, RequireUInt(entry, "a"));
    FLEXRPC_ASSIGN_OR_RETURN(e.b, RequireUInt(entry, "b"));
    FLEXRPC_ASSIGN_OR_RETURN(e.wall_nanos, OptionalUInt(entry, "wt"));
    recording.events.push_back(e);
  }
  return recording;
}

// --- Chrome trace_event export ------------------------------------------

namespace {

// Virtual nanoseconds -> the "ts" microsecond field, exactly (three
// decimal places keeps sub-microsecond event ordering without going
// through a double).
std::string ChromeTs(uint64_t virtual_nanos) {
  return StrFormat("%llu.%03llu",
                   static_cast<unsigned long long>(virtual_nanos / 1000),
                   static_cast<unsigned long long>(virtual_nanos % 1000));
}

// One (replica, endpoint) pair maps to one thread track. Replica 0 keeps
// the original tids 1..4, so unreplicated traces are unchanged; each
// replica tag shifts its four endpoint tracks up as a block.
uint64_t ChromeTid(uint32_t replica, RecEndpoint endpoint) {
  return static_cast<uint64_t>(replica) * kRecEndpointCount +
         static_cast<uint64_t>(endpoint) + 1;
}

// One trace event's fixed fields. tid is the (replica, endpoint) track.
void ChromeEventHead(JsonWriter& w, std::string_view name,
                     std::string_view ph, uint64_t virtual_nanos,
                     RecEndpoint endpoint, uint32_t replica = 0) {
  w.BeginObject();
  w.Key("name").String(name);
  w.Key("ph").String(ph);
  w.Key("ts").RawNumber(ChromeTs(virtual_nanos));
  w.Key("pid").UInt(0);
  w.Key("tid").UInt(ChromeTid(replica, endpoint));
}

void ChromeArgsXid(JsonWriter& w, const RecordedEvent& e) {
  w.Key("args").BeginObject();
  w.Key("xid").UInt(e.xid);
  if (e.conn != 0) {
    w.Key("conn").UInt(e.conn);
  }
  if (e.a != 0) {
    w.Key("a").UInt(e.a);
  }
  if (e.b != 0) {
    w.Key("b").UInt(e.b);
  }
  w.EndObject();
}

struct SpanKind {
  std::string_view begin_name;  // span label when opened by this event
  RecEvent end_type;
};

// One flexwatch series as a Perfetto counter track: a ph:"C" event per
// recorded window, stamped at the window-close time (the final partial
// window closes at end_nanos). tid 0 keeps counter tracks off the
// endpoint thread tracks.
void ChromeCounterSeries(JsonWriter& w, const Timeline& timeline,
                         const Timeline::Series& series) {
  for (size_t k = 0; k < series.samples.size(); ++k) {
    uint64_t ts = timeline.start_nanos + (k + 1) * timeline.tick_nanos;
    if (ts > timeline.end_nanos) {
      ts = timeline.end_nanos;
    }
    w.BeginObject();
    w.Key("name").String(series.name);
    w.Key("ph").String("C");
    w.Key("ts").RawNumber(ChromeTs(ts));
    w.Key("pid").UInt(0);
    w.Key("tid").UInt(0);
    w.Key("args").BeginObject().Key("value").UInt(series.samples[k])
        .EndObject();
    w.EndObject();
  }
}

}  // namespace

std::string ExportChromeTrace(const Recording& recording) {
  return ExportChromeTrace(recording, nullptr);
}

std::string ExportChromeTrace(const Recording& recording,
                              const Timeline* timeline) {
  // Stable-sort by virtual time: ring order is the deterministic
  // tie-break, and B/E pairing below requires chronological order.
  std::vector<const RecordedEvent*> ordered;
  ordered.reserve(recording.events.size());
  for (const RecordedEvent& e : recording.events) {
    ordered.push_back(&e);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RecordedEvent* a, const RecordedEvent* b) {
                     return a->virtual_nanos < b->virtual_nanos;
                   });
  uint64_t last_nanos =
      ordered.empty() ? 0 : ordered.back()->virtual_nanos;

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("otherData").BeginObject();
  w.Key("dropped_events").UInt(recording.dropped_events);
  w.Key("total_events").UInt(recording.total_events);
  w.EndObject();
  w.Key("traceEvents").BeginArray();

  // Track-name metadata: one named thread per endpoint.
  w.BeginObject();
  w.Key("name").String("process_name");
  w.Key("ph").String("M");
  w.Key("pid").UInt(0);
  w.Key("tid").UInt(0);
  w.Key("args").BeginObject().Key("name").String("flexrpc").EndObject();
  w.EndObject();
  // Replica tags present in the recording: 0 (the unreplicated tracks)
  // plus every tag a RecorderReplicaScope stamped. Each gets its own block
  // of endpoint tracks, named "server[r2]" style for replicas.
  std::vector<uint32_t> replicas{0};
  for (const RecordedEvent* ep : ordered) {
    if (ep->replica != 0 &&
        std::find(replicas.begin(), replicas.end(), ep->replica) ==
            replicas.end()) {
      replicas.push_back(ep->replica);
    }
  }
  std::sort(replicas.begin(), replicas.end());
  for (uint32_t replica : replicas) {
    for (size_t i = 0; i < kRecEndpointCount; ++i) {
      w.BeginObject();
      w.Key("name").String("thread_name");
      w.Key("ph").String("M");
      w.Key("pid").UInt(0);
      w.Key("tid").UInt(ChromeTid(replica, static_cast<RecEndpoint>(i)));
      std::string track(kEndpointNames[i]);
      if (replica != 0) {
        track += StrFormat("[r%u]", replica);
      }
      w.Key("args").BeginObject().Key("name").String(track).EndObject();
      w.EndObject();
    }
  }

  if (recording.dropped_events > 0) {
    // Make truncation visible in the viewer instead of silently showing a
    // partial timeline.
    RecordedEvent marker;
    marker.virtual_nanos =
        ordered.empty() ? 0 : ordered.front()->virtual_nanos;
    ChromeEventHead(w, "truncated", "i", marker.virtual_nanos,
                    RecEndpoint::kClient);
    w.Key("s").String("g");
    w.Key("args")
        .BeginObject()
        .Key("dropped_events")
        .UInt(recording.dropped_events)
        .EndObject();
    w.EndObject();
  }

  // B/E pairing state per (replica, endpoint) track: a truncated
  // recording can hold an End whose Begin was overwritten (suppress it)
  // or a Begin whose End never landed (close it at the final timestamp).
  // Marshal and server spans never nest within a track, so open-span
  // bookkeeping is a stack of labels.
  std::map<uint64_t, std::vector<std::string_view>> open_spans;  // by tid
  // Async call spans keyed by (conn, xid), same repair rules — xids are
  // only unique per connection under the mux. A rebound call is
  // resubmitted under the same xid on another replica; its async span
  // stays open from the first submission until the one completion.
  std::vector<uint64_t> open_calls;
  auto call_key = [](const RecordedEvent& e) {
    return (static_cast<uint64_t>(e.conn) << 32) | e.xid;
  };

  for (const RecordedEvent* ep : ordered) {
    const RecordedEvent& e = *ep;
    switch (e.type) {
      case RecEvent::kCallSubmit: {
        if (std::find(open_calls.begin(), open_calls.end(), call_key(e)) !=
            open_calls.end()) {
          break;  // re-issue on another replica; span already open
        }
        ChromeEventHead(w, "call", "b", e.virtual_nanos, e.endpoint,
                        e.replica);
        w.Key("cat").String("rpc");
        w.Key("id").UInt(call_key(e));
        ChromeArgsXid(w, e);
        w.EndObject();
        open_calls.push_back(call_key(e));
        break;
      }
      case RecEvent::kCallComplete: {
        auto it =
            std::find(open_calls.begin(), open_calls.end(), call_key(e));
        if (it == open_calls.end()) {
          break;  // begin lost to truncation
        }
        open_calls.erase(it);
        ChromeEventHead(w, "call", "e", e.virtual_nanos, e.endpoint,
                        e.replica);
        w.Key("cat").String("rpc");
        w.Key("id").UInt(call_key(e));
        ChromeArgsXid(w, e);
        w.EndObject();
        break;
      }
      case RecEvent::kMarshalBegin:
      case RecEvent::kServerExecBegin: {
        std::string_view name = e.type == RecEvent::kServerExecBegin
                                    ? "server_exec"
                                : e.a != 0 ? "unmarshal"
                                           : "marshal";
        ChromeEventHead(w, name, "B", e.virtual_nanos, e.endpoint,
                        e.replica);
        ChromeArgsXid(w, e);
        w.EndObject();
        open_spans[ChromeTid(e.replica, e.endpoint)].push_back(name);
        break;
      }
      case RecEvent::kMarshalEnd:
      case RecEvent::kServerExecEnd: {
        auto& stack = open_spans[ChromeTid(e.replica, e.endpoint)];
        if (stack.empty()) {
          break;  // begin lost to truncation
        }
        std::string_view name = stack.back();
        stack.pop_back();
        ChromeEventHead(w, name, "E", e.virtual_nanos, e.endpoint,
                        e.replica);
        w.EndObject();
        break;
      }
      default: {
        // Everything else is an instant on its (replica, endpoint) track.
        ChromeEventHead(w, RecEventName(e.type), "i", e.virtual_nanos,
                        e.endpoint, e.replica);
        w.Key("s").String("t");
        ChromeArgsXid(w, e);
        w.EndObject();
        break;
      }
    }
  }

  // Repair unmatched begins so the trace stays structurally valid. The
  // tid already encodes (replica, endpoint); emit the close directly.
  for (auto& [tid, stack] : open_spans) {
    while (!stack.empty()) {
      std::string_view name = stack.back();
      stack.pop_back();
      w.BeginObject();
      w.Key("name").String(name);
      w.Key("ph").String("E");
      w.Key("ts").RawNumber(ChromeTs(last_nanos));
      w.Key("pid").UInt(0);
      w.Key("tid").UInt(tid);
      w.EndObject();
    }
  }
  for (uint64_t key : open_calls) {
    ChromeEventHead(w, "call", "e", last_nanos, RecEndpoint::kClient);
    w.Key("cat").String("rpc");
    w.Key("id").UInt(key);
    w.EndObject();
  }

  if (timeline != nullptr) {
    for (const Timeline::Series& series : timeline->counters) {
      ChromeCounterSeries(w, *timeline, series);
    }
    for (const Timeline::Series& series : timeline->gauges) {
      ChromeCounterSeries(w, *timeline, series);
    }
  }

  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace flexrpc
