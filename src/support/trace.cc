#include "src/support/trace.h"

#include "src/support/json.h"

namespace flexrpc {
namespace trace_internal {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_counters[kTraceCounterCount]{};

}  // namespace trace_internal

namespace {

// Indexed by TraceCounter, generated from the same list as the enum.
constexpr std::string_view kNames[] = {
#define FLEXRPC_TRACE_COUNTER(id, name) name,
#include "src/support/trace_counters.def"
#undef FLEXRPC_TRACE_COUNTER
};

}  // namespace

std::string_view TraceCounterName(TraceCounter c) {
  return kNames[static_cast<size_t>(c)];
}

void SetTraceEnabled(bool enabled) {
  trace_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void ResetTrace() {
  for (auto& c : trace_internal::g_counters) {
    c.store(0, std::memory_order_relaxed);
  }
}

TraceSnapshot CaptureTrace() {
  TraceSnapshot snap;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    snap.counters[i] =
        trace_internal::g_counters[i].load(std::memory_order_relaxed);
  }
  return snap;
}

TraceSnapshot TraceDelta(const TraceSnapshot& a, const TraceSnapshot& b) {
  TraceSnapshot d;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    d.counters[i] = b.counters[i] - a.counters[i];
  }
  return d;
}

void WriteTraceSnapshot(JsonWriter& w, const TraceSnapshot& snapshot) {
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    w.Key(kNames[i]).UInt(snapshot.counters[i]);
  }
  w.EndObject();
  w.EndObject();
}

std::string TraceSnapshotToJson(const TraceSnapshot& snapshot) {
  JsonWriter w;
  WriteTraceSnapshot(w, snapshot);
  return w.str();
}

TraceSession::TraceSession() : was_enabled_(TraceEnabled()) {
  SetTraceEnabled(true);
  baseline_ = CaptureTrace();
}

TraceSession::~TraceSession() { SetTraceEnabled(was_enabled_); }

TraceSnapshot TraceSession::Report() const {
  return TraceDelta(baseline_, CaptureTrace());
}

void TraceSession::Rebase() { baseline_ = CaptureTrace(); }

}  // namespace flexrpc
