#include "src/support/trace.h"

#include <bit>

#include "src/support/json.h"

namespace flexrpc {
namespace trace_internal {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_counters[kTraceCounterCount]{};
HistogramCells g_histograms[kTraceHistogramCount]{};

void ObserveSlow(TraceHistogram h, uint64_t value) {
  // Bucket 0 holds zeros; bucket i holds 2^(i-1) <= v < 2^i. bit_width
  // maps 1->1, 2..3->2, ... and saturates into the last bucket.
  size_t bucket = static_cast<size_t>(std::bit_width(value));
  if (bucket >= kTraceHistogramBuckets) {
    bucket = kTraceHistogramBuckets - 1;
  }
  HistogramCells& cells = g_histograms[static_cast<size_t>(h)];
  cells.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace trace_internal

namespace {

// Indexed by TraceCounter value; keep in lockstep with the enum.
constexpr std::string_view kCounterNames[kTraceCounterCount] = {
    "kernel.traps",
    "kernel.port_transfers.unique",
    "kernel.port_transfers.nonunique",
    "names.lookups",
    "names.inserts",
    "names.reverse_hits",
    "names.releases",
    "arena.bump_allocs",
    "arena.bump_bytes",
    "arena.block_allocs",
    "arena.block_frees",
    "arena.block_bytes",
    "mem.copies",
    "mem.copy_bytes",
    "ipc.fastpath.calls",
    "ipc.oldpath.calls",
    "ipc.oldpath.descriptors",
    "ipc.bytes_copied",
    "ipc.threaded.calls",
    "ipc.threaded.ops",
    "ipc.registers.saved",
    "ipc.registers.cleared",
    "ipc.registers.restored",
    "ipc.sigcache.hits",
    "ipc.sigcache.misses",
    "rpc.binds",
    "rpc.client.calls",
    "rpc.server.dispatches",
    "rpc.request_bytes",
    "rpc.reply_bytes",
    "rpc.samedomain.calls",
    "rpc.samedomain.copies",
    "rpc.samedomain.copy_bytes",
    "rpc.dupcache.hits",
    "rpc.dupcache.misses",
    "rpc.rtt.samples",
    "rpc.rtt.karn_skips",
    "rpc.rtt.clamps",
    "rpc.cwnd.increases",
    "rpc.cwnd.decreases",
    "rpc.binder.calls",
    "rpc.binder.reissues",
    "rpc.binder.probes",
    "rpc.binder.cutovers",
    "rpc.failover.suspects",
    "rpc.failover.reinstates",
    "rpc.mux.conns_opened",
    "rpc.mux.calls",
    "rpc.mux.retransmits",
    "rpc.mux.stale_replies",
    "rpc.mux.flow_stalls",
    "rpc.mux.deadline_expiries",
    "rpc.mux.unavailable",
    "rpc.mux.corrupt_replies",
    "rpc.dispatch.accepts",
    "rpc.dispatch.executions",
    "rpc.dispatch.shed",
    "rpc.dupcache.evictions",
    "rpc.dupcache.evicted_reexecs",
    "marshal.ops.scalar",
    "marshal.ops.bytes",
    "marshal.ops.string",
    "marshal.ops.struct",
    "marshal.ops.union",
    "marshal.ops.special",
    "marshal.bytes_marshaled",
    "marshal.bytes_unmarshaled",
    "marshal.spec.hit",
    "marshal.spec.miss",
    "fbuf.allocs",
    "fbuf.channel.calls",
    "fbuf.splice_segments",
    "fbuf.bytes_by_reference",
    "fbuf.bytes_copied",
    "net.transfers",
    "net.packets",
    "net.bytes_on_wire",
    "net.wire_virtual_nanos",
    "net.datagrams_sent",
    "net.datagrams_delivered",
    "net.fault.drops",
    "net.fault.dups",
    "net.fault.reorders",
    "net.fault.corrupts",
    "net.fault.extra_delay_nanos",
    "net.checksum_failures",
    "net.frame_copies",
};

constexpr std::string_view kHistogramNames[kTraceHistogramCount] = {
    "rpc.marshal_nanos",
    "rpc.unmarshal_nanos",
    "rpc.dispatch_nanos",
    "ipc.message_bytes",
    "net.transfer_virtual_nanos",
    "rpc.dispatch.queue_depth",
};

// Enum/name-table drift guard. The array extents above already force the
// table *length* to match kCount (excess initializers fail to compile),
// but a missing trailing entry would silently value-initialize to an
// empty string_view — catch that, and accidental duplicates, here.
template <size_t N>
constexpr bool NamesNonEmptyAndUnique(const std::string_view (&names)[N]) {
  for (size_t i = 0; i < N; ++i) {
    if (names[i].empty()) {
      return false;
    }
    for (size_t j = i + 1; j < N; ++j) {
      if (names[i] == names[j]) {
        return false;
      }
    }
  }
  return true;
}

static_assert(NamesNonEmptyAndUnique(kCounterNames),
              "TraceCounter name table must cover the enum with unique "
              "names — append the new counter's name in enum order");
static_assert(NamesNonEmptyAndUnique(kHistogramNames),
              "TraceHistogram name table must cover the enum with unique "
              "names — append the new histogram's name in enum order");

}  // namespace

std::string_view TraceCounterName(TraceCounter c) {
  return kCounterNames[static_cast<size_t>(c)];
}

std::string_view TraceHistogramName(TraceHistogram h) {
  return kHistogramNames[static_cast<size_t>(h)];
}

void SetTraceEnabled(bool enabled) {
  trace_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void ResetTrace() {
  for (auto& c : trace_internal::g_counters) {
    c.store(0, std::memory_order_relaxed);
  }
  for (auto& h : trace_internal::g_histograms) {
    for (auto& b : h.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
  }
}

TraceSnapshot CaptureTrace() {
  TraceSnapshot snap;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    snap.counters[i] =
        trace_internal::g_counters[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kTraceHistogramCount; ++i) {
    const auto& cells = trace_internal::g_histograms[i];
    auto& out = snap.histograms[i];
    for (size_t b = 0; b < kTraceHistogramBuckets; ++b) {
      out.buckets[b] = cells.buckets[b].load(std::memory_order_relaxed);
    }
    out.count = cells.count.load(std::memory_order_relaxed);
    out.sum = cells.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

TraceSnapshot TraceDelta(const TraceSnapshot& a, const TraceSnapshot& b) {
  TraceSnapshot d;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    d.counters[i] = b.counters[i] - a.counters[i];
  }
  for (size_t i = 0; i < kTraceHistogramCount; ++i) {
    for (size_t bk = 0; bk < kTraceHistogramBuckets; ++bk) {
      d.histograms[i].buckets[bk] =
          b.histograms[i].buckets[bk] - a.histograms[i].buckets[bk];
    }
    d.histograms[i].count = b.histograms[i].count - a.histograms[i].count;
    d.histograms[i].sum = b.histograms[i].sum - a.histograms[i].sum;
  }
  return d;
}

void WriteTraceSnapshot(JsonWriter& w, const TraceSnapshot& snapshot) {
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    w.Key(kCounterNames[i]).UInt(snapshot.counters[i]);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (size_t i = 0; i < kTraceHistogramCount; ++i) {
    const auto& h = snapshot.histograms[i];
    if (h.count == 0) {
      continue;
    }
    w.Key(kHistogramNames[i]).BeginObject();
    w.Key("count").UInt(h.count);
    w.Key("sum").UInt(h.sum);
    w.Key("buckets").BeginArray();
    for (size_t b = 0; b < kTraceHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) {
        continue;
      }
      w.BeginArray().UInt(b).UInt(h.buckets[b]).EndArray();
    }
    w.EndArray();
    w.EndObject();
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
