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
//      workload produce identical values — which is what lets CI gate on
//      them with equality-tight budgets (tools/flextrace).
//   3. Thread-safe. Counters and histogram buckets are relaxed atomics, so
//      the TSan suite (tools/ci.sh, FLEXRPC_SANITIZE=thread) stays clean
//      even when multiple tasks trace concurrently.
//
// Vocabulary:
//   * TraceCounter  — a monotonic event/byte count (one enum per source).
//   * TraceHistogram — power-of-two-bucketed value distribution with
//     count/sum, used for span timers and per-message sizes. Virtual-clock
//     durations (modeled wire time) use the same shape.
//   * TraceSpan — RAII wall-clock span timer feeding a histogram.
//   * TraceSession — enables tracing, snapshots a baseline, and reports
//     the delta as a structured object or JSON.

#ifndef FLEXRPC_SRC_SUPPORT_TRACE_H_
#define FLEXRPC_SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/timing.h"

namespace flexrpc {

// The closed counter catalog. Names (TraceCounterName) are dot-separated
// and stable: budgets, dashboards, and EXPERIMENTS.md refer to them.
// Append new counters at the end of their section; never renumber.
enum class TraceCounter : uint16_t {
  // osim: the simulated kernel.
  kKernelTraps = 0,          // kernel.traps
  kPortTransfersUnique,      // kernel.port_transfers.unique
  kPortTransfersNonunique,   // kernel.port_transfers.nonunique
  kNameTableLookups,         // names.lookups
  kNameTableInserts,         // names.inserts
  kNameTableReverseHits,     // names.reverse_hits (unique insert found one)
  kNameTableReleases,        // names.releases

  // support: arena allocator traffic ("allocations" in the paper's sense).
  kArenaBumpAllocs,          // arena.bump_allocs
  kArenaBumpBytes,           // arena.bump_bytes
  kArenaBlockAllocs,         // arena.block_allocs
  kArenaBlockFrees,          // arena.block_frees
  kArenaBlockBytes,          // arena.block_bytes

  // Cross-layer data-copy accounting ("copies" in the paper's sense):
  // every traced memcpy of payload data, wherever it happens.
  kDataCopies,               // mem.copies
  kDataCopyBytes,            // mem.copy_bytes

  // ipc: transports.
  kIpcFastpathCalls,         // ipc.fastpath.calls
  kIpcOldpathCalls,          // ipc.oldpath.calls
  kIpcOldpathDescriptors,    // ipc.oldpath.descriptors
  kIpcBytesCopied,           // ipc.bytes_copied
  kIpcThreadedCalls,         // ipc.threaded.calls
  kIpcThreadedOps,           // ipc.threaded.ops
  kRegistersSaved,           // ipc.registers.saved
  kRegistersCleared,         // ipc.registers.cleared
  kRegistersRestored,        // ipc.registers.restored
  kSigCacheHits,             // ipc.sigcache.hits
  kSigCacheMisses,           // ipc.sigcache.misses

  // rpc: runtime and same-domain engine.
  kRpcBinds,                 // rpc.binds
  kRpcClientCalls,           // rpc.client.calls
  kRpcDispatches,            // rpc.server.dispatches
  kRpcRequestBytes,          // rpc.request_bytes
  kRpcReplyBytes,            // rpc.reply_bytes
  kSameDomainCalls,          // rpc.samedomain.calls
  kSameDomainCopies,         // rpc.samedomain.copies
  kSameDomainCopyBytes,      // rpc.samedomain.copy_bytes
  kRpcDupCacheHits,          // rpc.dupcache.hits (at-most-once suppressions)
  kRpcDupCacheMisses,        // rpc.dupcache.misses (work executions)
  kRpcRttSamples,            // rpc.rtt.samples (clean RTT measurements)
  kRpcRttKarnSkips,          // rpc.rtt.karn_skips (retransmit-ambiguous
                             //   replies excluded from estimation)
  kRpcRttClamps,             // rpc.rtt.clamps (RTO hit a min/max bound)
  kRpcCwndIncreases,         // rpc.cwnd.increases (additive window growth)
  kRpcCwndDecreases,         // rpc.cwnd.decreases (multiplicative halvings)
  kRpcBinderCalls,           // rpc.binder.calls (calls routed by a binding)
  kRpcBinderReissues,        // rpc.binder.reissues (in-flight xids moved to
                             //   another replica)
  kRpcBinderProbes,          // rpc.binder.probes (health probes sent)
  kRpcBinderCutovers,        // rpc.binder.cutovers (primary changed)
  kRpcFailoverSuspects,      // rpc.failover.suspects (healthy -> suspect)
  kRpcFailoverReinstates,    // rpc.failover.reinstates (probe succeeded)
  kRpcMuxConnsOpened,        // rpc.mux.conns_opened
  kRpcMuxCalls,              // rpc.mux.calls (submissions across all conns)
  kRpcMuxRetransmits,        // rpc.mux.retransmits
  kRpcMuxStaleReplies,       // rpc.mux.stale_replies (no in-flight match)
  kRpcMuxFlowStalls,         // rpc.mux.flow_stalls (queued behind the
                             //   per-connection window)
  kRpcMuxDeadlineExpiries,   // rpc.mux.deadline_expiries
  kRpcMuxUnavailable,        // rpc.mux.unavailable (attempt budget spent)
  kRpcMuxCorruptReplies,     // rpc.mux.corrupt_replies (checksum failures
                             //   on the reply path, dropped)
  kRpcDispatchAccepts,       // rpc.dispatch.accepts (frames admitted)
  kRpcDispatchExecutions,    // rpc.dispatch.executions (worker runs)
  kRpcDispatchShed,          // rpc.dispatch.shed (requests dropped at a
                             //   full accept/run queue)
  kRpcDupCacheEvictions,     // rpc.dupcache.evictions (LRU pushed an xid out)
  kRpcDupCacheEvictedReexecs,  // rpc.dupcache.evicted_reexecs (an evicted
                               //   xid was executed again — the at-most-once
                               //   hazard the per-connection sizing prevents)

  // marshal: interpreter opcode mix.
  kMarshalOpScalar,          // marshal.ops.scalar
  kMarshalOpBytes,           // marshal.ops.bytes
  kMarshalOpString,          // marshal.ops.string
  kMarshalOpStruct,          // marshal.ops.struct
  kMarshalOpUnion,           // marshal.ops.union
  kMarshalOpSpecial,         // marshal.ops.special
  kMarshalBytesOut,          // marshal.bytes_marshaled
  kMarshalBytesIn,           // marshal.bytes_unmarshaled
  kMarshalSpecHits,          // marshal.spec.hit
  kMarshalSpecMisses,        // marshal.spec.miss

  // fbuf: reference passing vs copying.
  kFbufAllocs,               // fbuf.allocs
  kFbufChannelCalls,         // fbuf.channel.calls
  kFbufSpliceSegments,       // fbuf.splice_segments
  kFbufBytesByReference,     // fbuf.bytes_by_reference
  kFbufBytesCopied,          // fbuf.bytes_copied

  // net: the modeled wire.
  kNetTransfers,             // net.transfers
  kNetPackets,               // net.packets
  kNetBytesOnWire,           // net.bytes_on_wire
  kNetWireVirtualNanos,      // net.wire_virtual_nanos
  kNetDatagramsSent,         // net.datagrams_sent (framed sends attempted)
  kNetDatagramsDelivered,    // net.datagrams_delivered (valid receives)
  kNetFaultDrops,            // net.fault.drops
  kNetFaultDups,             // net.fault.dups
  kNetFaultReorders,         // net.fault.reorders
  kNetFaultCorrupts,         // net.fault.corrupts
  kNetFaultExtraDelayNanos,  // net.fault.extra_delay_nanos (virtual clock)
  kNetChecksumFailures,      // net.checksum_failures (corruption detected)
  kNetFrameCopies,           // net.frame_copies (frame buffers copied in Send)

  kCount,
};

enum class TraceHistogram : uint16_t {
  kRpcMarshalNanos = 0,      // rpc.marshal_nanos (client request marshal)
  kRpcUnmarshalNanos,        // rpc.unmarshal_nanos (client reply unmarshal)
  kRpcDispatchNanos,         // rpc.dispatch_nanos (server-side dispatch)
  kIpcMessageBytes,          // ipc.message_bytes (per-message size)
  kNetTransferVirtualNanos,  // net.transfer_virtual_nanos (modeled wire)
  kRpcDispatchQueueDepth,    // rpc.dispatch.queue_depth (run-queue depth
                             //   observed at each admission)
  kCount,
};

inline constexpr size_t kTraceCounterCount =
    static_cast<size_t>(TraceCounter::kCount);
inline constexpr size_t kTraceHistogramCount =
    static_cast<size_t>(TraceHistogram::kCount);
// Bucket i counts values v with 2^(i-1) <= v < 2^i (bucket 0: v == 0).
inline constexpr size_t kTraceHistogramBuckets = 40;

// Stable dot-separated names for serialization and budgets.
std::string_view TraceCounterName(TraceCounter c);
std::string_view TraceHistogramName(TraceHistogram h);

namespace trace_internal {

struct HistogramCells {
  std::atomic<uint64_t> buckets[kTraceHistogramBuckets];
  std::atomic<uint64_t> count;
  std::atomic<uint64_t> sum;
};

extern std::atomic<bool> g_enabled;
extern std::atomic<uint64_t> g_counters[kTraceCounterCount];
extern HistogramCells g_histograms[kTraceHistogramCount];

void ObserveSlow(TraceHistogram h, uint64_t value);

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

// Records `value` into histogram `h`.
inline void TraceObserve(TraceHistogram h, uint64_t value) {
  if (TraceEnabled()) {
    trace_internal::ObserveSlow(h, value);
  }
}

// Zeroes every counter and histogram (not the enabled flag).
void ResetTrace();

// RAII wall-clock span feeding a histogram; captures nothing when tracing
// is disabled at construction.
class TraceSpan {
 public:
  explicit TraceSpan(TraceHistogram h)
      : histogram_(h), armed_(TraceEnabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~TraceSpan() {
    if (armed_) {
      uint64_t nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
      TraceObserve(histogram_, nanos);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceHistogram histogram_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

// Point-in-time copy of the whole registry.
struct TraceSnapshot {
  uint64_t counters[kTraceCounterCount] = {};
  struct Histogram {
    uint64_t buckets[kTraceHistogramBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  Histogram histograms[kTraceHistogramCount];

  uint64_t counter(TraceCounter c) const {
    return counters[static_cast<size_t>(c)];
  }
  const Histogram& histogram(TraceHistogram h) const {
    return histograms[static_cast<size_t>(h)];
  }
};

TraceSnapshot CaptureTrace();

// b - a, fieldwise. Meaningful when `a` was captured before `b` with no
// intervening ResetTrace.
TraceSnapshot TraceDelta(const TraceSnapshot& a, const TraceSnapshot& b);

// Serializes a snapshot as one JSON object:
//   {"counters": {"kernel.traps": 12, ...},
//    "histograms": {"rpc.marshal_nanos": {"count":..,"sum":..,
//                                         "buckets":[..]}, ...}}
// Every counter in the catalog appears, including zeros, so downstream
// consumers (budget gate, diffs) never see a missing key. Histograms with
// zero observations are elided; `buckets` holds [bucket_index, count]
// pairs for the non-empty buckets.
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
