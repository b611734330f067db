// At-most-once building blocks for datagram RPC over a lossy channel.
//
// The specializable transports in this library assume the wire delivers;
// these pieces are what the call engine (ConnectionMux + ServerDispatch,
// src/rpc/mux.h and src/rpc/dispatch.h) runs on when it does not — the
// classic SunRPC/NFS-style at-most-once state machine:
//
//   client: transmit request (xid first) -> RTO timer on the virtual clock
//           -> retransmit with exponential backoff + deterministic jitter
//           -> give up with kUnavailable when the attempt budget is spent,
//              or kDeadlineExceeded when the per-call deadline passes
//              (including when a matching reply lands only after it).
//   server: every valid request datagram is looked up in a reply cache.
//           Miss -> execute the work function once, cache and send the
//           reply. Hit -> resend the cached reply without re-executing
//           (duplicate suppression: the work function runs at most once
//           per (connection, xid), even when requests arrive twice).
//
// ClientCallState carries the per-call client state (attempt budget,
// RTO/backoff arithmetic, deadline); AtMostOnceEndpoint is the server
// half (reply cache + execute-at-most-once). All waiting happens on a
// VirtualClock, so a "two second" deadline costs no host time and every
// timestamp is reproducible.

#ifndef FLEXRPC_SRC_RPC_RETRY_H_
#define FLEXRPC_SRC_RPC_RETRY_H_

#include <cstdint>
#include <functional>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/link.h"
#include "src/rpc/rtt.h"
#include "src/support/rng.h"
#include "src/support/status.h"

namespace flexrpc {

struct RetryPolicy {
  uint32_t max_attempts = 8;                  // transmissions incl. first
  uint64_t initial_rto_nanos = 20'000'000;    // 20 ms
  uint64_t max_rto_nanos = 400'000'000;       // 400 ms backoff ceiling
  uint64_t deadline_nanos = 4'000'000'000;    // 4 s per call, virtual
  uint64_t jitter_seed = 42;                  // deterministic jitter stream
  // A/B switch (src/rpc/rtt.h): when adaptive.enabled, the per-call RTO
  // comes from a per-connection Jacobson/Karels estimator, seeded with
  // initial_rto_nanos and capped at max_rto_nanos, instead of the fixed
  // doubling schedule between the two.
  AdaptiveConfig adaptive;
};

// Bounded server-side xid reply cache (the at-most-once memory). LRU
// eviction: Find and Insert both move the xid to the most-recently-used
// position, so an xid that is still being retransmitted cannot be pushed
// out by a burst of newer calls — evicting an in-flight xid would let a
// late retransmit re-execute the work and break exactly-once execution.
class ReplyCache {
 public:
  // Sizes the xid index for `capacity` entries up front, so it never
  // rehashes.
  explicit ReplyCache(size_t capacity = 256) : capacity_(capacity) {
    entries_.reserve(capacity);
  }

  // nullptr on miss; the cached reply datagram on hit. A hit refreshes the
  // entry's LRU position (which is why Find is not const).
  const std::vector<uint8_t>* Find(uint32_t xid);
  // Stores `reply` as the most recent entry and returns it.
  const std::vector<uint8_t>* Insert(uint32_t xid,
                                     std::vector<uint8_t> reply);

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  // How many entries LRU pressure has pushed out. An evicted xid that is
  // still being retransmitted is the at-most-once hazard the per-
  // connection sizing in AtMostOnceEndpoint exists to prevent.
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::vector<uint8_t> reply;
    std::list<uint32_t>::iterator slot;  // position in order_
  };

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::unordered_map<uint32_t, Entry> entries_;
  std::list<uint32_t> order_;  // front = least recent, back = most recent
};

// The server side of one endpoint: consumes request datagrams, produces
// reply datagrams. Returning a non-OK status means the request was
// malformed; the transport drops it (a real server cannot reply to a
// datagram it cannot parse).
using DatagramHandler =
    std::function<Status(ByteSpan request, std::vector<uint8_t>* reply)>;

// Server half of the at-most-once state machine (ServerDispatch runs one).
// At-most-once state is keyed by the (connection, xid) pair: each
// connection gets its own xid namespace and its own ReplyCache of
// cache_capacity entries, so two clients colliding on an xid cannot
// poison each other's dedup state, total dedup memory scales with the
// number of active connections, and one connection's burst can never
// evict another connection's in-flight xid. The per-connection states sit
// in a hash table: connection ids come off the wire, so unlike the mux's
// dense table this one cannot trust them to be small or contiguous.
class AtMostOnceEndpoint {
 public:
  struct Handled {
    uint32_t xid = 0;
    bool dup_hit = false;  // true: reply came from the cache, not execution
    // The reply datagram to (re)send. Points into the cache; valid until
    // the next Handle call.
    const std::vector<uint8_t>* reply = nullptr;
  };

  AtMostOnceEndpoint(DatagramHandler handler, size_t cache_capacity = 256)
      : handler_(std::move(handler)), cache_capacity_(cache_capacity) {}

  // Processes one request datagram on `conn`'s at-most-once state. Non-OK
  // means the datagram was unparseable or the handler rejected it —
  // nothing executed beyond the (at most one) handler attempt, nothing to
  // send.
  Result<Handled> Handle(uint32_t conn, ByteSpan request);

  // Dedup probe without execution: the cached reply for (conn, xid), or
  // nullptr. A hit counts as a dup-cache hit — the caller resends it (the
  // dispatch loop probes before admission so a duplicate never occupies a
  // worker or a run-queue slot).
  const std::vector<uint8_t>* FindCached(uint32_t conn, uint32_t xid);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }  // == handler executions
  // Executions of an xid this connection had already executed — the
  // entry was evicted mid-retransmit and at-most-once was violated. The
  // fleet soak gates this at zero; see ConnState for how it is detected.
  uint64_t evicted_reexecs() const { return evicted_reexecs_; }
  uint64_t evictions() const;  // summed over all connection caches
  ReplyCache& CacheFor(uint32_t conn);
  size_t connections() const { return conns_.size(); }

 private:
  struct ConnState {
    explicit ConnState(size_t capacity) : cache(capacity) {}
    ReplyCache cache;
    // Exact executed-xid memory backing the eviction hazard detector:
    // every xid in [1, executed_upto] has executed, plus the out-of-order
    // set above it (gaps close as delayed first deliveries land, so the
    // set stays small under monotonic per-connection allocation, which
    // starts at 1). xid 0 sits below that range and has its own flag.
    // This cannot replace the cache — it remembers THAT an xid executed,
    // not the reply bytes — but it can prove a re-execution exactly.
    bool executed_zero = false;
    uint64_t executed_upto = 0;
    std::set<uint32_t> executed_above;

    bool AlreadyExecuted(uint32_t xid) const;
    void MarkExecuted(uint32_t xid);
  };

  ConnState& StateFor(uint32_t conn);

  DatagramHandler handler_;
  size_t cache_capacity_;
  std::unordered_map<uint32_t, ConnState> conns_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evicted_reexecs_ = 0;
};

// Client half of the at-most-once state machine for one call: the attempt
// budget, the RTO/backoff/jitter arithmetic, and the absolute deadline.
// The mux steps one per in-flight call from timer events.
struct ClientCallState {
  uint32_t xid = 0;
  std::vector<uint8_t> request;  // owned: retransmits outlive the caller
  uint32_t attempts = 0;         // transmissions so far
  uint64_t rto_nanos = 0;
  uint64_t deadline_nanos = 0;   // absolute, on the virtual clock
  uint64_t submit_nanos = 0;     // when Arm ran — submit-to-complete
                                 // latency for flexwatch series
  uint64_t last_tx_nanos = 0;    // most recent transmission time — an RTT
                                 // sample is reply time minus this, valid
                                 // only when attempts == 1 (Karn's rule)

  void Arm(const RetryPolicy& policy, uint64_t now_nanos) {
    attempts = 0;
    rto_nanos = policy.initial_rto_nanos;
    submit_nanos = now_nanos;
    deadline_nanos = now_nanos + policy.deadline_nanos;
  }

  bool AttemptsExhausted(const RetryPolicy& policy) const {
    return attempts >= policy.max_attempts;
  }

  bool DeadlinePassed(uint64_t now_nanos) const {
    return now_nanos >= deadline_nanos;
  }

  // How long to wait before the next retransmit: the current RTO plus up
  // to 25% deterministic jitter, clipped so the wait never overshoots the
  // deadline (`*expires` reports the clip — the wait ends the call).
  // Doubles the RTO, capped at the policy ceiling.
  uint64_t NextBackoffWait(const RetryPolicy& policy, Rng* jitter,
                           uint64_t now_nanos, bool* expires);
};

// Shared wait arithmetic for an explicitly supplied RTO (the adaptive
// path, where the estimator owns backoff): RTO plus up to 25%
// deterministic jitter, clipped at the deadline with `*expires` reporting
// the clip. Returns 0 with *expires=true when the deadline already passed.
uint64_t ClipRtoWait(uint64_t rto_nanos, uint64_t deadline_nanos,
                     Rng* jitter, uint64_t now_nanos, bool* expires);

// Reads the leading big-endian word of a datagram — the xid slot shared by
// SunRPC calls and replies. kDataLoss when the datagram is too short.
Result<uint32_t> PeekXid(ByteSpan datagram);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_RETRY_H_
