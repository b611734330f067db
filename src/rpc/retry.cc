#include "src/rpc/retry.h"

#include <algorithm>

#include "src/support/trace.h"

namespace flexrpc {

const std::vector<uint8_t>* ReplyCache::Find(uint32_t xid) {
  auto it = entries_.find(xid);
  if (it == entries_.end()) {
    return nullptr;
  }
  // Refresh: a looked-up xid is being retransmitted right now and must not
  // be the next eviction victim.
  order_.splice(order_.end(), order_, it->second.slot);
  return &it->second.reply;
}

const std::vector<uint8_t>* ReplyCache::Insert(uint32_t xid,
                                               std::vector<uint8_t> reply) {
  auto it = entries_.find(xid);
  if (it != entries_.end()) {
    // Overwrite refreshes the LRU slot too — a re-inserted xid is as live
    // as a freshly inserted one.
    it->second.reply = std::move(reply);
    order_.splice(order_.end(), order_, it->second.slot);
    return &it->second.reply;
  }
  if (entries_.size() >= capacity_ && !order_.empty()) {
    entries_.erase(order_.front());
    order_.pop_front();
    ++evictions_;
    TraceAdd(TraceCounter::kRpcDupCacheEvictions);
  }
  order_.push_back(xid);
  auto inserted =
      entries_.emplace(xid, Entry{std::move(reply), std::prev(order_.end())});
  return &inserted.first->second.reply;
}

Result<uint32_t> PeekXid(ByteSpan datagram) {
  if (datagram.size() < 4) {
    return DataLossError("datagram too short to carry an xid");
  }
  return (static_cast<uint32_t>(datagram[0]) << 24) |
         (static_cast<uint32_t>(datagram[1]) << 16) |
         (static_cast<uint32_t>(datagram[2]) << 8) |
         static_cast<uint32_t>(datagram[3]);
}

bool AtMostOnceEndpoint::ConnState::AlreadyExecuted(uint32_t xid) const {
  if (xid == 0) {
    return executed_zero;
  }
  return xid <= executed_upto || executed_above.count(xid) > 0;
}

void AtMostOnceEndpoint::ConnState::MarkExecuted(uint32_t xid) {
  if (xid == 0) {
    executed_zero = true;
    return;
  }
  if (xid <= executed_upto) {
    return;
  }
  if (xid == executed_upto + 1) {
    executed_upto = xid;
    // Close the gap: out-of-order executions become contiguous.
    auto it = executed_above.begin();
    while (it != executed_above.end() && *it == executed_upto + 1) {
      executed_upto = *it;
      it = executed_above.erase(it);
    }
    return;
  }
  executed_above.insert(xid);
}

AtMostOnceEndpoint::ConnState& AtMostOnceEndpoint::StateFor(uint32_t conn) {
  return conns_.try_emplace(conn, cache_capacity_).first->second;
}

ReplyCache& AtMostOnceEndpoint::CacheFor(uint32_t conn) {
  return StateFor(conn).cache;
}

uint64_t AtMostOnceEndpoint::evictions() const {
  uint64_t total = 0;
  for (const auto& [conn, state] : conns_) {
    total += state.cache.evictions();
  }
  return total;
}

const std::vector<uint8_t>* AtMostOnceEndpoint::FindCached(uint32_t conn,
                                                           uint32_t xid) {
  const std::vector<uint8_t>* cached = StateFor(conn).cache.Find(xid);
  if (cached != nullptr) {
    ++hits_;
    TraceAdd(TraceCounter::kRpcDupCacheHits);
  }
  return cached;
}

Result<AtMostOnceEndpoint::Handled> AtMostOnceEndpoint::Handle(
    uint32_t conn, ByteSpan request) {
  auto xid = PeekXid(request);
  if (!xid.ok()) {
    return xid.status();  // unparseable datagram: nothing to reply to
  }
  ConnState& state = StateFor(conn);
  if (const std::vector<uint8_t>* cached = state.cache.Find(*xid)) {
    // Duplicate request: hand back the cached reply, do NOT re-execute.
    ++hits_;
    TraceAdd(TraceCounter::kRpcDupCacheHits);
    return Handled{*xid, true, cached};
  }
  std::vector<uint8_t> reply;
  Status st = handler_(request, &reply);
  if (!st.ok()) {
    return st;  // malformed request body: drop, as a real server would
  }
  if (state.AlreadyExecuted(*xid)) {
    // The cache missed on an xid this connection has executed before: LRU
    // churn evicted the entry while the client was still retransmitting,
    // and the handler just ran a second time. At-most-once is broken —
    // count it loudly so the soak tests can gate it at zero.
    ++evicted_reexecs_;
    TraceAdd(TraceCounter::kRpcDupCacheEvictedReexecs);
  }
  state.MarkExecuted(*xid);
  ++misses_;
  TraceAdd(TraceCounter::kRpcDupCacheMisses);
  return Handled{*xid, false, state.cache.Insert(*xid, std::move(reply))};
}

uint64_t ClipRtoWait(uint64_t rto_nanos, uint64_t deadline_nanos,
                     Rng* jitter, uint64_t now_nanos, bool* expires) {
  if (now_nanos >= deadline_nanos) {
    *expires = true;
    return 0;
  }
  uint64_t wait = rto_nanos + jitter->NextBelow(rto_nanos / 4 + 1);
  *expires = now_nanos + wait >= deadline_nanos;
  if (*expires) {
    wait = deadline_nanos - now_nanos;
  }
  return wait;
}

uint64_t ClientCallState::NextBackoffWait(const RetryPolicy& policy,
                                          Rng* jitter, uint64_t now_nanos,
                                          bool* expires) {
  uint64_t wait =
      ClipRtoWait(rto_nanos, deadline_nanos, jitter, now_nanos, expires);
  rto_nanos = std::min(rto_nanos * 2, policy.max_rto_nanos);
  return wait;
}

}  // namespace flexrpc
