#include "src/rpc/dispatch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/support/recorder.h"
#include "src/support/timeline.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr auto kAtoB = DatagramChannel::Dir::kAtoB;
constexpr auto kBtoA = DatagramChannel::Dir::kBtoA;

// One worker at the default service cost, nothing shed, the reply cache
// at the endpoint's default size: the server of every serial and
// pipelined shape.
DispatchPolicy OneWorkerPolicy() {
  DispatchPolicy policy;
  policy.workers = 1;
  policy.accept_limit = std::numeric_limits<size_t>::max();
  policy.run_queue_limit = std::numeric_limits<size_t>::max();
  policy.cache_capacity = 256;
  return policy;
}
}  // namespace

ServerDispatch::ServerDispatch(DatagramChannel* channel,
                               DatagramHandler handler,
                               DispatchPolicy policy, EventQueue* events)
    : channel_(channel),
      endpoint_(std::move(handler), policy.cache_capacity),
      policy_(policy), service_(policy.service), events_(events) {
  if (policy_.workers == 0) {
    policy_.workers = 1;
  }
  worker_free_.assign(policy_.workers, 0);
  channel_->set_scheduled_delivery(true);
  channel_->set_conn_tagging(true);
}

void ServerDispatch::Poke() { ArmAcceptPoll(); }

void ServerDispatch::ArmAcceptPoll() {
  auto next = channel_->NextDeliveryNanos(kAtoB);
  if (!next) {
    return;
  }
  if (accept_poll_armed_ && accept_poll_at_ <= *next) {
    return;  // an earlier (or equal) wakeup already covers this frame
  }
  if (accept_poll_armed_) {
    events_->Cancel(accept_poll_event_);
  }
  accept_poll_armed_ = true;
  accept_poll_at_ = *next;
  accept_poll_event_ = Schedule(*next, [this]() {
    accept_poll_armed_ = false;
    PumpRequests();
  });
}

uint64_t ServerDispatch::QueueDepth(uint64_t now) {
  while (!queued_starts_.empty() && queued_starts_.front() <= now) {
    queued_starts_.pop_front();
  }
  return queued_starts_.size();
}

void ServerDispatch::PumpRequests() {
  size_t admitted = 0;
  while (channel_->HasPending(kAtoB)) {
    auto request = channel_->Receive(kAtoB);
    if (!request.ok()) {
      continue;  // checksum discard — the sender's RTO covers it
    }
    ByteSpan request_span(request->data(), request->size());
    auto xid = PeekXid(request_span);
    auto conn = PeekMuxConn(request_span);
    if (!xid.ok() || !conn.ok()) {
      continue;  // too short for [xid][conn]; nothing to reply to
    }
    RecorderConnScope conn_scope(*conn);
    uint64_t now = events_->clock()->now_nanos();
    if (++admitted > policy_.accept_limit) {
      ++stats_.shed_accept;
      TraceAdd(TraceCounter::kRpcDispatchShed);
      RecordEvent(RecEvent::kDispatchShed, RecEndpoint::kServer, *xid, now,
                  /*a=*/QueueDepth(now), /*b=*/1);
      continue;
    }
    ++stats_.accepted;
    TraceAdd(TraceCounter::kRpcDispatchAccepts);
    // Dedup probe before admission control: a duplicate of a completed
    // call is answered from the cache at zero worker cost and is never
    // shed (shedding a retransmit the server already paid for would turn
    // overload into a retransmit storm).
    if (const std::vector<uint8_t>* cached =
            endpoint_.FindCached(*conn, *xid)) {
      ++stats_.dup_replies;
      channel_->Send(kBtoA, ByteSpan(cached->data(), cached->size()));
      if (reply_listener_) {
        reply_listener_();
      }
      continue;
    }
    uint64_t depth = QueueDepth(now);
    if (depth >= policy_.run_queue_limit) {
      // Shed BEFORE execution: the xid never enters the executed set, so
      // the client's retransmit can execute it cleanly later.
      ++stats_.shed_run;
      TraceAdd(TraceCounter::kRpcDispatchShed);
      RecordEvent(RecEvent::kDispatchShed, RecEndpoint::kServer, *xid, now,
                  /*a=*/depth, /*b=*/2);
      continue;
    }
    auto handled = endpoint_.Handle(*conn, request_span);
    if (!handled.ok()) {
      continue;  // unparseable or rejected: nothing to send back
    }
    WatchObserve(WatchSeries::kQueueDepth, 0, depth);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
    ++stats_.executions;
    TraceAdd(TraceCounter::kRpcDispatchExecutions);
    // Earliest-free worker takes the call; its CPU span may lie in the
    // clock's future (the recorder takes explicit timestamps for this).
    size_t w = 0;
    for (size_t i = 1; i < worker_free_.size(); ++i) {
      if (worker_free_[i] < worker_free_[w]) {
        w = i;
      }
    }
    uint64_t start = std::max(now, worker_free_[w]);
    uint64_t finish = start + service_.ProcessNanos(handled->reply->size());
    worker_free_[w] = finish;
    stats_.busy_nanos += finish - start;
    WatchObserve(WatchSeries::kWorkerExec, static_cast<uint32_t>(w + 1),
                 finish - start);
    if (start > now) {
      queued_starts_.push_back(start);
    }
    RecordEvent(RecEvent::kServerExecBegin, RecEndpoint::kServer, *xid,
                start, /*a=*/handled->reply->size(), /*b=*/w + 1);
    RecordEvent(RecEvent::kServerExecEnd, RecEndpoint::kServer, *xid,
                finish, /*a=*/handled->reply->size(), /*b=*/w + 1);
    // Park a copy: the cache entry may be evicted before `finish`.
    uint32_t buffer;
    if (free_reply_buffers_.empty()) {
      buffer = static_cast<uint32_t>(reply_buffers_.size());
      reply_buffers_.emplace_back();
    } else {
      buffer = free_reply_buffers_.back();
      free_reply_buffers_.pop_back();
    }
    reply_buffers_[buffer].assign(handled->reply->begin(),
                                  handled->reply->end());
    Schedule(finish, [this, buffer]() { SendReply(buffer); });
  }
  ArmAcceptPoll();  // more requests may still be in flight
}

void ServerDispatch::SendReply(uint32_t buffer) {
  const std::vector<uint8_t>& reply = reply_buffers_[buffer];
  channel_->Send(kBtoA, ByteSpan(reply.data(), reply.size()));
  free_reply_buffers_.push_back(buffer);
  if (reply_listener_) {
    reply_listener_();
  }
}

ServerConnection::ServerConnection(DatagramChannel* channel,
                                   DatagramHandler handler,
                                   MuxPolicy policy, EventQueue* events)
    : mux_(channel, policy, events),
      dispatch_(channel, std::move(handler), OneWorkerPolicy(), events),
      conn_(mux_.OpenConnection()) {
  mux_.set_request_listener([this]() { dispatch_.Poke(); });
  dispatch_.set_reply_listener([this]() { mux_.Poke(); });
}

}  // namespace flexrpc
