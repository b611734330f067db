// ServerDispatch — the server half of flexrpc's one call engine: a
// modeled worker pool behind bounded queues with an explicit shed policy.
//
// ConnectionMux (src/rpc/mux.h) puts one or many connections' requests on
// a channel; this loop is what stands between that channel and the
// handler. Per poll event it drains arrived frames and, for each one:
//
//   1. accept gate   — at most accept_limit frames admitted per poll;
//                      overflow is shed (dropped without reply, counted,
//                      recorded as kDispatchShed b=1). Models a bounded
//                      kernel accept/receive queue.
//   2. dedup probe   — the conn-aware AtMostOnceEndpoint is probed
//                      (FindCached) BEFORE admission control, so a
//                      retransmit of a completed call is answered from
//                      the reply cache at zero worker cost and can never
//                      be shed into a livelock with the client's RTO.
//   3. run-queue gate — executions whose start time still lies in the
//                      future form the run queue; when its depth reaches
//                      run_queue_limit the request is shed (kDispatchShed
//                      b=2) instead of executed. Shedding BEFORE
//                      execution preserves at-most-once: the xid never
//                      enters the executed set, so the client's
//                      retransmit executes it cleanly later.
//   4. execution     — the handler runs (at most once per (conn, xid)),
//                      the reply is assigned to the earliest-free worker
//                      of a pool of `workers` modeled CPUs, occupies it
//                      for RemoteServerModel::ProcessNanos(reply size),
//                      and is sent when the worker finishes. Until then
//                      it waits in a recycled reply buffer, so a warm
//                      dispatch allocates nothing for it.
//
// Dropped/shed requests are invisible to the client except as silence —
// exactly a UDP server under overload — and the mux's RTO machinery
// carries the retry. flexwatch samples the run-queue depth at every
// admission (the queue_depth sketch) and at every window close (the
// rpc.dispatch.queue_depth gauge); flexrec locates the saturation knee
// from queued-vs-exec phase attribution.
//
// The serial and pipelined shapes run against a one-worker dispatch with
// both limits at their maximum (ServerConnection below): nothing is ever
// shed, and executions serialize on a single busy-until horizon — one
// modeled CPU that replies when each execution finishes.

#ifndef FLEXRPC_SRC_RPC_DISPATCH_H_
#define FLEXRPC_SRC_RPC_DISPATCH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/link.h"
#include "src/rpc/mux.h"
#include "src/rpc/retry.h"
#include "src/support/event_queue.h"
#include "src/support/status.h"

namespace flexrpc {

struct DispatchPolicy {
  uint32_t workers = 4;           // modeled server CPUs
  size_t accept_limit = 128;      // frames admitted per poll event
  size_t run_queue_limit = 64;    // waiting-to-start executions
  size_t cache_capacity = 64;     // per-connection reply-cache entries
  RemoteServerModel::Config service;  // per-call/per-byte execution cost
};

class ServerDispatch {
 public:
  struct Stats {
    uint64_t accepted = 0;       // frames past the accept gate
    uint64_t executions = 0;     // handler runs (== dedup misses)
    uint64_t dup_replies = 0;    // answered from the reply cache
    uint64_t shed_accept = 0;    // shed at the accept gate
    uint64_t shed_run = 0;       // shed at the run-queue gate
    uint64_t max_queue_depth = 0;
    uint64_t busy_nanos = 0;     // summed worker occupancy
  };

  // `channel` and `events` must outlive the dispatch (and share the
  // clock with the mux on the other end).
  ServerDispatch(DatagramChannel* channel, DatagramHandler handler,
                 DispatchPolicy policy, EventQueue* events);

  // Arms the accept poll — the mux calls this (via its request_listener
  // hook) after every request transmission.
  void Poke();

  // Invoked after every reply send; the fleet wires it to
  // ConnectionMux::Poke so the client polls the arrival.
  void set_reply_listener(std::function<void()> fn) {
    reply_listener_ = std::move(fn);
  }

  const Stats& stats() const { return stats_; }
  AtMostOnceEndpoint& endpoint() { return endpoint_; }

  // Run-queue depth right now (pruned to the current clock) — the
  // flexwatch queue-depth gauge. Pruning only discards starts that have
  // already passed, so sampling never perturbs the simulation.
  uint64_t CurrentQueueDepth() {
    return QueueDepth(events_->clock()->now_nanos());
  }

 private:
  template <typename F>
  EventQueue::EventId Schedule(uint64_t at_nanos, F fn) {
    return ScheduleScoped(events_, at_nanos, std::move(fn));
  }
  void ArmAcceptPoll();
  void PumpRequests();
  // Sends the reply parked in reply_buffers_[buffer] and recycles it.
  void SendReply(uint32_t buffer);
  // Prunes executions that have started by `now` off the run queue and
  // returns its depth.
  uint64_t QueueDepth(uint64_t now);

  DatagramChannel* channel_;
  AtMostOnceEndpoint endpoint_;
  DispatchPolicy policy_;
  RemoteServerModel service_;
  EventQueue* events_;
  std::function<void()> reply_listener_;

  // Busy-until horizon per worker; assignment picks the earliest free.
  std::vector<uint64_t> worker_free_;
  // Start times of admitted executions not yet begun, in nondecreasing
  // order (the min worker horizon only moves forward), so pruning is a
  // pop from the front.
  std::deque<uint64_t> queued_starts_;
  // Replies waiting for their worker to finish. The send event carries a
  // buffer index, and a sent buffer keeps its capacity for the next reply.
  std::vector<std::vector<uint8_t>> reply_buffers_;
  std::vector<uint32_t> free_reply_buffers_;

  bool accept_poll_armed_ = false;
  uint64_t accept_poll_at_ = 0;
  EventQueue::EventId accept_poll_event_ = EventQueue::kInvalidEvent;

  Stats stats_;
};

// One connection to one single-worker server over its own channel: the
// 1×1 (serial) and 1×W (pipelined) shapes of the engine, and one binder
// replica. Owns the mux and the dispatch and wires them to wake each
// other. `channel`, `events` and everything `handler` reaches must
// outlive it.
class ServerConnection : public CallChannel {
 public:
  ServerConnection(DatagramChannel* channel, DatagramHandler handler,
                   MuxPolicy policy, EventQueue* events);

  void Submit(uint32_t xid, ByteSpan body, Completion done) override {
    mux_.Submit(conn_, xid, body, std::move(done));
  }
  Status Drive() override { return mux_.Drive(); }

  ConnectionMux& mux() { return mux_; }
  ServerDispatch& dispatch() { return dispatch_; }
  uint32_t conn() const { return conn_; }

 private:
  ConnectionMux mux_;
  ServerDispatch dispatch_;
  uint32_t conn_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_DISPATCH_H_
