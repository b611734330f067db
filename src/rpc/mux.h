// ConnectionMux — the client half of flexrpc's one call engine.
//
// Every remote call in the library goes through this engine and its server
// half, ServerDispatch (src/rpc/dispatch.h). Its shape is connections ×
// window: N logical connections over one DatagramChannel, each with its
// own xid namespace, its own flow-control window, and its own stream of
// interleaved calls.
//
//   serial     1×1  one connection, window 1 (stop-and-wait)
//   pipelined  1×W  one connection, window W
//   fleet      N×W  many connections over the server's one NIC
//
// A binder replica (src/rpc/binder.h) is one 1×W engine on its own
// channel. The demux key — on the wire and in every table — is the
// (connection-id, xid) pair; a bare xid means nothing fleet-wide.
//
// Wire format: every request and reply is
//
//   [xid u32 BE][conn u32 BE][body...]
//
// The xid stays the FIRST word — the SunRPC layout every layer below
// assumes, and what lets DatagramChannel attribute wire events without
// parsing — and the connection id rides in the second word. Replies come
// back with the same two-word prefix; completions hand the caller the
// full datagram, prefix included.
//
// Per call: a ClientCallState with an attempt budget, a per-call RTO timer
// with exponential backoff and deterministic jitter, and an absolute
// deadline armed at submission (time queued behind the window counts).
// Replies are drained from coalesced poll events armed on the channel's
// NextDeliveryNanos and matched by (conn, xid), so they may complete out
// of order. At most per_conn_window calls of one connection are in
// flight; the rest queue (counted as flow stalls, attributed as queued
// time).
//
// Tables: connections live in a dense vector indexed by id - 1 (ids are
// 1-based and never reused), and each connection keeps its in-flight
// calls — at most one window — in a small vector of its own, matched by
// xid with a linear scan. A call that finds its window open is sent
// without passing through the connection's queue. Once warm, such a call
// under the mux's own xid allocates only its framed request and its wire
// frame; the caller-xid Submit adds one hash-set node.
//
// When policy.retry.adaptive.enabled, every connection carries its own
// RttEstimator + AimdController: the estimator RTO replaces the fixed
// doubling schedule and the AIMD window replaces per_conn_window, keyed per
// connection so one slow connection's samples can never inflate another's
// RTO. A reply that fails its checksum carries no (conn, xid) identity, so
// it is a drop: it feeds no loss signal, and the owning call's RTO covers
// it. A reply too short to carry (xid, conn) counts as stale.
//
// The two halves share the channel and the EventQueue and wake each other
// through listener hooks (request_listener -> dispatch.Poke,
// reply_listener -> mux.Poke). Scheduled events reopen the recorder's
// connection and replica scopes captured when they were scheduled, so
// every record point downstream of a timer carries the right identity.

#ifndef FLEXRPC_SRC_RPC_MUX_H_
#define FLEXRPC_SRC_RPC_MUX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/net/datagram.h"
#include "src/rpc/retry.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"
#include "src/support/status.h"

namespace flexrpc {

// The call surface a closed-loop client drives: the caller picks each
// call's xid, and completions run during Drive. One connection of the
// engine (ServerConnection, src/rpc/dispatch.h) and a managed binding
// (BinderTransport, src/rpc/binder.h) both implement it.
class CallChannel {
 public:
  // Invoked exactly once per submitted call: on OK with the full reply
  // datagram ([xid][conn] prefix included), otherwise with an empty
  // vector and a terminal status.
  using Completion = std::function<void(Status, std::vector<uint8_t>)>;

  CallChannel() = default;
  CallChannel(const CallChannel&) = delete;  // callbacks hold `this`
  CallChannel& operator=(const CallChannel&) = delete;
  virtual ~CallChannel() = default;

  // Queues one call under `xid`. An xid that is still outstanding is
  // rejected: `done` runs once, right away, with kAlreadyExists.
  virtual void Submit(uint32_t xid, ByteSpan body, Completion done) = 0;

  // Runs the event queue until every submitted call completed. Non-OK
  // only when the simulation stalls with calls outstanding — a bug, not a
  // degradation.
  virtual Status Drive() = 0;
};

// Bytes of the [xid][conn] prefix in front of every request and reply.
inline constexpr size_t kMuxPrefixBytes = 8;

// Schedules `fn` on `events` at `at_nanos` so that it runs under the
// recorder's connection and replica scopes open now. Timer events fire
// with no ambient identity; this is how retransmits and reply sends
// downstream of timers record under the right connection (and, behind a
// binder, the right replica). The wrapper is one object of two 4-byte tags
// plus `fn`: 24 bytes around the engine's largest (16-byte) callbacks.
template <typename F>
EventQueue::EventId ScheduleScoped(EventQueue* events, uint64_t at_nanos,
                                   F fn) {
  uint32_t conn_tag = RecorderConnScope::Current();
  uint32_t replica_tag = RecorderReplicaScope::Current();
  return events->ScheduleAt(
      at_nanos, [conn_tag, replica_tag, fn = std::move(fn)]() mutable {
        RecorderConnScope conn_scope(conn_tag);
        RecorderReplicaScope replica_scope(replica_tag);
        fn();
      });
}

struct MuxPolicy {
  RetryPolicy retry;
  // Per-connection flow-control window: calls of one connection in flight
  // at once. Submissions beyond it queue on that connection (time spent
  // there counts against the deadline and shows up as queued phase).
  uint32_t per_conn_window = 4;
};

class ConnectionMux {
 public:
  using Completion = CallChannel::Completion;

  struct Stats {
    uint64_t conns_opened = 0;
    uint64_t calls = 0;
    uint64_t completed = 0;        // ok completions
    uint64_t retransmits = 0;
    uint64_t stale_replies = 0;    // matched no in-flight (conn, xid)
    uint64_t corrupt_replies = 0;
    uint64_t flow_stalls = 0;      // queued behind a full per-conn window
    uint64_t deadline_expiries = 0;
    uint64_t unavailable_failures = 0;
    uint64_t max_in_flight = 0;    // across all connections
    // Adaptive-mode accounting (all zero when adaptive is disabled).
    uint64_t rtt_samples = 0;      // clean per-connection RTT measurements
    uint64_t karn_skips = 0;       // retransmit-ambiguous replies skipped
    uint64_t cwnd_increases = 0;   // per-connection additive growth
    uint64_t cwnd_decreases = 0;   // per-connection halvings
  };

  // `channel` and `events` must outlive the mux (and share the clock).
  // Puts the channel into scheduled-delivery, conn-tagged mode.
  ConnectionMux(DatagramChannel* channel, MuxPolicy policy,
                EventQueue* events);

  // Opens a new connection and returns its id (1-based; ids never reuse).
  uint32_t OpenConnection();

  // Submits one call on `conn` (which must be open) under the
  // connection's next xid, and frames [xid][conn][body]. `done` fires
  // exactly once — with the full reply datagram on OK, or a terminal
  // kUnavailable / kDeadlineExceeded status.
  void Submit(uint32_t conn, ByteSpan body, Completion done);

  // The same, under a caller-chosen xid (the NFS read's SunRPC xid, or a
  // binder re-issue keeping its xid on a new replica). An xid still
  // outstanding on `conn` is rejected with kAlreadyExists. Do not mix
  // both Submit flavors on one connection.
  void Submit(uint32_t conn, uint32_t xid, ByteSpan body, Completion done);

  // Withdraws a submitted call without completing it: the RTO timer is
  // cancelled, the window slot freed, and `done` never invoked. A reply
  // already in flight for it arrives as a stale reply; a queued call is
  // never sent. Returns false when (conn, xid) is not outstanding.
  bool Cancel(uint32_t conn, uint32_t xid);

  // Arms the reply poll — the server side calls this (via its
  // reply_listener hook) after sending so the mux wakes when the frame
  // lands.
  void Poke();

  // Invoked after every request transmission; the fleet wires it to
  // ServerDispatch::Poke so the server polls the arrival. It must not call
  // back into this mux.
  void set_request_listener(std::function<void()> fn) {
    request_listener_ = std::move(fn);
  }

  // Health taps for a control plane above the engine (the binder): an
  // RTO fire is failure evidence, a matched reply success evidence. They
  // run synchronously inside the engine's event handling and must not
  // call back into this mux (defer through the EventQueue instead).
  void set_rto_listener(std::function<void()> fn) {
    rto_listener_ = std::move(fn);
  }
  void set_match_listener(std::function<void()> fn) {
    match_listener_ = std::move(fn);
  }

  // Runs the event queue until every submitted call completed. Errors if
  // the simulation stalls with calls outstanding.
  Status Drive();

  size_t outstanding() const { return outstanding_; }
  const Stats& stats() const { return stats_; }

  // Calls currently in flight across all connections — the flexwatch
  // in-flight gauge.
  size_t in_flight_calls() const { return in_flight_total_; }

  // Sum of every open connection's effective window (AIMD when adaptive,
  // the fixed per_conn_window otherwise) — the flexwatch cwnd gauge.
  uint64_t total_window() const;

  // The per-connection estimator, or nullptr for an unknown connection.
  // Meaningful when policy.retry.adaptive.enabled; tests assert one
  // connection's RTO is untouched by another's slow replies.
  const RttEstimator* conn_rtt(uint32_t conn) const;

 private:
  // One submitted call, queued or in flight.
  struct Call {
    ClientCallState state;
    Completion done;
    EventQueue::EventId rto_event = EventQueue::kInvalidEvent;
  };
  struct Conn {
    uint32_t next_xid = 1;          // per-connection namespace
    std::vector<Call> in_flight;    // at most one window, unordered
    std::deque<Call> pending;       // behind a full window, FIFO
    // Per-connection adaptive state; idle unless adaptive.enabled.
    RttEstimator rtt;
    AimdController cwnd;
    explicit Conn(const RttConfig& rtt_config) : rtt(rtt_config) {}
  };

  // Effective flow-control window for one connection.
  uint32_t WindowFor(const Conn& c) const {
    return policy_.retry.adaptive.enabled ? c.cwnd.window()
                                          : policy_.per_conn_window;
  }

  static uint64_t Key(uint32_t conn, uint32_t xid) {
    return (static_cast<uint64_t>(conn) << 32) | xid;
  }

  // nullptr for connection 0 and ids past the last one opened.
  Conn* FindConn(uint32_t conn_id) {
    return conn_id - 1 < conns_.size() ? &conns_[conn_id - 1] : nullptr;
  }
  static Call* FindInFlight(Conn& c, uint32_t xid) {
    for (Call& f : c.in_flight) {
      if (f.state.xid == xid) {
        return &f;
      }
    }
    return nullptr;
  }

  template <typename F>
  EventQueue::EventId Schedule(uint64_t at_nanos, F fn) {
    return ScheduleScoped(events_, at_nanos, std::move(fn));
  }
  void Enqueue(Conn& c, uint32_t conn_id, uint32_t xid, ByteSpan body,
               Completion done);
  void Start(Conn& c, uint32_t conn_id, Call call);
  void StartNext(Conn& c, uint32_t conn_id);
  void TransmitCall(Conn& c, uint32_t conn_id, Call& f);
  void OnRto(uint32_t conn_id, uint32_t xid);
  void ArmClientPoll();
  void DrainReplies();
  // Removes `f` from its connection's window, admits the next queued
  // call, then runs `f`'s completion.
  void Complete(Conn& c, uint32_t conn_id, Call& f, Status status,
                std::vector<uint8_t> reply);
  void RemoveInFlight(Conn& c, Call& f);

  DatagramChannel* channel_;
  MuxPolicy policy_;
  EventQueue* events_;
  Rng jitter_;
  std::function<void()> request_listener_;
  std::function<void()> rto_listener_;
  std::function<void()> match_listener_;

  std::vector<Conn> conns_;  // connection id - 1
  size_t in_flight_total_ = 0;
  // Outstanding caller-chosen (conn, xid) keys, queued or in flight. The
  // allocating Submit never touches it.
  std::unordered_set<uint64_t> caller_keys_;
  size_t outstanding_ = 0;  // submitted, not yet completed

  bool client_poll_armed_ = false;
  uint64_t client_poll_at_ = 0;
  EventQueue::EventId client_poll_event_ = EventQueue::kInvalidEvent;

  Stats stats_;
};

// Reads the second big-endian word of a mux-framed datagram — the
// connection id slot. kDataLoss when the datagram is too short.
Result<uint32_t> PeekMuxConn(ByteSpan datagram);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_MUX_H_
