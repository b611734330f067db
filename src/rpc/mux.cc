#include "src/rpc/mux.h"

#include <algorithm>
#include <utility>

#include "src/support/recorder.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr auto kAtoB = DatagramChannel::Dir::kAtoB;
constexpr auto kBtoA = DatagramChannel::Dir::kBtoA;
}  // namespace

Result<uint32_t> PeekMuxConn(ByteSpan datagram) {
  if (datagram.size() < kMuxPrefixBytes) {
    return DataLossError("datagram too short to carry a connection id");
  }
  ByteReader r(ByteSpan(datagram.data() + 4, 4));
  return r.ReadU32Be();
}

ConnectionMux::ConnectionMux(DatagramChannel* channel, MuxPolicy policy,
                             EventQueue* events)
    : channel_(channel), policy_(policy), events_(events),
      jitter_(policy.retry.jitter_seed) {
  if (policy_.per_conn_window == 0) {
    policy_.per_conn_window = 1;
  }
  channel_->set_scheduled_delivery(true);
  channel_->set_conn_tagging(true);
}

uint32_t ConnectionMux::OpenConnection() {
  const RetryPolicy& retry = policy_.retry;
  Conn& c = conns_.emplace_back(
      RttConfig{.initial_rto_nanos = retry.initial_rto_nanos,
                .min_rto_nanos = retry.adaptive.min_rto_nanos,
                .max_rto_nanos = retry.max_rto_nanos});
  c.in_flight.reserve(WindowFor(c));
  ++stats_.conns_opened;
  TraceAdd(TraceCounter::kRpcMuxConnsOpened);
  return static_cast<uint32_t>(conns_.size());
}

uint64_t ConnectionMux::total_window() const {
  uint64_t total = 0;
  for (const Conn& c : conns_) {
    total += WindowFor(c);
  }
  return total;
}

const RttEstimator* ConnectionMux::conn_rtt(uint32_t conn) const {
  return conn - 1 < conns_.size() ? &conns_[conn - 1].rtt : nullptr;
}

void ConnectionMux::Submit(uint32_t conn_id, ByteSpan body, Completion done) {
  Conn* c = FindConn(conn_id);
  if (c == nullptr) {
    done(InvalidArgumentError(
             StrFormat("submit on unopened connection %u", conn_id)),
         {});
    return;
  }
  Enqueue(*c, conn_id, c->next_xid++, body, std::move(done));
}

void ConnectionMux::Submit(uint32_t conn_id, uint32_t xid, ByteSpan body,
                           Completion done) {
  Conn* c = FindConn(conn_id);
  if (c == nullptr) {
    done(InvalidArgumentError(
             StrFormat("submit on unopened connection %u", conn_id)),
         {});
    return;
  }
  // A second call under an outstanding xid would alias the first one's
  // in-flight entry and lose a completion; refuse it instead.
  if (!caller_keys_.insert(Key(conn_id, xid)).second) {
    done(AlreadyExistsError(StrFormat(
             "conn %u xid %u is still outstanding", conn_id, xid)),
         {});
    return;
  }
  Enqueue(*c, conn_id, xid, body, std::move(done));
}

void ConnectionMux::Enqueue(Conn& c, uint32_t conn_id, uint32_t xid,
                            ByteSpan body, Completion done) {
  RecorderConnScope conn_scope(conn_id);
  ++stats_.calls;
  TraceAdd(TraceCounter::kRpcMuxCalls);
  ByteWriter w(kMuxPrefixBytes + body.size());  // one exact-size allocation
  w.WriteU32Be(xid);
  w.WriteU32Be(conn_id);
  w.WriteSpan(body);
  Call call;
  call.state.xid = xid;
  call.state.request = w.TakeBuffer();
  // The deadline starts at submission: time queued behind this
  // connection's window counts against it, like a kernel send queue.
  call.state.Arm(policy_.retry, events_->clock()->now_nanos());
  call.done = std::move(done);
  RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, xid,
              events_->clock()->now_nanos(),
              /*a=*/call.state.request.size());
  bool window_open = c.in_flight.size() < WindowFor(c);
  if (!window_open) {
    ++stats_.flow_stalls;
    TraceAdd(TraceCounter::kRpcMuxFlowStalls);
  }
  ++outstanding_;
  if (window_open && c.pending.empty()) {
    Start(c, conn_id, std::move(call));  // nothing queued ahead of it
    return;
  }
  c.pending.push_back(std::move(call));
  StartNext(c, conn_id);
}

bool ConnectionMux::Cancel(uint32_t conn_id, uint32_t xid) {
  Conn* c = FindConn(conn_id);
  if (c == nullptr) {
    return false;
  }
  if (Call* f = FindInFlight(*c, xid)) {
    if (f->rto_event != EventQueue::kInvalidEvent) {
      events_->Cancel(f->rto_event);
    }
    RemoveInFlight(*c, *f);
  } else {
    auto p = std::find_if(
        c->pending.begin(), c->pending.end(),
        [xid](const Call& call) { return call.state.xid == xid; });
    if (p == c->pending.end()) {
      return false;
    }
    c->pending.erase(p);
  }
  caller_keys_.erase(Key(conn_id, xid));
  --outstanding_;
  StartNext(*c, conn_id);  // a freed window slot admits the next queued call
  return true;
}

void ConnectionMux::Start(Conn& c, uint32_t conn_id, Call call) {
  Call& f = c.in_flight.emplace_back(std::move(call));
  ++in_flight_total_;
  stats_.max_in_flight =
      std::max<uint64_t>(stats_.max_in_flight, in_flight_total_);
  TransmitCall(c, conn_id, f);
}

void ConnectionMux::StartNext(Conn& c, uint32_t conn_id) {
  while (c.in_flight.size() < WindowFor(c) && !c.pending.empty()) {
    Call next = std::move(c.pending.front());
    c.pending.pop_front();
    Start(c, conn_id, std::move(next));
  }
}

void ConnectionMux::RemoveInFlight(Conn& c, Call& f) {
  if (&f != &c.in_flight.back()) {
    f = std::move(c.in_flight.back());
  }
  c.in_flight.pop_back();
  --in_flight_total_;
}

void ConnectionMux::TransmitCall(Conn& c, uint32_t conn_id, Call& f) {
  RecorderConnScope conn_scope(conn_id);
  ClientCallState& call = f.state;
  ++call.attempts;
  if (call.attempts > 1) {
    ++stats_.retransmits;
    TraceAdd(TraceCounter::kRpcMuxRetransmits);
    RecordEvent(RecEvent::kRetransmit, RecEndpoint::kClient, call.xid,
                events_->clock()->now_nanos(), /*a=*/call.attempts);
  }
  call.last_tx_nanos = events_->clock()->now_nanos();
  channel_->Send(kAtoB, ByteSpan(call.request.data(), call.request.size()));
  if (request_listener_) {
    request_listener_();
  }
  uint64_t now = events_->clock()->now_nanos();
  bool expires = false;
  uint64_t wait;
  if (policy_.retry.adaptive.enabled) {
    // This connection's estimator owns the RTO (and its Karn backoff —
    // see OnRto); samples never cross connections, so a slow peer cannot
    // inflate this one's timer.
    wait = ClipRtoWait(c.rtt.rto_nanos(), call.deadline_nanos, &jitter_,
                       now, &expires);
  } else {
    wait = call.NextBackoffWait(policy_.retry, &jitter_, now, &expires);
  }
  // When the wait was clipped the timer fires at the deadline and OnRto
  // fails the call; no special case needed here.
  uint32_t xid = call.xid;
  f.rto_event =
      Schedule(now + wait, [this, conn_id, xid]() { OnRto(conn_id, xid); });
}

void ConnectionMux::OnRto(uint32_t conn_id, uint32_t xid) {
  Conn& c = conns_[conn_id - 1];
  Call* f = FindInFlight(c, xid);
  if (f == nullptr) {
    return;  // completed after this timer was already popped
  }
  f->rto_event = EventQueue::kInvalidEvent;
  const ClientCallState& call = f->state;
  uint64_t now = events_->clock()->now_nanos();
  RecordEvent(RecEvent::kRtoFire, RecEndpoint::kClient, xid, now,
              /*a=*/call.attempts);
  if (rto_listener_) {
    rto_listener_();
  }
  if (policy_.retry.adaptive.enabled && !call.DeadlinePassed(now)) {
    // A genuine timeout on this connection: Karn-backoff its RTO until
    // the next clean sample, and signal its AIMD loss. OnLoss holds off
    // repeat decreases for one RTO, so a burst of timeouts from one
    // congestion episode halves this connection's window once.
    c.rtt.Backoff();
    if (c.cwnd.OnLoss(now, c.rtt.rto_nanos())) {
      ++stats_.cwnd_decreases;
      RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient, xid, now,
                  /*a=*/c.cwnd.window(), /*b=*/1);
    }
  }
  if (call.AttemptsExhausted(policy_.retry)) {
    Complete(c, conn_id, *f,
             UnavailableError(StrFormat(
                 "no reply for conn %u xid %u after %u attempts", conn_id,
                 xid, call.attempts)),
             {});
    return;
  }
  if (call.DeadlinePassed(now)) {
    Complete(c, conn_id, *f,
             DeadlineExceededError(StrFormat(
                 "deadline passed after %u attempts for conn %u xid %u",
                 call.attempts, conn_id, xid)),
             {});
    return;
  }
  TransmitCall(c, conn_id, *f);
}

void ConnectionMux::Poke() { ArmClientPoll(); }

void ConnectionMux::ArmClientPoll() {
  auto next = channel_->NextDeliveryNanos(kBtoA);
  if (!next) {
    return;
  }
  if (client_poll_armed_ && client_poll_at_ <= *next) {
    return;  // an earlier (or equal) wakeup already covers this frame
  }
  if (client_poll_armed_) {
    events_->Cancel(client_poll_event_);
  }
  client_poll_armed_ = true;
  client_poll_at_ = *next;
  client_poll_event_ = Schedule(*next, [this]() {
    client_poll_armed_ = false;
    DrainReplies();
  });
}

void ConnectionMux::DrainReplies() {
  while (channel_->HasPending(kBtoA)) {
    auto datagram = channel_->Receive(kBtoA);
    if (!datagram.ok()) {
      // A reply that fails its checksum names no (conn, xid): it is a
      // drop. It sends no loss signal — the owning call's RTO covers it.
      ++stats_.corrupt_replies;
      TraceAdd(TraceCounter::kRpcMuxCorruptReplies);
      continue;
    }
    ByteSpan reply_span(datagram->data(), datagram->size());
    auto xid = PeekXid(reply_span);
    auto conn = PeekMuxConn(reply_span);
    if (!xid.ok() || !conn.ok()) {
      ++stats_.stale_replies;  // too short to carry (conn, xid)
      TraceAdd(TraceCounter::kRpcMuxStaleReplies);
      continue;
    }
    RecorderConnScope conn_scope(*conn);
    uint64_t now = events_->clock()->now_nanos();
    Conn* c = FindConn(*conn);
    Call* f = c == nullptr ? nullptr : FindInFlight(*c, *xid);
    if (f == nullptr) {
      // A late duplicate of a call that already completed (or failed) on
      // this connection — or a reply whose conn half does not match any
      // open call, which the per-connection keying rejects here.
      ++stats_.stale_replies;
      TraceAdd(TraceCounter::kRpcMuxStaleReplies);
      RecordEvent(RecEvent::kReplyStale, RecEndpoint::kClient, *xid, now);
      continue;
    }
    if (f->state.DeadlinePassed(now)) {
      RecordEvent(RecEvent::kReplyLate, RecEndpoint::kClient, *xid, now);
      Complete(*c, *conn, *f,
               DeadlineExceededError(StrFormat(
                   "reply for conn %u xid %u arrived after the deadline",
                   *conn, *xid)),
               {});
      continue;
    }
    if (policy_.retry.adaptive.enabled) {
      if (f->state.attempts == 1) {
        // Karn's rule, per connection: only a reply to this connection's
        // never-retransmitted request is an unambiguous measurement of
        // *its* path.
        uint64_t sample = now - f->state.last_tx_nanos;
        c->rtt.Sample(sample);
        ++stats_.rtt_samples;
        RecordEvent(RecEvent::kRttSample, RecEndpoint::kClient, *xid, now,
                    /*a=*/sample, /*b=*/c->rtt.rto_nanos());
      } else {
        ++stats_.karn_skips;
        TraceAdd(TraceCounter::kRpcRttKarnSkips);
      }
      if (c->cwnd.OnAck()) {
        ++stats_.cwnd_increases;
        RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient, *xid, now,
                    /*a=*/c->cwnd.window(), /*b=*/0);
      }
    }
    RecordEvent(RecEvent::kReplyMatch, RecEndpoint::kClient, *xid, now,
                /*a=*/datagram->size());
    if (match_listener_) {
      match_listener_();
    }
    Complete(*c, *conn, *f, Status::Ok(), std::move(*datagram));
  }
  ArmClientPoll();  // more replies may still be in flight
}

void ConnectionMux::Complete(Conn& c, uint32_t conn_id, Call& f,
                             Status status, std::vector<uint8_t> reply) {
  RecorderConnScope conn_scope(conn_id);
  if (f.rto_event != EventQueue::kInvalidEvent) {
    events_->Cancel(f.rto_event);
  }
  if (status.ok()) {
    ++stats_.completed;
    // flexwatch: per-connection submit-to-complete latency (queued time
    // behind the window included, exactly like the deadline accounting).
    WatchObserve(WatchSeries::kCallLatency, conn_id,
                 events_->clock()->now_nanos() - f.state.submit_nanos);
  } else if (status.code() == StatusCode::kUnavailable) {
    ++stats_.unavailable_failures;
    TraceAdd(TraceCounter::kRpcMuxUnavailable);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_expiries;
    TraceAdd(TraceCounter::kRpcMuxDeadlineExpiries);
  }
  uint32_t xid = f.state.xid;
  RecordEvent(RecEvent::kCallComplete, RecEndpoint::kClient, xid,
              events_->clock()->now_nanos(),
              /*a=*/static_cast<uint64_t>(status.code()));
  Completion done = std::move(f.done);
  RemoveInFlight(c, f);
  if (!caller_keys_.empty()) {
    caller_keys_.erase(Key(conn_id, xid));
  }
  --outstanding_;
  StartNext(c, conn_id);  // the freed window slot admits the next queued call
  done(std::move(status), std::move(reply));
}

Status ConnectionMux::Drive() {
  while (outstanding_ > 0) {
    if (!events_->RunNext()) {
      return InternalError(StrFormat(
          "connection mux stalled: %zu calls outstanding, no events "
          "pending",
          outstanding_));
    }
  }
  return Status::Ok();
}

}  // namespace flexrpc
