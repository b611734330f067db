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
  uint32_t conn = next_conn_++;
  conns_.emplace(conn, Conn(policy_.retry.adaptive.rtt,
                            policy_.retry.adaptive.window));
  ++stats_.conns_opened;
  TraceAdd(TraceCounter::kRpcMuxConnsOpened);
  return conn;
}

uint64_t ConnectionMux::total_window() const {
  uint64_t total = 0;
  for (const auto& [id, c] : conns_) {
    total += WindowFor(c);
  }
  return total;
}

const RttEstimator* ConnectionMux::conn_rtt(uint32_t conn) const {
  auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second.rtt;
}

EventQueue::EventId ConnectionMux::Schedule(uint64_t at_nanos,
                                            std::function<void()> fn) {
  // Timer events fire with no ambient identity; capture the connection
  // and replica scopes active at scheduling time and reopen them inside
  // the event, so retransmits and reply sends downstream of timers record
  // under the right connection (and, behind a binder, the right replica).
  uint32_t conn_tag = RecorderConnScope::Current();
  uint32_t replica_tag = RecorderReplicaScope::Current();
  return events_->ScheduleAt(at_nanos, [this, conn_tag, replica_tag,
                                        fn = std::move(fn)]() {
    RecorderConnScope conn_scope(conn_tag);
    RecorderReplicaScope replica_scope(replica_tag);
    ++stats_.events;
    fn();
  });
}

void ConnectionMux::Submit(uint32_t conn_id, ByteSpan body, Completion done) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    done(InvalidArgumentError(
             StrFormat("submit on unopened connection %u", conn_id)),
         {});
    return;
  }
  Enqueue(it->second, conn_id, it->second.next_xid++, body,
          std::move(done));
}

void ConnectionMux::Submit(uint32_t conn_id, uint32_t xid, ByteSpan body,
                           Completion done) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
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
  Enqueue(it->second, conn_id, xid, body, std::move(done));
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
  PendingCall pending;
  pending.call.xid = xid;
  pending.call.request = w.TakeBuffer();
  // The deadline starts at submission: time queued behind this
  // connection's window counts against it, like a kernel send queue.
  pending.call.Arm(policy_.retry, events_->clock()->now_nanos());
  pending.done = std::move(done);
  RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, xid,
              events_->clock()->now_nanos(),
              /*a=*/pending.call.request.size());
  if (c.in_flight >= WindowFor(c)) {
    ++stats_.flow_stalls;
    TraceAdd(TraceCounter::kRpcMuxFlowStalls);
  }
  ++outstanding_;
  c.pending.push_back(std::move(pending));
  StartNext(conn_id);
}

bool ConnectionMux::Cancel(uint32_t conn_id, uint32_t xid) {
  uint64_t key = Key(conn_id, xid);
  auto conn_it = conns_.find(conn_id);
  if (conn_it == conns_.end()) {
    return false;
  }
  Conn& c = conn_it->second;
  auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    if (it->second.rto_event != EventQueue::kInvalidEvent) {
      events_->Cancel(it->second.rto_event);
    }
    in_flight_.erase(it);
    --c.in_flight;
  } else {
    auto p = std::find_if(
        c.pending.begin(), c.pending.end(),
        [xid](const PendingCall& call) { return call.call.xid == xid; });
    if (p == c.pending.end()) {
      return false;
    }
    c.pending.erase(p);
  }
  caller_keys_.erase(key);
  --outstanding_;
  StartNext(conn_id);  // a freed window slot admits the next queued call
  return true;
}

void ConnectionMux::StartNext(uint32_t conn_id) {
  auto conn_it = conns_.find(conn_id);
  if (conn_it == conns_.end()) {
    return;
  }
  Conn& c = conn_it->second;
  while (c.in_flight < WindowFor(c) && !c.pending.empty()) {
    PendingCall next = std::move(c.pending.front());
    c.pending.pop_front();
    uint64_t key = Key(conn_id, next.call.xid);
    InFlight& f = in_flight_[key];
    f.conn = conn_id;
    f.call = std::move(next.call);
    f.done = std::move(next.done);
    ++c.in_flight;
    stats_.max_in_flight =
        std::max<uint64_t>(stats_.max_in_flight, in_flight_.size());
    TransmitCall(f);
  }
}

void ConnectionMux::TransmitCall(InFlight& f) {
  RecorderConnScope conn_scope(f.conn);
  ++f.call.attempts;
  if (f.call.attempts > 1) {
    ++stats_.retransmits;
    TraceAdd(TraceCounter::kRpcMuxRetransmits);
    RecordEvent(RecEvent::kRetransmit, RecEndpoint::kClient, f.call.xid,
                events_->clock()->now_nanos(), /*a=*/f.call.attempts);
  }
  f.call.last_tx_nanos = events_->clock()->now_nanos();
  channel_->Send(kAtoB,
                 ByteSpan(f.call.request.data(), f.call.request.size()));
  if (request_listener_) {
    request_listener_();
  }
  uint64_t now = events_->clock()->now_nanos();
  bool expires = false;
  uint64_t wait;
  auto conn_it = conns_.find(f.conn);
  if (policy_.retry.adaptive.enabled && conn_it != conns_.end()) {
    // This connection's estimator owns the RTO (and its Karn backoff —
    // see OnRto); samples never cross connections, so a slow peer cannot
    // inflate this one's timer.
    wait = ClipRtoWait(conn_it->second.rtt.rto_nanos(),
                       f.call.deadline_nanos, &jitter_, now, &expires);
  } else {
    wait = f.call.NextBackoffWait(policy_.retry, &jitter_, now, &expires);
  }
  // When the wait was clipped the timer fires at the deadline and OnRto
  // fails the call; no special case needed here.
  uint64_t key = Key(f.conn, f.call.xid);
  f.rto_event = Schedule(now + wait, [this, key]() { OnRto(key); });
}

void ConnectionMux::OnRto(uint64_t key) {
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    return;  // completed after this timer was already popped
  }
  InFlight& f = it->second;
  f.rto_event = EventQueue::kInvalidEvent;
  uint64_t now = events_->clock()->now_nanos();
  RecordEvent(RecEvent::kRtoFire, RecEndpoint::kClient, f.call.xid, now,
              /*a=*/f.call.attempts);
  if (rto_listener_) {
    rto_listener_();
  }
  auto conn_it = conns_.find(f.conn);
  if (policy_.retry.adaptive.enabled && conn_it != conns_.end() &&
      !f.call.DeadlinePassed(now)) {
    // A genuine timeout on this connection: Karn-backoff its RTO until
    // the next clean sample, and signal its AIMD loss. OnLoss holds off
    // repeat decreases for one RTO, so a burst of timeouts from one
    // congestion episode halves this connection's window once.
    Conn& c = conn_it->second;
    c.rtt.Backoff();
    if (c.cwnd.OnLoss(now, c.rtt.rto_nanos())) {
      ++stats_.cwnd_decreases;
      RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient, f.call.xid,
                  now, /*a=*/c.cwnd.window(), /*b=*/1);
    }
  }
  if (f.call.AttemptsExhausted(policy_.retry)) {
    Complete(key, UnavailableError(StrFormat(
                      "no reply for conn %u xid %u after %u attempts",
                      f.conn, f.call.xid, f.call.attempts)),
             {});
    return;
  }
  if (f.call.DeadlinePassed(now)) {
    Complete(key, DeadlineExceededError(StrFormat(
                      "deadline passed after %u attempts for conn %u xid %u",
                      f.call.attempts, f.conn, f.call.xid)),
             {});
    return;
  }
  TransmitCall(f);
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
    uint64_t key = Key(*conn, *xid);
    auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      // A late duplicate of a call that already completed (or failed) on
      // this connection — or a reply whose conn half does not match any
      // open call, which the per-connection keying rejects here.
      ++stats_.stale_replies;
      TraceAdd(TraceCounter::kRpcMuxStaleReplies);
      RecordEvent(RecEvent::kReplyStale, RecEndpoint::kClient, *xid, now);
      continue;
    }
    if (it->second.call.DeadlinePassed(now)) {
      RecordEvent(RecEvent::kReplyLate, RecEndpoint::kClient, *xid, now);
      Complete(key, DeadlineExceededError(StrFormat(
                        "reply for conn %u xid %u arrived after the "
                        "deadline",
                        *conn, *xid)),
               {});
      continue;
    }
    if (policy_.retry.adaptive.enabled) {
      auto conn_state = conns_.find(*conn);
      if (conn_state != conns_.end()) {
        Conn& c = conn_state->second;
        if (it->second.call.attempts == 1) {
          // Karn's rule, per connection: only a reply to this
          // connection's never-retransmitted request is an unambiguous
          // measurement of *its* path.
          uint64_t sample = now - it->second.call.last_tx_nanos;
          c.rtt.Sample(sample);
          ++stats_.rtt_samples;
          RecordEvent(RecEvent::kRttSample, RecEndpoint::kClient, *xid,
                      now, /*a=*/sample, /*b=*/c.rtt.rto_nanos());
        } else {
          ++stats_.karn_skips;
          TraceAdd(TraceCounter::kRpcRttKarnSkips);
        }
        if (c.cwnd.OnAck()) {
          ++stats_.cwnd_increases;
          RecordEvent(RecEvent::kCwndChange, RecEndpoint::kClient, *xid,
                      now, /*a=*/c.cwnd.window(), /*b=*/0);
        }
      }
    }
    RecordEvent(RecEvent::kReplyMatch, RecEndpoint::kClient, *xid, now,
                /*a=*/datagram->size());
    if (match_listener_) {
      match_listener_();
    }
    Complete(key, Status::Ok(), std::move(*datagram));
  }
  ArmClientPoll();  // more replies may still be in flight
}

void ConnectionMux::Complete(uint64_t key, Status status,
                             std::vector<uint8_t> reply) {
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    return;
  }
  InFlight& f = it->second;
  RecorderConnScope conn_scope(f.conn);
  if (f.rto_event != EventQueue::kInvalidEvent) {
    events_->Cancel(f.rto_event);
  }
  if (status.ok()) {
    ++stats_.completed;
    // flexwatch: per-connection submit-to-complete latency (queued time
    // behind the window included, exactly like the deadline accounting).
    WatchObserve(WatchSeries::kCallLatency, f.conn,
                 events_->clock()->now_nanos() - f.call.submit_nanos);
  } else if (status.code() == StatusCode::kUnavailable) {
    ++stats_.unavailable_failures;
    TraceAdd(TraceCounter::kRpcMuxUnavailable);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_expiries;
    TraceAdd(TraceCounter::kRpcMuxDeadlineExpiries);
  }
  RecordEvent(RecEvent::kCallComplete, RecEndpoint::kClient, f.call.xid,
              events_->clock()->now_nanos(),
              /*a=*/static_cast<uint64_t>(status.code()));
  uint32_t conn_id = f.conn;
  Completion done = std::move(f.done);
  in_flight_.erase(it);
  if (!caller_keys_.empty()) {
    caller_keys_.erase(key);
  }
  auto conn_it = conns_.find(conn_id);
  if (conn_it != conns_.end() && conn_it->second.in_flight > 0) {
    --conn_it->second.in_flight;
  }
  --outstanding_;
  StartNext(conn_id);  // the freed window slot admits the next queued call
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
