#include "src/rpc/binder.h"

#include <algorithm>
#include <utility>

#include "src/support/recorder.h"
#include "src/support/strings.h"
#include "src/support/timeline.h"
#include "src/support/trace.h"

namespace flexrpc {

ReplicaGroup::ReplicaGroup(std::vector<ReplicaSpec> specs, MuxPolicy policy,
                           EventQueue* events)
    : events_(events) {
  replicas_.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    MuxPolicy p = policy;
    p.retry.jitter_seed += i;  // decorrelate retransmit jitter per replica
    replicas_.push_back(std::make_unique<ServerConnection>(
        specs[i].channel, std::move(specs[i].handler), p, events));
  }
}

BinderTransport::BinderTransport(ReplicaGroup* group, BinderPolicy policy)
    : group_(group), policy_(std::move(policy)), events_(group->events()) {
  size_t n = group_->size();
  trackers_.assign(n, FailoverTracker(policy_.failover));
  probe_outstanding_.assign(n, false);
  probe_xid_.assign(n, 0);
  probe_event_.assign(n, EventQueue::kInvalidEvent);
  stats_.per_replica_calls.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    ConnectionMux& mux = group_->replica(i)->mux();
    mux.set_rto_listener([this, i]() { OnReplicaFailure(i); });
    mux.set_match_listener([this, i]() { OnReplicaSuccess(i); });
  }
}

BinderTransport::~BinderTransport() {
  // Nothing queued on the engines or the event queue may call back into
  // a dead binder: unhook the taps and withdraw every timer and call.
  events_->Cancel(cutover_event_);
  for (size_t i = 0; i < group_->size(); ++i) {
    ConnectionMux& mux = group_->replica(i)->mux();
    mux.set_rto_listener(nullptr);
    mux.set_match_listener(nullptr);
    events_->Cancel(probe_event_[i]);
    if (probe_outstanding_[i]) {
      CancelOnReplica(probe_xid_[i], i);
    }
  }
  for (const auto& [xid, call] : calls_) {
    CancelOnReplica(xid, call.replica);
  }
}

uint64_t BinderTransport::Now() { return events_->clock()->now_nanos(); }

size_t BinderTransport::PickReplica() {
  size_t n = group_->size();
  // Primary-backup: the primary takes everything while healthy; otherwise
  // the lowest-indexed healthy replica stands in (Cutover makes that
  // stand-in official for in-flight calls too).
  if (trackers_[primary_].healthy()) {
    return primary_;
  }
  for (size_t i = 0; i < n; ++i) {
    if (trackers_[i].healthy()) {
      return i;
    }
  }
  return primary_;
}

void BinderTransport::Submit(uint32_t xid, ByteSpan request,
                             Completion done) {
  if (calls_.count(xid) != 0) {
    done(AlreadyExistsError(
             StrFormat("xid %u is still bound to a replica", xid)),
         {});
    return;
  }
  ++stats_.calls;
  TraceAdd(TraceCounter::kRpcBinderCalls);
  BoundCall call;
  call.request.assign(request.begin(), request.end());
  call.done = std::move(done);
  calls_.emplace(xid, std::move(call));
  SubmitToReplica(xid, PickReplica());
}

void BinderTransport::SubmitToReplica(uint32_t xid, size_t replica) {
  BoundCall& call = calls_.at(xid);
  call.replica = replica;
  call.issued_nanos = Now();
  ++stats_.per_replica_calls[replica];
  RecorderReplicaScope scope(ReplicaGroup::Tag(replica));
  // The replica may complete the call synchronously (a rejection), which
  // erases `call`: nothing below may touch it.
  group_->replica(replica)->Submit(
      xid, ByteSpan(call.request.data(), call.request.size()),
      [this, xid, replica](Status status, std::vector<uint8_t> reply) {
        OnInnerComplete(xid, replica, std::move(status), std::move(reply));
      });
}

void BinderTransport::CancelOnReplica(uint32_t xid, size_t replica) {
  ServerConnection* engine = group_->replica(replica);
  RecorderReplicaScope scope(ReplicaGroup::Tag(replica));
  engine->mux().Cancel(engine->conn(), xid);
}

void BinderTransport::OnInnerComplete(uint32_t xid, size_t replica,
                                      Status status,
                                      std::vector<uint8_t> reply) {
  auto it = calls_.find(xid);
  if (it == calls_.end() || it->second.replica != replica) {
    return;  // completion from a binding this call has already left
  }
  if (status.ok()) {
    // flexwatch: time the replica took to answer this (re)issue, tagged
    // with the replica so a timeline attributes slow windows to it.
    WatchObserve(WatchSeries::kReplicaLatency, ReplicaGroup::Tag(replica),
                 Now() - it->second.issued_nanos);
    Finish(xid, std::move(status), std::move(reply));
    return;
  }
  // The engine gave up (attempts exhausted or deadline). The per-RTO
  // evidence already drove the health machine; here the only question is
  // whether the *call* still has budget to try another replica. Note the
  // re-issue re-arms the attempt budget and deadline on the new replica —
  // reissue_budget is what bounds the total. A rejection (the xid is
  // still outstanding there) is the caller's error and passes straight on.
  BoundCall& call = it->second;
  if (status.code() != StatusCode::kAlreadyExists &&
      call.reissues < policy_.reissue_budget) {
    size_t target = PickReplica();
    if (target != replica || !trackers_[replica].healthy()) {
      ++call.reissues;
      ++stats_.reissues;
      TraceAdd(TraceCounter::kRpcBinderReissues);
      uint64_t now = Now();
      RecorderReplicaScope scope(ReplicaGroup::Tag(target));
      RecordEvent(RecEvent::kRebind, RecEndpoint::kClient, xid, now,
                  /*a=*/ReplicaGroup::Tag(target),
                  /*b=*/ReplicaGroup::Tag(replica));
      SubmitToReplica(xid, target);
      return;
    }
  }
  Finish(xid, std::move(status), std::move(reply));
}

void BinderTransport::Finish(uint32_t xid, Status status,
                             std::vector<uint8_t> reply) {
  auto it = calls_.find(xid);
  Completion done = std::move(it->second.done);
  calls_.erase(it);
  if (!status.ok()) {
    ++stats_.failures;
  } else if (stats_.last_suspect_nanos != 0 &&
             stats_.first_recovery_nanos == 0) {
    stats_.first_recovery_nanos = Now();
  }
  done(std::move(status), std::move(reply));
}

void BinderTransport::OnReplicaFailure(size_t replica) {
  uint64_t now = Now();
  if (!trackers_[replica].OnFailure(now)) {
    return;
  }
  // Healthy -> suspect: out of the rotation, probes scheduled, and any
  // calls bound here need rescue. The evidence arrived from inside the
  // engine's own RTO handling, so the rebind is deferred to a same-instant
  // event (FIFO tie-break keeps this deterministic).
  ++stats_.suspects;
  TraceAdd(TraceCounter::kRpcFailoverSuspects);
  stats_.last_suspect_nanos = now;
  {
    RecorderReplicaScope scope(ReplicaGroup::Tag(replica));
    RecordEvent(RecEvent::kFailover, RecEndpoint::kClient, /*xid=*/0, now,
                /*a=*/ReplicaGroup::Tag(replica), /*b=*/1);
  }
  ScheduleProbe(replica);
  bool has_bound_calls = false;
  for (const auto& [xid, call] : calls_) {
    if (call.replica == replica) {
      has_bound_calls = true;
      break;
    }
  }
  if (has_bound_calls) {
    RequestCutover();
  }
}

void BinderTransport::OnReplicaSuccess(size_t replica) {
  if (!trackers_[replica].OnSuccess()) {
    return;
  }
  ++stats_.reinstates;
  TraceAdd(TraceCounter::kRpcFailoverReinstates);
  RecorderReplicaScope scope(ReplicaGroup::Tag(replica));
  RecordEvent(RecEvent::kFailover, RecEndpoint::kClient, /*xid=*/0, Now(),
              /*a=*/ReplicaGroup::Tag(replica), /*b=*/3);
  // No automatic fail-back: the reinstated replica rejoins the rotation
  // (and becomes eligible as a cutover target) but live traffic stays
  // where it is.
}

void BinderTransport::RequestCutover() {
  if (cutover_event_ != EventQueue::kInvalidEvent) {
    return;
  }
  cutover_event_ = events_->ScheduleAt(Now(), [this]() { Cutover(); });
}

void BinderTransport::Cutover() {
  cutover_event_ = EventQueue::kInvalidEvent;
  size_t n = group_->size();
  size_t new_primary = primary_;
  for (size_t i = 0; i < n; ++i) {
    if (trackers_[i].healthy()) {
      new_primary = i;
      break;
    }
  }
  // Every xid bound to an unhealthy replica migrates. std::map order
  // makes the re-issue sequence a function of the xids alone.
  std::vector<uint32_t> doomed;
  for (const auto& [xid, call] : calls_) {
    if (!trackers_[call.replica].healthy()) {
      doomed.push_back(xid);
    }
  }
  if (new_primary == primary_ && doomed.empty()) {
    return;  // evidence arrived but nothing is left to move
  }
  uint64_t now = Now();
  ++stats_.cutovers;
  TraceAdd(TraceCounter::kRpcBinderCutovers);
  stats_.last_cutover_nanos = now;
  primary_ = new_primary;
  {
    RecorderReplicaScope scope(ReplicaGroup::Tag(new_primary));
    RecordEvent(RecEvent::kFailover, RecEndpoint::kClient, /*xid=*/0, now,
                /*a=*/ReplicaGroup::Tag(new_primary), /*b=*/4);
  }
  for (uint32_t xid : doomed) {
    BoundCall& call = calls_.at(xid);
    size_t old_replica = call.replica;
    CancelOnReplica(xid, old_replica);
    size_t target = PickReplica();
    ++call.reissues;
    ++stats_.reissues;
    TraceAdd(TraceCounter::kRpcBinderReissues);
    {
      RecorderReplicaScope scope(ReplicaGroup::Tag(target));
      RecordEvent(RecEvent::kRebind, RecEndpoint::kClient, xid, now,
                  /*a=*/ReplicaGroup::Tag(target),
                  /*b=*/ReplicaGroup::Tag(old_replica));
    }
    SubmitToReplica(xid, target);
  }
}

void BinderTransport::ScheduleProbe(size_t replica) {
  if (!policy_.make_probe || trackers_[replica].healthy() ||
      probe_outstanding_[replica]) {
    return;
  }
  uint64_t due = std::max(trackers_[replica].next_probe_nanos(), Now());
  if (probe_event_[replica] != EventQueue::kInvalidEvent) {
    events_->Cancel(probe_event_[replica]);
  }
  probe_event_[replica] =
      events_->ScheduleAt(due, [this, replica]() { ProbeTick(replica); });
}

void BinderTransport::ProbeTick(size_t replica) {
  probe_event_[replica] = EventQueue::kInvalidEvent;
  FailoverTracker& tracker = trackers_[replica];
  uint64_t now = Now();
  if (tracker.healthy() || probe_outstanding_[replica] ||
      !tracker.ProbeDue(now)) {
    return;
  }
  uint32_t probe_xid = next_probe_xid_++;
  std::vector<uint8_t> request = policy_.make_probe(probe_xid);
  tracker.OnProbeSent(now);
  probe_outstanding_[replica] = true;
  probe_xid_[replica] = probe_xid;
  ++stats_.probes_sent;
  TraceAdd(TraceCounter::kRpcBinderProbes);
  RecorderReplicaScope scope(ReplicaGroup::Tag(replica));
  RecordEvent(RecEvent::kFailover, RecEndpoint::kClient, probe_xid, now,
              /*a=*/ReplicaGroup::Tag(replica), /*b=*/2);
  group_->replica(replica)->Submit(
      probe_xid, ByteSpan(request.data(), request.size()),
      [this, replica](Status status, std::vector<uint8_t>) {
        OnProbeResult(replica, status.ok());
      });
}

void BinderTransport::OnProbeResult(size_t replica, bool ok) {
  probe_outstanding_[replica] = false;
  // A successful probe already reinstated the replica through the
  // matched-reply evidence path; a failed one already fed its RTO fires
  // in. All that is left is to keep the probe clock ticking.
  if (!ok && !trackers_[replica].healthy()) {
    ScheduleProbe(replica);
  }
}

Status BinderTransport::Drive() {
  while (!calls_.empty()) {
    if (!events_->RunNext()) {
      return InternalError(StrFormat(
          "binder stalled: %zu calls outstanding, no events pending",
          calls_.size()));
    }
  }
  return Status::Ok();
}

}  // namespace flexrpc
