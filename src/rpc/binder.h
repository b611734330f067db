// flexbind — a managed-RPC control plane over replicated endpoints.
//
// Everything below the binder treats one engine connection as one server.
// This layer makes N at-most-once replicas look like a single logical
// binding that survives the death of any of them:
//
//   ReplicaGroup    owns one 1×W call engine (ServerConnection: a mux
//                   connection to a one-worker dispatch) per replica, each
//                   on its own channel, all driven by one shared
//                   EventQueue, each tagged (1-based) so flight-recorder
//                   events attribute to their replica.
//   BinderTransport routes calls to a primary replica, watches each
//                   engine's health taps, and on failure *re-binds live
//                   calls*: in-flight xids on a dead replica are cancelled
//                   and re-issued, under the same xid, on a healthy one
//                   without completing (or dropping) them.
//
// Health and failover (see failover.h for the state machine):
//   * Every RTO fire on a replica's engine is failure evidence; every
//     matched reply is success evidence. A corrupt reply is neither — it
//     is a drop, and the RTO it causes is the evidence. `suspect_after`
//     consecutive failures move the replica out of the routing rotation.
//   * A suspect with calls bound to it triggers a cutover: a new target
//     is chosen and every xid bound to an unhealthy replica is Cancel'd
//     and re-submitted there. The cutover runs as a deferred event (same
//     virtual instant, after the current callback unwinds) because the
//     evidence arrives from inside the engine's own event handling.
//   * Suspects are probed with a policy-supplied idempotent request on a
//     doubling backoff; any success reinstates them into the rotation.
//     Reinstatement does not fail back live traffic — the primary moves
//     only when it has to.
//
// Recorder attribution: the binder opens a RecorderReplicaScope around
// everything it hands a replica's engine, and the engine's events reopen
// the scope they were scheduled under, so every record point downstream
// carries the replica tag.
//
// Why re-binding is safe: each replica runs its own AtMostOnceEndpoint,
// so re-issuing an xid on replica B after replica A may (or may not)
// have executed it yields at most one execution *per replica* — the
// standard at-most-once guarantee, per binding. What the binder adds is
// that the duplicate-suppression state stays consistent under cutover:
// a given replica can never execute the same xid twice, because the xid
// reaches each replica through that replica's own dup cache. Cross-
// replica re-execution is the price of liveness (the first replica may
// have executed and died before replying) and is exactly the semantics
// NFS-style idempotent operations are designed for.
//
// Determinism: routing, health transitions, probes, and cutovers are all
// pure functions of the evidence sequence and virtual time, so a seeded
// kill schedule produces byte-identical recordings and exact-equal
// counters across runs — the failover soak tests gate on this.

#ifndef FLEXRPC_SRC_RPC_BINDER_H_
#define FLEXRPC_SRC_RPC_BINDER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/datagram.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/failover.h"
#include "src/rpc/mux.h"
#include "src/support/event_queue.h"
#include "src/support/status.h"

namespace flexrpc {

// One logical binding's worth of replicas: a ServerConnection per replica
// over caller-owned channels, all on one EventQueue. Replica i carries tag
// i+1 (tag 0 means "unreplicated" in recordings).
class ReplicaGroup {
 public:
  struct ReplicaSpec {
    DatagramChannel* channel = nullptr;  // caller-owned, outlives group
    DatagramHandler handler;             // that replica's server
  };

  // `policy` applies to every replica; jitter seeds are decorrelated by
  // adding the replica index so retransmit timers do not phase-lock.
  ReplicaGroup(std::vector<ReplicaSpec> specs, MuxPolicy policy,
               EventQueue* events);

  size_t size() const { return replicas_.size(); }
  ServerConnection* replica(size_t i) { return replicas_[i].get(); }
  EventQueue* events() { return events_; }
  static uint32_t Tag(size_t i) { return static_cast<uint32_t>(i) + 1; }

 private:
  std::vector<std::unique_ptr<ServerConnection>> replicas_;
  EventQueue* events_;
};

// Routing is primary-backup: while the primary is healthy it takes every
// call, and the backups serve only once it fails.
struct BinderPolicy {
  FailoverPolicy failover;
  // Re-issues a single call may consume across replicas (cutover or
  // failure-driven) before its failure is surfaced to the caller.
  uint32_t reissue_budget = 4;
  // Builds a small idempotent request (keyed by the probe's xid) used to
  // test a suspect replica. Null disables probing: suspects then only
  // reinstate if a stray real reply arrives.
  std::function<std::vector<uint8_t>(uint32_t xid)> make_probe;
};

class BinderTransport : public CallChannel {
 public:
  struct Stats {
    uint64_t calls = 0;
    uint64_t reissues = 0;   // cancel+resubmit of a live xid
    uint64_t cutovers = 0;   // rebinding episodes
    uint64_t probes_sent = 0;
    uint64_t suspects = 0;   // healthy -> suspect transitions
    uint64_t reinstates = 0; // suspect/probing -> healthy transitions
    uint64_t failures = 0;   // calls surfaced non-OK to the caller
    // Time-to-recover instrumentation (virtual nanos; 0 = never):
    uint64_t last_suspect_nanos = 0;   // most recent suspect transition
    uint64_t last_cutover_nanos = 0;   // most recent cutover
    uint64_t first_recovery_nanos = 0; // first OK completion after the
                                       // first suspect transition
    std::vector<uint64_t> per_replica_calls;  // submissions per replica
  };

  // `group` is caller-owned and must outlive the binder. The binder
  // installs itself on each replica engine's health taps; destroying it
  // withdraws everything it still has queued on the engines and the
  // event queue.
  BinderTransport(ReplicaGroup* group, BinderPolicy policy);
  ~BinderTransport() override;

  // Queues one call on the current routing target. `done` runs during a
  // later Drive — possibly after the call has migrated replicas. An xid
  // still bound is rejected with kAlreadyExists.
  void Submit(uint32_t xid, ByteSpan request, Completion done) override;

  // Runs the shared event queue until every submitted call has completed
  // (probes may remain outstanding). Non-OK only on a stalled machine.
  Status Drive() override;

  const Stats& stats() const { return stats_; }
  const BinderPolicy& policy() const { return policy_; }
  ReplicaGroup* group() { return group_; }
  size_t primary() const { return primary_; }
  ReplicaHealth health(size_t replica) const {
    return trackers_[replica].health();
  }

 private:
  struct BoundCall {
    std::vector<uint8_t> request;  // kept for re-issue
    Completion done;
    size_t replica = 0;
    uint32_t reissues = 0;
    uint64_t issued_nanos = 0;  // last (re)issue time — flexwatch
                                // per-replica latency is measured from it
  };

  uint64_t Now();
  size_t PickReplica();                 // primary, or a healthy stand-in
  void SubmitToReplica(uint32_t xid, size_t replica);
  void CancelOnReplica(uint32_t xid, size_t replica);
  void OnInnerComplete(uint32_t xid, size_t replica, Status status,
                       std::vector<uint8_t> reply);
  void Finish(uint32_t xid, Status status, std::vector<uint8_t> reply);
  void OnReplicaFailure(size_t replica);   // RTO evidence
  void OnReplicaSuccess(size_t replica);   // matched-reply evidence
  void RequestCutover();                   // deferred, coalesced
  void Cutover();
  void ScheduleProbe(size_t replica);
  void ProbeTick(size_t replica);
  void OnProbeResult(size_t replica, bool ok);

  ReplicaGroup* group_;
  BinderPolicy policy_;
  EventQueue* events_;
  std::vector<FailoverTracker> trackers_;
  // std::map (not unordered) so cutover iteration order is an explicit
  // function of the xids, not of hash-table history.
  std::map<uint32_t, BoundCall> calls_;
  size_t primary_ = 0;
  EventQueue::EventId cutover_event_ = EventQueue::kInvalidEvent;
  uint32_t next_probe_xid_ = 0xF0000000;  // probe xid namespace
  std::vector<bool> probe_outstanding_;
  std::vector<uint32_t> probe_xid_;       // valid while outstanding
  std::vector<EventQueue::EventId> probe_event_;
  Stats stats_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_BINDER_H_
