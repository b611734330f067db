// FailoverTracker — per-replica health as a pure state machine.
//
// The binder (binder.h) needs one judgement per replica: is it safe to
// route calls there? This class condenses the transport's evidence stream
// (RTO fires and failed calls vs. matched replies) into a three-state
// health machine, with no clocks, timers, or I/O of its own — the binder
// feeds it timestamps and acts on the transitions it reports:
//
//     kHealthy --(suspect_after consecutive failures)--> kSuspect
//     kSuspect --(probe due, binder sends one)---------> kProbing
//     kProbing --(probe times out)---------------------> kSuspect
//     kSuspect/kProbing --(any success)----------------> kHealthy
//
// Design points:
//   * Failures must be *consecutive*: one matched reply resets the count,
//     so a lossy-but-alive replica is not declared dead by sporadic RTOs.
//     The threshold trades detection latency against false suspects — the
//     evidence is the same RTO signal the AIMD controller consumes, so a
//     congested path looks identical to a dead one until a probe settles
//     the question.
//   * Suspects are probed, not abandoned: the binder sends a cheap
//     idempotent call (policy-supplied) on a doubling backoff schedule.
//     Any success — a probe reply or a late real reply — reinstates the
//     replica immediately and resets the backoff.
//   * Everything is deterministic: transitions depend only on the
//     evidence sequence and the timestamps the caller passes in, so
//     seeded runs produce identical failover timelines.

#ifndef FLEXRPC_SRC_RPC_FAILOVER_H_
#define FLEXRPC_SRC_RPC_FAILOVER_H_

#include <cstdint>

namespace flexrpc {

struct FailoverPolicy {
  // Consecutive failures (RTO fires or call failures) that tip a healthy
  // replica into kSuspect. 0 is clamped to 1.
  uint32_t suspect_after = 3;
  // Delay from suspicion to the first probe, and between probe attempts.
  // Doubles after every probe sent, capped below.
  uint64_t probe_interval_nanos = 20'000'000;       // 20 ms
  uint64_t max_probe_interval_nanos = 320'000'000;  // 320 ms
};

enum class ReplicaHealth : uint8_t {
  kHealthy = 0,  // in the routing rotation
  kSuspect,      // out of rotation, next probe scheduled
  kProbing,      // out of rotation, a probe is in flight
};

class FailoverTracker {
 public:
  explicit FailoverTracker(FailoverPolicy policy);

  // Failure evidence: an RTO fire or a failed call (including a failed
  // probe — kProbing drops back to kSuspect with the next probe already
  // scheduled). Returns true exactly when this failure tips a healthy
  // replica into kSuspect.
  bool OnFailure(uint64_t now_nanos);

  // Success evidence: any matched reply, probe or real. Returns true
  // exactly when it reinstates a suspect/probing replica to kHealthy.
  bool OnSuccess();

  // True when the replica is suspect and its probe timer has expired;
  // the binder should send a probe and call OnProbeSent.
  bool ProbeDue(uint64_t now_nanos) const;

  // Marks a probe in flight and schedules the next attempt one doubled
  // (capped) interval out, so a lost probe is retried without any extra
  // bookkeeping: the replica just becomes ProbeDue again.
  void OnProbeSent(uint64_t now_nanos);

  ReplicaHealth health() const { return health_; }
  bool healthy() const { return health_ == ReplicaHealth::kHealthy; }
  uint32_t consecutive_failures() const { return consecutive_failures_; }
  // Meaningful only while unhealthy: when the next probe becomes due.
  uint64_t next_probe_nanos() const { return next_probe_nanos_; }

 private:
  FailoverPolicy policy_;
  ReplicaHealth health_ = ReplicaHealth::kHealthy;
  uint32_t consecutive_failures_ = 0;
  uint64_t next_probe_nanos_ = 0;
  uint64_t current_probe_interval_nanos_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_FAILOVER_H_
