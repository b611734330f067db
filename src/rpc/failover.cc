#include "src/rpc/failover.h"

#include <algorithm>

namespace flexrpc {

FailoverTracker::FailoverTracker(FailoverPolicy policy) : policy_(policy) {
  policy_.suspect_after = std::max<uint32_t>(policy_.suspect_after, 1);
  policy_.probe_interval_nanos =
      std::max<uint64_t>(policy_.probe_interval_nanos, 1);
  policy_.max_probe_interval_nanos = std::max(
      policy_.max_probe_interval_nanos, policy_.probe_interval_nanos);
  current_probe_interval_nanos_ = policy_.probe_interval_nanos;
}

bool FailoverTracker::OnFailure(uint64_t now_nanos) {
  ++consecutive_failures_;
  switch (health_) {
    case ReplicaHealth::kHealthy:
      if (consecutive_failures_ >= policy_.suspect_after) {
        health_ = ReplicaHealth::kSuspect;
        next_probe_nanos_ = now_nanos + current_probe_interval_nanos_;
        return true;
      }
      return false;
    case ReplicaHealth::kProbing:
      // The probe failed; the next attempt was already scheduled (with
      // backoff) when it was sent — just fall back to waiting for it.
      health_ = ReplicaHealth::kSuspect;
      return false;
    case ReplicaHealth::kSuspect:
      return false;  // more evidence for a verdict already reached
  }
  return false;
}

bool FailoverTracker::OnSuccess() {
  consecutive_failures_ = 0;
  current_probe_interval_nanos_ = policy_.probe_interval_nanos;
  if (health_ == ReplicaHealth::kHealthy) {
    return false;
  }
  health_ = ReplicaHealth::kHealthy;
  return true;
}

bool FailoverTracker::ProbeDue(uint64_t now_nanos) const {
  return health_ == ReplicaHealth::kSuspect &&
         now_nanos >= next_probe_nanos_;
}

void FailoverTracker::OnProbeSent(uint64_t now_nanos) {
  health_ = ReplicaHealth::kProbing;
  current_probe_interval_nanos_ =
      std::min(current_probe_interval_nanos_ * 2,
               policy_.max_probe_interval_nanos);
  next_probe_nanos_ = now_nanos + current_probe_interval_nanos_;
}

}  // namespace flexrpc
