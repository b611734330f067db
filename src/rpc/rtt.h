// Adaptive transport parameters: smoothed-RTT RTO estimation and an AIMD
// congestion window.
//
// A call engine with a *fixed* RTO and a *fixed* window has a known failure
// mode: once the window queues more reply bytes than the RTO covers,
// healthy-but-queued replies trigger spurious retransmits, the
// retransmits add more queueing, and throughput collapses (congestion
// collapse in miniature). The flight recorder classifies exactly those
// spurious RTOs. This module closes the loop with the two classic
// controllers, kept per connection by the call engine (src/rpc/mux.h):
//
//   * RttEstimator — Jacobson/Karels smoothed RTT + mean deviation
//     (RFC 6298 arithmetic: srtt <- 7/8 srtt + 1/8 R, rttvar <- 3/4
//     rttvar + 1/4 |srtt - R|, RTO = srtt + max(G, 4 rttvar)), with
//     Karn's rule split across the API: the *caller* never feeds samples
//     from retransmit-ambiguous exchanges (it cannot know which
//     transmission the reply answers), and Backoff() keeps the
//     exponentially backed-off RTO in force until the next unambiguous
//     sample. RTO is clamped to [min_rto, max_rto].
//
//   * AimdController — additive-increase/multiplicative-decrease window:
//     +1 call per window of clean acks, halved on a loss signal (an RTO
//     fire), with at most one decrease per recovery period so a single
//     loss burst is not charged once per lost frame. Clamped to
//     [min_window, max_window].
//
// Both are pure integer state machines on virtual-clock nanoseconds —
// no floating point, so every value is exactly reproducible and the
// estimator can be unit-tested against hand-computed sequences.
//
// Divergences from TCP proper are deliberate and documented in
// DESIGN.md §14: there is no slow-start phase (the AIMD ramp from a
// 2-call window reaches steady state within a few RTTs at RPC scale),
// the loss signal is the RTO timer only (no dupack fast retransmit —
// datagram RPC has no cumulative ack stream), and the decrease holdoff
// is time-based (one per RTO interval) rather than flight-based.

#ifndef FLEXRPC_SRC_RPC_RTT_H_
#define FLEXRPC_SRC_RPC_RTT_H_

#include <cstdint>

namespace flexrpc {

struct RttConfig {
  uint64_t initial_rto_nanos = 20'000'000;  // RTO before the first sample
  uint64_t min_rto_nanos = 1'000'000;       // 1 ms floor
  uint64_t max_rto_nanos = 400'000'000;     // 400 ms ceiling (matches the
                                            // fixed policy's backoff cap)
  uint64_t granularity_nanos = 100'000;     // G in RFC 6298: the minimum
                                            // variance term, 0.1 ms
};

// Jacobson/Karels smoothed RTT + variance, integer arithmetic. Feed it
// only unambiguous samples (Karn's rule: a reply to a retransmitted
// request matches an unknown transmission — skip it); call Backoff() on
// every retransmission timeout.
class RttEstimator {
 public:
  explicit RttEstimator(RttConfig config = RttConfig{});

  // One clean round-trip sample. Updates srtt/rttvar, recomputes the RTO,
  // and clears any timeout backoff (Karn: the backed-off RTO stays in
  // force only until the next valid sample).
  void Sample(uint64_t rtt_nanos);

  // Retransmission timeout: double the effective RTO (saturating at the
  // max clamp). srtt/rttvar are untouched — the timeout says nothing
  // about the real round trip.
  void Backoff();

  // Current retransmit timeout, clamped to [min_rto, max_rto]. Before the
  // first sample this is initial_rto (plus any backoff).
  uint64_t rto_nanos() const { return rto_nanos_; }

  bool has_sample() const { return samples_ > 0; }
  uint64_t srtt_nanos() const { return srtt_nanos_; }
  uint64_t rttvar_nanos() const { return rttvar_nanos_; }
  uint64_t samples() const { return samples_; }
  uint64_t clamps() const { return clamps_; }  // RTO hit a min/max bound
  const RttConfig& config() const { return config_; }

 private:
  void RecomputeRto();

  RttConfig config_;
  uint64_t srtt_nanos_ = 0;
  uint64_t rttvar_nanos_ = 0;
  uint64_t rto_nanos_ = 0;
  uint64_t samples_ = 0;
  uint64_t clamps_ = 0;
  uint32_t backoff_shift_ = 0;  // doublings since the last clean sample
};

struct AimdConfig {
  uint32_t initial_window = 2;
  uint32_t min_window = 1;
  uint32_t max_window = 64;
};

// Additive-increase/multiplicative-decrease window controller. The caller
// reports clean completions (OnAck) and loss signals (OnLoss); window()
// is the current max-calls-in-flight.
class AimdController {
 public:
  explicit AimdController(AimdConfig config = AimdConfig{});

  uint32_t window() const { return window_; }

  // One clean completion. Returns true when a full window of acks has
  // accumulated and the window grew by one.
  bool OnAck();

  // One loss signal (an RTO fired). Halves the window — but at most once
  // per `hold_nanos` recovery period, so a burst of timeouts from one
  // congestion episode costs one decrease, not one per frame. Returns
  // true when the window actually decreased.
  bool OnLoss(uint64_t now_nanos, uint64_t hold_nanos);

  uint64_t increases() const { return increases_; }
  uint64_t decreases() const { return decreases_; }
  const AimdConfig& config() const { return config_; }

 private:
  AimdConfig config_;
  uint32_t window_;
  uint32_t ack_credit_ = 0;        // clean acks toward the next increase
  uint64_t recovery_until_ = 0;    // no second decrease before this time
  uint64_t increases_ = 0;
  uint64_t decreases_ = 0;
};

// The engine's A/B switch: disabled (the default) keeps the fixed
// RetryPolicy RTO and the fixed MuxPolicy window benchable; enabled
// replaces them with the estimator RTO and an AIMD window (AimdConfig's
// defaults). The estimator starts at the RetryPolicy's initial RTO, backs
// off no further than its max RTO, and floors at min_rto_nanos.
struct AdaptiveConfig {
  bool enabled = false;
  uint64_t min_rto_nanos = RttConfig{}.min_rto_nanos;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_RTT_H_
