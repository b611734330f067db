// fleet_steady / fleet_overload_lossy: the multiplexed transport stack
// driven by the benchmark's own open-loop load generator.
//
// The benchmark builds the stack RunFleet builds — EventQueue,
// DatagramChannel, ConnectionMux and ServerDispatch, wired with the two
// listener hooks — but generates the whole workload during set-up: every
// arrival time and request body is drawn up front (with RunFleet's exact
// draws, so both produce the same virtual history) and every arrival is
// scheduled before the clock starts. The measured region is then only the
// event loop draining the queue: the load generator is never timed as
// system cost. perfbench_test pins the equivalence with RunFleet.

#ifndef PERFBENCH_SRC_FLEET_WORKLOAD_H_
#define PERFBENCH_SRC_FLEET_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/datagram.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/mux.h"
#include "src/sim/fleet.h"
#include "perfbench/src/spans.h"
#include "src/support/event_queue.h"

namespace perfbench {

// A run pools the virtual results of kFleetParts independently seeded
// fleets (parts), which keeps the virtual percentiles steady from seed to
// seed; every part repeats exactly for its seed.
inline constexpr uint32_t kFleetParts = 4;

// 100 clients x 200 calls, Poisson arrivals at a 3 ms mean per client
// (~33k calls/s offered against ~115k/s of modeled capacity), clean
// 1 Gbit/s wire.
flexrpc::FleetConfig FleetSteadyConfig(uint64_t seed, uint32_t part = 0);
// The same stack and per-client rate with 1000 clients x 60 calls (~3x
// capacity), both directions 2% drop, 2% dup, 2% reorder and 0.5% corrupt.
// The retry budget is 12 attempts, so no call fails.
flexrpc::FleetConfig FleetOverloadLossyConfig(uint64_t seed,
                                              uint32_t part = 0);

// The exact virtual-clock outcome of one fleet run, plus the output checks.
struct FleetOutcome {
  uint64_t calls = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // kUnavailable, kDeadlineExceeded or other non-OK
  uint64_t p50_nanos = 0;
  uint64_t p99_nanos = 0;
  uint64_t p999_nanos = 0;
  uint64_t span_nanos = 0;
  double throughput_cps = 0;  // RunFleet's: completed / span
  // Completions while arrivals were still due, and that arrival window
  // (first to last due time): the goodput under the offered load.
  uint64_t window_completed = 0;
  uint64_t window_nanos = 0;
  flexrpc::ConnectionMux::Stats mux;
  flexrpc::ServerDispatch::Stats dispatch;
  flexrpc::DatagramChannel::Stats wire;
  uint64_t executions = 0;
  uint64_t evicted_reexecs = 0;
  uint64_t outstanding = 0;     // calls the mux still holds after the run
  uint64_t late_arrivals = 0;   // submissions not fired at their due time
  uint64_t bad_replies = 0;     // wrong [xid][conn] echo or length
  uint64_t events_run = 0;
  uint64_t events_scheduled = 0;
  uint64_t events_cancelled = 0;

  // Every output check: no stall, at-most-once held, generator on time,
  // every reply well formed, every call accounted for.
  bool Correct() const;
};

// Host cost of each layer operation, replayed through the public
// functions with the run's own inputs (traced pass only).
struct ReplayCosts {
  double send_ns = 0;            // DatagramChannel::Send, per frame
  double receive_ns = 0;         // DatagramChannel::Receive, per call
  double allocs_per_frame = 0;   // heap allocations in Send + Receive
  double checksum_ns_per_kib = 0;
  double fault_next_ns = 0;      // FaultPlan::Next
  double schedule_ns = 0;        // EventQueue::ScheduleAt
  double cancel_ns = 0;          // EventQueue::Cancel
  double run_ns = 0;             // EventQueue::RunNext, empty callback
  double endpoint_handle_ns = 0; // AtMostOnceEndpoint::Handle
};

// One repetition: construction is the set-up, Run() the measured region.
class FleetBench {
 public:
  // With `spans`, every boundary the benchmark calls through is timed and
  // the inputs the layer replays need are captured.
  FleetBench(const flexrpc::FleetConfig& config, SpanRecorder* spans);
  FleetBench(const FleetBench&) = delete;
  FleetBench& operator=(const FleetBench&) = delete;

  void Run();
  FleetOutcome Finish();

  // Host time of each ConnectionMux::Submit, in submission order.
  std::vector<uint64_t>& submit_host_ns() { return submit_ns_; }
  // Virtual due-to-completion latency of each ok call, completion order.
  const std::vector<uint64_t>& latencies() const { return latencies_; }
  // Mean EventQueue::pending() seen after each event (traced runs only).
  double mean_pending() const;

  // Replays the captured frames, event mix and (conn, xid) sequence
  // through the public functions; call after Finish on a traced run.
  ReplayCosts ReplayLayers(const FleetOutcome& outcome);

 private:
  struct Call {
    uint64_t due = 0;
    uint32_t conn = 0;
    uint32_t xid = 0;
    uint32_t body_offset = 0;
    uint32_t body_size = 0;
    uint32_t reply_size = 0;  // requested reply body, excl. the prefix
  };

  void Arrive(uint32_t index);
  void Complete(uint32_t index, const flexrpc::Status& status,
                const std::vector<uint8_t>& reply);
  flexrpc::Status Handle(flexrpc::ByteSpan request,
                         std::vector<uint8_t>* reply);
  std::vector<uint8_t> RequestDatagram(const Call& call) const;

  flexrpc::FleetConfig config_;
  SpanRecorder* spans_;
  flexrpc::VirtualClock clock_;
  flexrpc::EventQueue events_;
  flexrpc::DatagramChannel channel_;
  flexrpc::ConnectionMux mux_;
  flexrpc::ServerDispatch dispatch_;

  std::vector<uint8_t> body_pool_;
  std::vector<Call> calls_;
  std::vector<uint64_t> latencies_;
  std::vector<uint64_t> submit_ns_;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t late_ = 0;
  uint64_t bad_replies_ = 0;
  uint64_t first_arrival_ = UINT64_MAX;
  uint64_t last_arrival_ = 0;
  uint64_t last_complete_ = 0;
  uint64_t window_completed_ = 0;
  uint64_t events_run_ = 0;
  uint64_t pending_sum_ = 0;

  // Replay inputs, captured on traced runs.
  std::vector<uint32_t> submitted_;      // call indices, submission order
  std::vector<uint32_t> executed_;       // call indices, execution order
  std::vector<uint32_t> reply_sizes_;    // delivered datagram sizes
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_FLEET_WORKLOAD_H_
