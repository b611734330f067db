// Unit tests for the call engine (ConnectionMux + ServerDispatch,
// src/rpc/mux.h and src/rpc/dispatch.h) in its serial (1×1) and pipelined
// (1×W) shapes: window admission, out-of-order completion, per-call RTO
// timers, at-most-once execution, graceful degradation, Cancel, the
// corrupt-reply rule, the caller-xid contract, and the virtual-time
// speedup the window buys on the NFS read path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/dispatch.h"
#include "src/support/event_queue.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

FaultConfig MixedFaults(uint64_t seed) {
  FaultConfig config;
  config.drop_prob = 0.2;
  config.dup_prob = 0.1;
  config.reorder_prob = 0.1;
  config.corrupt_prob = 0.1;
  config.extra_delay_prob = 0.2;
  config.seed = seed;
  return config;
}

MuxPolicy Window(uint32_t window) {
  MuxPolicy policy;
  policy.per_conn_window = window;
  return policy;
}

// One engine connection to an echo server: the handler reflects the
// request datagram ([xid][conn] prefix included) and counts executions
// per xid; completions record status, reply, and order.
struct EchoRig {
  explicit EchoRig(FaultPlan to_server, FaultPlan to_client,
                   MuxPolicy policy = MuxPolicy{})
      : channel(LinkModel(), std::move(to_server), std::move(to_client),
                &clock),
        events(&clock),
        rpc(&channel,
            [this](ByteSpan request, std::vector<uint8_t>* reply) {
              auto xid = PeekXid(request);
              if (!xid.ok()) {
                return xid.status();
              }
              ++executions[*xid];
              reply->assign(request.begin(), request.end());
              return Status::Ok();
            },
            policy, &events) {}

  void Submit(uint32_t xid) {
    const uint8_t body[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    rpc.Submit(xid, ByteSpan(body, sizeof(body)),
               [this, xid](Status st, std::vector<uint8_t> reply) {
                 results[xid] = std::move(st);
                 completion_order.push_back(xid);
                 if (results[xid].ok()) {
                   replies[xid] = std::move(reply);
                 }
               });
  }

  // Submits one call, drives everything outstanding, returns its status.
  Status Call(uint32_t xid) {
    Submit(xid);
    Status driven = rpc.Drive();
    return driven.ok() ? results[xid] : driven;
  }

  const ConnectionMux::Stats& mux() { return rpc.mux().stats(); }
  const ServerDispatch::Stats& server() { return rpc.dispatch().stats(); }

  VirtualClock clock;
  DatagramChannel channel;
  EventQueue events;
  ServerConnection rpc;
  std::map<uint32_t, int> executions;
  std::map<uint32_t, Status> results;
  std::map<uint32_t, std::vector<uint8_t>> replies;
  std::vector<uint32_t> completion_order;
};

FaultPlan DropFirst() {
  FaultPlan plan;
  plan.DropExactly(0, 0);
  return plan;
}

FaultPlan Always(double FaultConfig::*fault) {
  FaultConfig config;
  config.*fault = 1.0;
  return FaultPlan(config);
}

// The checks below run unchanged on the serial (1×1) and a pipelined (1×W)
// shape; each shape is a test of its own.

void CheckPerfectWire(uint32_t window) {
  EchoRig rig{FaultPlan(), FaultPlan(), Window(window)};
  for (uint32_t xid = 1; xid <= 16; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  for (uint32_t xid = 1; xid <= 16; ++xid) {
    ASSERT_TRUE(rig.results[xid].ok()) << rig.results[xid].ToString();
    EXPECT_EQ(rig.executions[xid], 1);
    ByteSpan reply(rig.replies[xid]);
    EXPECT_EQ(PeekXid(reply).value(), xid);
    EXPECT_EQ(PeekMuxConn(reply).value(), rig.rpc.conn());
  }
  EXPECT_EQ(rig.mux().calls, 16u);
  EXPECT_EQ(rig.mux().retransmits, 0u);
  EXPECT_EQ(rig.mux().max_in_flight, window);
  EXPECT_EQ(rig.mux().flow_stalls, 16u - window);
  EXPECT_EQ(rig.server().executions, 16u);
}

TEST(CallEngineTest, PerfectWireFirstAttemptSucceeds) { CheckPerfectWire(1); }

TEST(CallEngineTest, PerfectWireCompletesEverySubmission) {
  CheckPerfectWire(4);
}

TEST(CallEngineTest, WindowOneIsStopAndWait) {
  EchoRig rig{FaultPlan(), FaultPlan(), Window(0)};  // clamped to 1
  for (uint32_t xid = 1; xid <= 4; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  EXPECT_EQ(rig.mux().max_in_flight, 1u);
  EXPECT_EQ(rig.completion_order, (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(CallEngineTest, SlowCallIsOvertakenByYoungerOnes) {
  // Drop call 1's first request frame: while its RTO runs, calls 2..4
  // complete — out-of-order completion, matched purely by (conn, xid).
  MuxPolicy policy = Window(4);
  policy.retry.initial_rto_nanos = 5'000'000;  // recover quickly
  EchoRig rig{DropFirst(), FaultPlan(), policy};
  for (uint32_t xid = 1; xid <= 4; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  for (uint32_t xid = 1; xid <= 4; ++xid) {
    ASSERT_TRUE(rig.results[xid].ok()) << rig.results[xid].ToString();
    EXPECT_EQ(rig.executions[xid], 1);
  }
  EXPECT_EQ(rig.completion_order.back(), 1u);  // the dropped call is last
  EXPECT_GE(rig.mux().retransmits, 1u);
}

TEST(CallEngineTest, DroppedRequestRetransmits) {
  for (uint32_t window : {1u, 8u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    EchoRig rig{DropFirst(), FaultPlan(), Window(window)};
    ASSERT_TRUE(rig.Call(7).ok());
    EXPECT_EQ(rig.executions[7], 1);  // never executed for the lost frame
    EXPECT_EQ(rig.mux().retransmits, 1u);
    EXPECT_EQ(rig.server().dup_replies, 0u);
  }
}

// The at-most-once acceptance case: the request executes, the reply is
// lost, the retransmit must be answered from the reply cache.
void CheckDroppedReplyHitsDupCache(uint32_t window) {
  EchoRig rig{FaultPlan(), DropFirst(), Window(window)};
  ASSERT_TRUE(rig.Call(9).ok());
  EXPECT_EQ(rig.executions[9], 1);  // executed exactly once
  EXPECT_EQ(rig.mux().retransmits, 1u);
  EXPECT_EQ(rig.server().dup_replies, 1u);
  EXPECT_EQ(rig.server().executions, 1u);
}

TEST(CallEngineTest, DroppedReplyHitsDupCacheNotTheWorkFunction) {
  CheckDroppedReplyHitsDupCache(1);
}

TEST(CallEngineTest, PipelinedDroppedReplyHitsDupCacheNotTheWorkFunction) {
  CheckDroppedReplyHitsDupCache(8);
}

TEST(CallEngineTest, DuplicatedRequestsExecuteOncePerXid) {
  EchoRig rig{Always(&FaultConfig::dup_prob), FaultPlan(), Window(4)};
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    ASSERT_TRUE(rig.results[xid].ok());
    EXPECT_EQ(rig.executions[xid], 1);  // duplicates suppressed
  }
  EXPECT_EQ(rig.server().dup_replies, 8u);
  EXPECT_EQ(rig.server().executions, 8u);
}

void CheckTotalLossIsUnavailable(uint32_t window) {
  MuxPolicy policy = Window(window);
  policy.retry.max_attempts = 4;
  EchoRig rig{Always(&FaultConfig::drop_prob), FaultPlan(), policy};
  EXPECT_EQ(rig.Call(11).code(), StatusCode::kUnavailable);
  EXPECT_EQ(rig.executions.count(11), 0u);
  EXPECT_EQ(rig.mux().retransmits, 3u);
  EXPECT_EQ(rig.mux().unavailable_failures, 1u);
  EXPECT_LE(rig.clock.now_nanos(), policy.retry.deadline_nanos);
}

TEST(CallEngineTest, TotalLossReturnsUnavailableWithinDeadline) {
  CheckTotalLossIsUnavailable(1);
}

TEST(CallEngineTest, TotalLossDegradesToUnavailable) {
  CheckTotalLossIsUnavailable(8);
}

TEST(CallEngineTest, DeadlineExceededOnTheVirtualClock) {
  MuxPolicy policy = Window(1);
  policy.retry.max_attempts = 1000;           // budget will not bind
  policy.retry.deadline_nanos = 100'000'000;  // 100 ms virtual deadline
  EchoRig rig{Always(&FaultConfig::drop_prob), FaultPlan(), policy};
  EXPECT_EQ(rig.Call(12).code(), StatusCode::kDeadlineExceeded);
  // The RTO timer is clipped to the deadline: the call ends at it.
  EXPECT_EQ(rig.clock.now_nanos(), policy.retry.deadline_nanos);
  EXPECT_EQ(rig.mux().deadline_expiries, 1u);
}

// A deadline shorter than one round trip must surface kDeadlineExceeded
// even though the wire is perfect and a reply is on its way; the reply
// that lands afterwards is stale, never delivered.
void CheckDeadlineShorterThanARoundTrip(uint32_t window) {
  MuxPolicy policy = Window(window);
  policy.retry.deadline_nanos = 1'000;  // 1 µs
  EchoRig rig{FaultPlan(), FaultPlan(), policy};
  EXPECT_EQ(rig.Call(40).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rig.mux().deadline_expiries, 1u);
  rig.events.RunUntilIdle();
  EXPECT_EQ(rig.executions[40], 1);  // the server did execute it
  EXPECT_EQ(rig.mux().stale_replies, 1u);
  EXPECT_TRUE(rig.replies.empty());
}

TEST(CallEngineTest, LateReplyPastDeadlineIsDeadlineExceeded) {
  CheckDeadlineShorterThanARoundTrip(1);
}

TEST(CallEngineTest, DeadlineShorterThanARoundTripExpires) {
  CheckDeadlineShorterThanARoundTrip(8);
}

TEST(CallEngineTest, CorruptRepliesAreDropsTheRtoCovers) {
  MuxPolicy policy = Window(1);
  policy.retry.max_attempts = 3;
  EchoRig rig{FaultPlan(), Always(&FaultConfig::corrupt_prob), policy};
  EXPECT_EQ(rig.Call(13).code(), StatusCode::kUnavailable);  // not hung
  EXPECT_EQ(rig.mux().corrupt_replies, 3u);
  EXPECT_EQ(rig.executions[13], 1);  // dup cache absorbed the retransmits
  EXPECT_EQ(rig.server().dup_replies, 2u);
}

TEST(CallEngineTest, StaleDuplicateRepliesAreDiscarded) {
  EchoRig rig{FaultPlan(), Always(&FaultConfig::dup_prob), Window(1)};
  ASSERT_TRUE(rig.Call(20).ok());
  // Call 20's duplicate reply is still on the wire; call 21 must skip it.
  ASSERT_TRUE(rig.Call(21).ok());
  EXPECT_EQ(PeekXid(ByteSpan(rig.replies[21])).value(), 21u);
  EXPECT_GE(rig.mux().stale_replies, 1u);
  EXPECT_EQ(rig.executions[20], 1);
  EXPECT_EQ(rig.executions[21], 1);
}

TEST(CallEngineTest, BackoffWaitsGrowExponentially) {
  MuxPolicy policy = Window(1);
  policy.retry.max_attempts = 4;
  policy.retry.initial_rto_nanos = 1'000'000;
  policy.retry.max_rto_nanos = 1'000'000'000;
  EchoRig rig{Always(&FaultConfig::drop_prob), FaultPlan(), policy};
  (void)rig.Call(30);
  // Four RTO waits of ~1, ~2, ~4, ~8 ms (plus ≤25% jitter each); the call
  // fails when the fourth fires.
  EXPECT_GE(rig.clock.now_nanos(), 15'000'000u);
  EXPECT_LE(rig.clock.now_nanos(), 15'000'000u + 3'750'000u + 4u);
}

TEST(CallEngineTest, ServerExecSpanRecordsExactVirtualDuration) {
  EchoRig rig{FaultPlan(), FaultPlan(), Window(1)};
  ASSERT_TRUE(rig.Call(1).ok());
  // The worker's modeled CPU span is exactly ProcessNanos(reply size) —
  // busy time is that virtual duration, not host elapsed time.
  EXPECT_EQ(rig.server().executions, 1u);
  EXPECT_EQ(rig.server().busy_nanos,
            RemoteServerModel().ProcessNanos(rig.replies[1].size()));
}

TEST(CallEngineTest, TraceSnapshotIsByteIdenticalAcrossRuns) {
  // Two identical seeded lossy workloads must serialize identical
  // snapshots: no host time leaks into them.
  auto run = []() {
    TraceSession session;
    FaultConfig mixed = MixedFaults(/*seed=*/17);
    MuxPolicy policy = Window(1);
    policy.retry.jitter_seed = 18;
    policy.retry.deadline_nanos = 60'000'000'000;
    EchoRig rig{FaultPlan(mixed), FaultPlan(mixed), policy};
    for (uint32_t xid = 1; xid <= 24; ++xid) {
      rig.Submit(xid);
    }
    EXPECT_TRUE(rig.rpc.Drive().ok());
    return session.ReportJson();
  };
  SetTraceEnabled(false);
  ResetTrace();
  std::string first = run();
  std::string second = run();
  SetTraceEnabled(false);
  ResetTrace();
  EXPECT_EQ(first, second);
  // The lossy workload actually exercised the retransmit path.
  EXPECT_EQ(first.find("\"rpc.mux.retransmits\": 0"), std::string::npos);
}

TEST(CallEngineTest, OutstandingXidIsRejectedNotAliased) {
  // A second call under an xid still outstanding would overwrite the
  // first one's in-flight entry and lose a completion; the caller-xid
  // Submit refuses it with one kAlreadyExists completion instead.
  EchoRig rig{FaultPlan(), FaultPlan(), Window(4)};
  rig.Submit(5);
  int rejected = 0;
  const uint8_t body[1] = {0x01};
  rig.rpc.Submit(5, ByteSpan(body, 1),
                 [&rejected](Status st, std::vector<uint8_t> reply) {
                   EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
                   EXPECT_TRUE(reply.empty());
                   ++rejected;
                 });
  EXPECT_EQ(rejected, 1);  // right away, exactly once
  ASSERT_TRUE(rig.rpc.Drive().ok());
  EXPECT_TRUE(rig.results[5].ok());
  EXPECT_EQ(rig.executions[5], 1);
  EXPECT_EQ(rig.mux().calls, 1u);
  EXPECT_EQ(rejected, 1);
  // Once complete, the xid is free again.
  ASSERT_TRUE(rig.Call(5).ok());
}

// --- Cancel -------------------------------------------------------------

TEST(PipelineCancelTest, CancelInFlightSuppressesItsCompletion) {
  EchoRig rig{FaultPlan(), FaultPlan(), Window(8)};
  rig.Submit(1);
  rig.Submit(2);
  ConnectionMux& mux = rig.rpc.mux();
  EXPECT_TRUE(mux.Cancel(rig.rpc.conn(), 1));
  EXPECT_FALSE(mux.Cancel(rig.rpc.conn(), 1));   // already withdrawn
  EXPECT_FALSE(mux.Cancel(rig.rpc.conn(), 99));  // never existed
  EXPECT_FALSE(mux.Cancel(rig.rpc.conn() + 1, 2));  // no such connection
  ASSERT_TRUE(rig.rpc.Drive().ok());
  rig.events.RunUntilIdle();
  EXPECT_EQ(rig.results.count(1), 0u);  // completion suppressed
  EXPECT_TRUE(rig.results[2].ok());
  // Xid 1's request was already on the wire; its reply lands as a stale
  // reply, not a crash or a resurrected completion.
  EXPECT_EQ(rig.executions[1], 1);
  EXPECT_EQ(rig.mux().stale_replies, 1u);
}

TEST(PipelineCancelTest, CancelQueuedCallNeverTransmits) {
  EchoRig rig{FaultPlan(), FaultPlan(), Window(1)};  // xid 2 queues
  rig.Submit(1);
  rig.Submit(2);
  EXPECT_TRUE(rig.rpc.mux().Cancel(rig.rpc.conn(), 2));
  ASSERT_TRUE(rig.rpc.Drive().ok());
  rig.events.RunUntilIdle();
  EXPECT_EQ(rig.results.count(2), 0u);
  // Only xid 1 ever reached the wire.
  EXPECT_EQ(rig.mux().calls, 2u);
  EXPECT_EQ(rig.executions.count(2), 0u);
  EXPECT_EQ(rig.mux().stale_replies, 0u);
}

// --- the corrupt-reply rule ---------------------------------------------

TEST(PipelineCorruptLossTest, CorruptReplyIsADropUntilItsRtoFires) {
  // A reply that fails its checksum names no (conn, xid), so it is a drop
  // and nothing more: the AIMD window does not move when it arrives. The
  // owning call's RTO covers it, and that fire is the loss signal.
  MuxPolicy policy = Window(8);
  policy.retry.adaptive.enabled = true;
  policy.retry.adaptive.rtt.initial_rto_nanos = 5'000'000;
  EchoRig rig{FaultPlan(), Always(&FaultConfig::corrupt_prob), policy};
  rig.Submit(1);
  while (rig.mux().corrupt_replies == 0 && rig.events.RunNext()) {
  }
  ASSERT_EQ(rig.mux().corrupt_replies, 1u);
  EXPECT_EQ(rig.mux().retransmits, 0u);  // the RTO has not fired yet
  EXPECT_EQ(rig.mux().cwnd_decreases, 0u);
  EXPECT_EQ(rig.rpc.mux().total_window(), 2u);
  while (rig.mux().retransmits == 0 && rig.events.RunNext()) {
  }
  EXPECT_EQ(rig.mux().cwnd_decreases, 1u);
  EXPECT_EQ(rig.rpc.mux().total_window(), 1u);  // halved at the RTO
}

// --- the speedup the window exists for ----------------------------------

struct NfsRunOutcome {
  uint64_t virtual_nanos = 0;
  uint64_t bytes_read = 0;
  ConnectionMux::Stats stats;
  uint32_t final_window = 0;
};

// Reads a file through one engine connection of the given window and
// returns the virtual time it took. ReadFileOver verifies the delivered
// bytes against the server's content on every run.
NfsRunOutcome NfsRead(MuxPolicy policy, size_t file_size,
                      size_t chunk_bytes) {
  NfsFileServer server(file_size, /*seed=*/77);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  EventQueue events(&clock);
  policy.retry.deadline_nanos = 60'000'000'000;  // the whole file queues
  ServerConnection rpc(&channel, NfsFileServer::MakeHandler(&server), policy,
                       &events);
  auto stats = client.ReadFileOver(NfsClient::StubKind::kHandUserBuffer, &rpc,
                                   &clock, chunk_bytes);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  NfsRunOutcome outcome;
  outcome.virtual_nanos = clock.now_nanos();
  outcome.bytes_read = stats.ok() ? stats->bytes_read : 0;
  outcome.stats = rpc.mux().stats();
  outcome.final_window = static_cast<uint32_t>(rpc.mux().total_window());
  return outcome;
}

TEST(PipelinedNfsTest, WindowEightIsAtLeastTwiceWindowOne) {
  // 512-byte chunks make the read latency/server-bound, which is where
  // overlapping calls pays: the pipeline is limited by the busiest single
  // resource instead of the sum of request+server+reply legs.
  NfsRunOutcome serial = NfsRead(Window(1), 64 * 1024, 512);
  NfsRunOutcome pipelined = NfsRead(Window(8), 64 * 1024, 512);
  EXPECT_EQ(serial.bytes_read, 64u * 1024u);
  EXPECT_EQ(pipelined.bytes_read, serial.bytes_read);  // same file
  EXPECT_GE(serial.virtual_nanos, 2 * pipelined.virtual_nanos)
      << "window=8 took " << pipelined.virtual_nanos << "ns vs window=1 "
      << serial.virtual_nanos << "ns — expected at least 2x";
}

TEST(PipelinedNfsTest, SpeedupIsDeterministic) {
  // Virtual time is a pure function of the inputs.
  EXPECT_EQ(NfsRead(Window(8), 64 * 1024, 512).virtual_nanos,
            NfsRead(Window(8), 64 * 1024, 512).virtual_nanos);
}

// --- the adaptive engine ------------------------------------------------

// The congestion-collapse rig from the bench: 8 KB chunks at the default
// 20 ms RTO, where a fixed window > ~3 queues more reply wire time than
// the RTO covers and spuriously retransmits.
NfsRunOutcome CollapseRun(uint32_t window, bool adaptive) {
  MuxPolicy policy = Window(window);
  policy.retry.adaptive.enabled = adaptive;
  return NfsRead(policy, 128 * 1024, kNfsMaxData);  // 16 full-size chunks
}

MuxPolicy Adaptive() {
  MuxPolicy policy;
  policy.retry.adaptive.enabled = true;
  return policy;
}

TEST(AdaptivePipelineTest, CollapseRecoveryBeatsEveryFixedWindow) {
  // The acceptance bar: with zero hand tuning the adaptive engine must
  // recover at least the best fixed window's throughput — while the fixed
  // windows above the collapse knee burn spurious retransmits.
  uint64_t best_fixed_nanos = UINT64_MAX;
  uint64_t worst_fixed_retransmits = 0;
  for (uint32_t window : {1u, 2u, 4u, 8u, 16u}) {
    NfsRunOutcome fixed = CollapseRun(window, /*adaptive=*/false);
    best_fixed_nanos = std::min(best_fixed_nanos, fixed.virtual_nanos);
    worst_fixed_retransmits =
        std::max(worst_fixed_retransmits, fixed.stats.retransmits);
  }
  EXPECT_GT(worst_fixed_retransmits, 0u)
      << "the scenario no longer collapses — tighten it";

  NfsRunOutcome adaptive = CollapseRun(16, /*adaptive=*/true);
  // Same throughput or better (allow 1% for the ramp-up window).
  EXPECT_LE(adaptive.virtual_nanos, best_fixed_nanos + best_fixed_nanos / 100)
      << "adaptive " << adaptive.virtual_nanos << "ns vs best fixed "
      << best_fixed_nanos << "ns";
  // And it got there without a single spurious retransmit.
  EXPECT_EQ(adaptive.stats.retransmits, 0u);
  EXPECT_GT(adaptive.stats.rtt_samples, 0u);
  EXPECT_GT(adaptive.stats.cwnd_increases, 0u);
}

TEST(AdaptivePipelineTest, CleanRunSamplesEveryReplyAndGrowsWindow) {
  EchoRig rig{FaultPlan(), FaultPlan(), Adaptive()};
  for (uint32_t xid = 1; xid <= 16; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  EXPECT_EQ(rig.mux().rtt_samples, 16u);  // every reply was unambiguous
  EXPECT_EQ(rig.mux().karn_skips, 0u);
  EXPECT_EQ(rig.mux().cwnd_decreases, 0u);
  EXPECT_GT(rig.mux().cwnd_increases, 0u);  // AIMD ramped from 2
  EXPECT_GT(rig.rpc.mux().total_window(),
            Adaptive().retry.adaptive.window.initial_window);
  const RttEstimator* rtt = rig.rpc.mux().conn_rtt(rig.rpc.conn());
  ASSERT_NE(rtt, nullptr);
  EXPECT_TRUE(rtt->has_sample());
  EXPECT_EQ(rtt->samples(), 16u);
}

TEST(AdaptivePipelineTest, RetransmitIsKarnSkippedAndHalvesWindow) {
  // Drop call 1's first request: its reply answers the retransmission, so
  // the sample is ambiguous (Karn skip), and the RTO fire is a loss signal
  // that must halve the AIMD window (2 -> 1).
  MuxPolicy policy = Adaptive();
  policy.retry.adaptive.rtt.initial_rto_nanos = 5'000'000;
  EchoRig rig{DropFirst(), FaultPlan(), policy};
  ASSERT_TRUE(rig.Call(1).ok()) << rig.results[1].ToString();
  EXPECT_EQ(rig.mux().retransmits, 1u);
  EXPECT_EQ(rig.mux().karn_skips, 1u);
  EXPECT_EQ(rig.mux().rtt_samples, 0u);  // the only reply was ambiguous
  EXPECT_EQ(rig.mux().cwnd_decreases, 1u);  // halved 2 -> 1 on the RTO
  // The eventual completion still counts as an ack (delivery evidence,
  // even though its RTT is ambiguous), and at a window of 1 a single ack
  // is a full window — so AIMD immediately grew back to 2.
  EXPECT_EQ(rig.mux().cwnd_increases, 1u);
  EXPECT_EQ(rig.rpc.mux().total_window(), 2u);
}

TEST(AdaptivePipelineTest, EstimatorRtoTracksTheActualRoundTrip) {
  // After a clean run the RTO must sit near the measured round trip —
  // far below the 20 ms pre-sample seed — which is the whole mechanism
  // that avoids both spurious retransmits and sluggish recovery.
  EchoRig rig{FaultPlan(), FaultPlan(), Adaptive()};
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  const RttEstimator& rtt = *rig.rpc.mux().conn_rtt(rig.rpc.conn());
  ASSERT_TRUE(rtt.has_sample());
  EXPECT_GT(rtt.srtt_nanos(), 0u);
  EXPECT_LT(rtt.rto_nanos(), 20'000'000u);  // adapted below the seed
  EXPECT_GE(rtt.rto_nanos(), rtt.config().min_rto_nanos);
}

TEST(AdaptivePipelineTest, AdaptiveRunIsDeterministic) {
  NfsRunOutcome a = CollapseRun(16, /*adaptive=*/true);
  NfsRunOutcome b = CollapseRun(16, /*adaptive=*/true);
  EXPECT_EQ(a.virtual_nanos, b.virtual_nanos);
  EXPECT_EQ(a.stats.rtt_samples, b.stats.rtt_samples);
  EXPECT_EQ(a.stats.cwnd_increases, b.stats.cwnd_increases);
  EXPECT_EQ(a.stats.cwnd_decreases, b.stats.cwnd_decreases);
  EXPECT_EQ(a.final_window, b.final_window);
}

TEST(AdaptivePipelineTest, DisabledSwitchLeavesFixedBehaviorUntouched) {
  // The A/B contract: adaptive off (the default) keeps the fixed window
  // and the fixed RTO schedule, so fixed-window numbers stay benchable.
  EchoRig rig{FaultPlan(), FaultPlan(), Window(4)};
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    rig.Submit(xid);
  }
  ASSERT_TRUE(rig.rpc.Drive().ok());
  EXPECT_EQ(rig.mux().rtt_samples, 0u);
  EXPECT_EQ(rig.mux().karn_skips, 0u);
  EXPECT_EQ(rig.mux().cwnd_increases, 0u);
  EXPECT_EQ(rig.mux().cwnd_decreases, 0u);
  EXPECT_EQ(rig.rpc.mux().total_window(), 4u);
  EXPECT_FALSE(rig.rpc.mux().conn_rtt(rig.rpc.conn())->has_sample());
}

}  // namespace
}  // namespace flexrpc
