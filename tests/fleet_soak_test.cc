// Fleet soak — the mux/dispatch stack under the full fault matrix
// (ISSUE 9, satellite 4).
//
// The single-client fault soak proves at-most-once per xid; a fleet makes
// that claim per (connection, xid): N mux connections interleave calls
// over one lossy wire, xids collide across connections by construction,
// and the server's per-connection dup caches must still keep every call's
// handler execution count at <= 1. Each matrix seed derives drop / dup /
// reorder / corrupt / extra-delay mixes for both wire directions, runs a
// fleet to completion, and gates:
//   * no stall — RunFleet returns OK and every call terminates with OK or
//     a documented degradation (kUnavailable / kDeadlineExceeded);
//   * per-(conn, xid) handler executions <= 1, proven by the execution
//     census RunFleet threads through the server handler;
//   * zero evicted re-executions (the LRU reply caches never dropped an
//     xid that was still being retransmitted);
//   * determinism — the same seed replays to a byte-identical flight
//     recording, faults and all.
//
// Registered under the `fault` + `fleet` ctest labels via the
// flexrpc_fleet_tests binary; CI's fault-matrix and TSan jobs include it.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/dispatch.h"
#include "src/rpc/mux.h"
#include "src/rpc/rtt.h"
#include "src/sim/fleet.h"
#include "src/support/bytes.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"
#include "src/support/rng.h"
#include "src/support/timeline.h"
#include "src/support/timing.h"

namespace flexrpc {
namespace {

// Fault mix derived deterministically from the seed; the same shape as
// the single-client soak's but slightly gentler, since a fleet multiplies
// every probability by thousands of packets.
FaultConfig FleetMixForSeed(uint64_t seed, uint64_t direction_salt) {
  Rng rng(seed * 2654435761u + direction_salt);
  FaultConfig config;
  config.drop_prob = rng.NextDouble() * 0.20;
  config.dup_prob = rng.NextDouble() * 0.15;
  config.reorder_prob = rng.NextDouble() * 0.15;
  config.corrupt_prob = rng.NextDouble() * 0.06;
  config.extra_delay_prob = rng.NextDouble() * 0.20;
  config.seed = seed ^ direction_salt;
  return config;
}

// A small fleet that still interleaves: enough clients that xids collide
// across connections, enough calls that windows wrap and caches churn.
FleetConfig SoakConfig(uint64_t seed) {
  FleetConfig config;
  config.num_clients = 12;
  config.calls_per_client = 12;
  config.mean_interarrival_nanos = 400'000;  // 0.4 ms: heavy interleaving
  config.seed = seed;
  config.mux.retry.max_attempts = 12;
  config.mux.retry.deadline_nanos = 8'000'000'000;  // 8 virtual seconds
  config.mux.retry.jitter_seed = seed + 1;
  config.dispatch.workers = 4;
  return config;
}

// The at-most-once proof: every (conn, xid) key in the execution census
// ran the handler at most once, and keys cover at most the submitted
// calls (a shed or lost call may never execute; none executes twice).
void AssertAtMostOnce(const std::map<uint64_t, uint64_t>& executions,
                      uint64_t total_calls) {
  EXPECT_LE(executions.size(), total_calls);
  for (const auto& [key, count] : executions) {
    EXPECT_LE(count, 1u) << "handler ran " << count << " times for conn "
                         << (key >> 32) << " xid "
                         << static_cast<uint32_t>(key);
  }
}

TEST(FleetSoakTest, PeekMuxConnReadsSecondWordAndRejectsShortFrames) {
  const uint8_t frame[] = {0x00, 0x00, 0x00, 0x07,   // xid 7
                           0x00, 0x00, 0x01, 0x02,   // conn 0x102
                           0xAA, 0xBB};              // body
  auto conn = PeekMuxConn(ByteSpan(frame, sizeof(frame)));
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(*conn, 0x102u);
  // The xid slot is unaffected by the mux framing.
  auto xid = PeekXid(ByteSpan(frame, sizeof(frame)));
  ASSERT_TRUE(xid.ok());
  EXPECT_EQ(*xid, 7u);
  // Seven bytes cannot hold the two-word prefix.
  EXPECT_FALSE(PeekMuxConn(ByteSpan(frame, 7)).ok());
}

TEST(FleetSoakTest, MuxInterleavesConnectionsOverPerfectWire) {
  FleetConfig config = SoakConfig(/*seed=*/7);
  std::map<uint64_t, uint64_t> executions;
  FleetResult result = RunFleet(config, &executions);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  const uint64_t total = uint64_t{config.num_clients} *
                         config.calls_per_client;
  EXPECT_EQ(result.completed, total);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.mux.conns_opened, config.num_clients);
  EXPECT_EQ(result.mux.retransmits, 0u);  // perfect wire
  EXPECT_EQ(result.executions, total);
  EXPECT_EQ(result.evicted_reexecs, 0u);
  // Every call executed exactly once, and connections really do reuse
  // the same xid values: with identical per-connection call counts the
  // census holds num_clients entries for xid 1 alone.
  EXPECT_EQ(executions.size(), total);
  AssertAtMostOnce(executions, total);
  uint64_t xid1_conns = 0;
  for (const auto& [key, count] : executions) {
    if (static_cast<uint32_t>(key) == 1) {
      ++xid1_conns;
    }
  }
  EXPECT_EQ(xid1_conns, config.num_clients);
}

TEST(FleetSoakTest, FaultMatrixPreservesPerConnectionAtMostOnce) {
  uint64_t total_retransmits = 0;
  uint64_t total_dup_replies = 0;
  uint64_t total_failed = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FleetConfig config = SoakConfig(seed);
    config.fault_a_to_b = FleetMixForSeed(seed, 0xA2B);
    config.fault_b_to_a = FleetMixForSeed(seed, 0xB2A);

    std::map<uint64_t, uint64_t> executions;
    FleetResult result = RunFleet(config, &executions);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();

    const uint64_t total = uint64_t{config.num_clients} *
                           config.calls_per_client;
    // No hangs and no third outcome: every call completed or failed with
    // a documented degradation code (those are the only failure paths
    // the mux has).
    EXPECT_EQ(result.completed + result.failed, total);
    EXPECT_EQ(result.failed, result.mux.deadline_expiries +
                                 result.mux.unavailable_failures);
    AssertAtMostOnce(executions, total);
    EXPECT_EQ(result.evicted_reexecs, 0u);

    total_retransmits += result.mux.retransmits;
    total_dup_replies += result.dup_replies;
    total_failed += result.failed;
  }
  // The matrix actually bit: packets were lost (forcing retransmits) and
  // duplicated/retransmitted requests hit the server's reply caches.
  EXPECT_GT(total_retransmits, 0u);
  EXPECT_GT(total_dup_replies, 0u);
  // And the mixes are survivable: most calls complete across the matrix.
  EXPECT_LT(total_failed, 6u * 12u * 12u / 4u);
}

TEST(FleetSoakTest, SameSeedReplaysToByteIdenticalRecording) {
  FleetConfig config = SoakConfig(/*seed=*/3);
  config.fault_a_to_b = FleetMixForSeed(3, 0xA2B);
  config.fault_b_to_a = FleetMixForSeed(3, 0xB2A);

  auto run = [&](FleetResult* result) {
    RecorderSession session(1u << 18);
    *result = RunFleet(config);
    return RecordingToJson(session.Stop());
  };
  FleetResult first_result;
  FleetResult second_result;
  std::string first = run(&first_result);
  std::string second = run(&second_result);

  ASSERT_TRUE(first_result.status.ok());
  // Byte identity of the full flight recording — every wire event, every
  // retransmit, every shed decision, at identical virtual timestamps.
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_result.completed, second_result.completed);
  EXPECT_EQ(first_result.failed, second_result.failed);
  EXPECT_EQ(first_result.p99_nanos, second_result.p99_nanos);
  EXPECT_EQ(first_result.mux.retransmits, second_result.mux.retransmits);
  EXPECT_EQ(first_result.wire.delivered, second_result.wire.delivered);
}

TEST(FleetSoakTest, OverloadShedsBeforeExecutionNotAfter) {
  // One slow worker, a tiny run queue, and a burst far past capacity: the
  // shed policy must engage, and because sheds happen before the xid
  // enters the executed set, retransmitted sheds execute cleanly later —
  // the census still never exceeds one execution per (conn, xid).
  FleetConfig config;
  config.num_clients = 30;
  config.calls_per_client = 4;
  config.mean_interarrival_nanos = 100'000;  // 0.1 ms: a burst
  config.seed = 11;
  config.mux.retry.max_attempts = 12;
  config.mux.retry.deadline_nanos = 8'000'000'000;
  config.dispatch.workers = 1;
  config.dispatch.run_queue_limit = 2;

  std::map<uint64_t, uint64_t> executions;
  FleetResult result = RunFleet(config, &executions);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  const uint64_t total = uint64_t{config.num_clients} *
                         config.calls_per_client;
  EXPECT_GT(result.dispatch.shed_run, 0u);
  EXPECT_EQ(result.completed + result.failed, total);
  AssertAtMostOnce(executions, total);
  EXPECT_EQ(result.evicted_reexecs, 0u);
  // Shed calls complete via retransmit: retransmits at least covered the
  // sheds that were eventually answered.
  EXPECT_GT(result.mux.retransmits, 0u);
}

TEST(FleetSoakTest, HeavyTailedArrivalsStallTheWindowNotTheProof) {
  FleetConfig config = SoakConfig(/*seed=*/5);
  config.heavy_tailed = true;
  config.mean_interarrival_nanos = 100'000;
  config.mux.per_conn_window = 1;  // serialize per connection

  std::map<uint64_t, uint64_t> executions;
  FleetResult result = RunFleet(config, &executions);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  const uint64_t total = uint64_t{config.num_clients} *
                         config.calls_per_client;
  // A window of one behind bursty arrivals must queue submissions...
  EXPECT_GT(result.mux.flow_stalls, 0u);
  // ...but over a perfect wire everything still completes exactly once.
  EXPECT_EQ(result.completed, total);
  EXPECT_EQ(executions.size(), total);
  AssertAtMostOnce(executions, total);
  EXPECT_EQ(result.evicted_reexecs, 0u);
}

// Satellite: per-connection RTT estimation. One mux, two connections on
// one wire and one worker pool: connection A issues fast calls (16-byte
// replies), connection B issues slow ones (50 KB replies, ~50 ms of
// modeled service each, paced so B occupies at most one of two workers).
// With a single shared estimator — the failing-before shape — B's 50 ms
// samples would drag the shared srtt up and inflate A's RTO past B's RTT.
// Per-connection estimators keep A's RTO derived from A's own samples.
TEST(FleetSoakTest, AdaptiveRtoIsPerConnection) {
  VirtualClock clock;
  EventQueue events(&clock);
  DatagramChannel channel(LinkModel(FleetLinkConfig()), FaultPlan(),
                          FaultPlan(), &clock);
  DatagramHandler handler = [](ByteSpan request,
                               std::vector<uint8_t>* reply) {
    ByteReader r(request);
    auto xid = r.ReadU32Be();
    auto conn = r.ReadU32Be();
    auto reply_size = r.ReadU32Be();
    if (!xid.ok() || !conn.ok() || !reply_size.ok()) {
      return InvalidArgumentError("short request");
    }
    reply->clear();
    auto push_u32 = [reply](uint32_t v) {
      reply->push_back(static_cast<uint8_t>(v >> 24));
      reply->push_back(static_cast<uint8_t>(v >> 16));
      reply->push_back(static_cast<uint8_t>(v >> 8));
      reply->push_back(static_cast<uint8_t>(v));
    };
    push_u32(*xid);
    push_u32(*conn);
    reply->resize(8 + *reply_size, 0xCD);
    return Status::Ok();
  };

  MuxPolicy policy;
  policy.retry.max_attempts = 12;
  policy.retry.deadline_nanos = 8'000'000'000;
  policy.retry.adaptive.enabled = true;
  // First-sample RTO above B's ~50 ms service time, so neither connection
  // retransmits and every reply yields a clean (Karn-admissible) sample.
  policy.retry.initial_rto_nanos = 200'000'000;
  // A's converged RTO floors here. 5 ms absorbs the wire-sharing delay a
  // 50 KB reply of B's adds in front of A's reply (~0.5 ms) while staying
  // an order of magnitude under B's srtt — the inequality under test.
  policy.retry.adaptive.min_rto_nanos = 5'000'000;

  DispatchPolicy dispatch_policy;
  dispatch_policy.workers = 2;
  dispatch_policy.service.per_byte_sec = 1e-6;  // 1 us/byte: size is cost

  ConnectionMux mux(&channel, policy, &events);
  ServerDispatch dispatch(&channel, std::move(handler), dispatch_policy,
                          &events);
  mux.set_request_listener([&dispatch]() { dispatch.Poke(); });
  dispatch.set_reply_listener([&mux]() { mux.Poke(); });

  uint32_t conn_a = mux.OpenConnection();
  uint32_t conn_b = mux.OpenConnection();
  auto make_body = [](uint32_t reply_size) {
    std::vector<uint8_t> body(4);
    body[0] = static_cast<uint8_t>(reply_size >> 24);
    body[1] = static_cast<uint8_t>(reply_size >> 16);
    body[2] = static_cast<uint8_t>(reply_size >> 8);
    body[3] = static_cast<uint8_t>(reply_size);
    return body;
  };
  uint64_t ok = 0;
  uint64_t failed = 0;
  auto done = [&ok, &failed](Status st, std::vector<uint8_t>) {
    st.ok() ? ++ok : ++failed;
  };
  // A: 30 fast calls every 10 ms. B: 8 slow calls every 100 ms — spaced
  // past their own service time, so B never occupies both workers and A's
  // samples measure A's service, not queueing behind B.
  for (uint64_t k = 0; k < 30; ++k) {
    events.ScheduleAt(1 + k * 10'000'000,
                      [&mux, &make_body, &done, conn_a]() {
                        auto body = make_body(16);
                        mux.Submit(conn_a,
                                   ByteSpan(body.data(), body.size()), done);
                      });
  }
  for (uint64_t k = 0; k < 8; ++k) {
    events.ScheduleAt(1 + k * 100'000'000,
                      [&mux, &make_body, &done, conn_b]() {
                        auto body = make_body(50'000);
                        mux.Submit(conn_b,
                                   ByteSpan(body.data(), body.size()), done);
                      });
  }
  while (events.RunNext()) {
  }

  ASSERT_EQ(ok, 38u);
  ASSERT_EQ(failed, 0u);
  EXPECT_EQ(mux.stats().retransmits, 0u);

  const RttEstimator* rtt_a = mux.conn_rtt(conn_a);
  const RttEstimator* rtt_b = mux.conn_rtt(conn_b);
  ASSERT_NE(rtt_a, nullptr);
  ASSERT_NE(rtt_b, nullptr);
  EXPECT_EQ(rtt_a->samples(), 30u);
  EXPECT_EQ(rtt_b->samples(), 8u);
  // B's RTT really is an order of magnitude above A's...
  EXPECT_GT(rtt_b->srtt_nanos(), 8 * rtt_a->srtt_nanos());
  // ...and the independence claim: A's RTO sits *below* B's smoothed RTT.
  // A shared estimator would have folded B's ~50 ms samples into the
  // srtt that A's RTO is derived from, forcing A's RTO above it.
  EXPECT_LT(rtt_a->rto_nanos(), rtt_b->srtt_nanos());
  EXPECT_EQ(mux.stats().rtt_samples, 38u);
  EXPECT_EQ(mux.stats().karn_skips, 0u);
}

// flexwatch gate (tentpole): under the full fault matrix, the same seed
// serializes to a byte-identical TIMELINE artifact — and installing the
// sampler does not perturb the simulation (the flight recording with the
// sampler running matches the recording without it, byte for byte).
TEST(FleetSoakTest, SameSeedTimelineIsByteIdenticalAndNonPerturbing) {
  FleetConfig config = SoakConfig(/*seed=*/4);
  config.fault_a_to_b = FleetMixForSeed(4, 0xA2B);
  config.fault_b_to_a = FleetMixForSeed(4, 0xB2A);
  config.mux.retry.adaptive.enabled = true;  // cover the adaptive path too

  auto run = [&](std::string* recording_json) {
    RecorderSession session(1u << 18);
    FleetResult result = RunFleet(config);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    *recording_json = RecordingToJson(session.Stop());
    return TimelineToJson(result.timeline);
  };

  std::string baseline_recording;
  config.timeline_tick_nanos = 0;
  run(&baseline_recording);

  config.timeline_tick_nanos = 1'000'000;  // 1 ms virtual tick
  std::string first_recording;
  std::string second_recording;
  std::string first = run(&first_recording);
  std::string second = run(&second_recording);

  // Same seed, same bytes — the discipline every artifact in this repo
  // follows, now including the timeline.
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_recording, second_recording);
  // The sampler only reads: the recording is identical with it installed.
  EXPECT_EQ(baseline_recording, first_recording);

  auto parsed = ParseTimeline(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tick_nanos, 1'000'000u);
  EXPECT_GT(parsed->ticks, 0u);
  EXPECT_FALSE(parsed->sketches.empty());
  EXPECT_EQ(TimelineToJson(*parsed), first);  // parse/serialize round trip
}

}  // namespace
}  // namespace flexrpc
