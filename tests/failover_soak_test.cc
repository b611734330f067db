// Failover soak: scripted replica-death matrix over the managed NFS read.
//
// A 64 KB pipelined read runs through a BinderTransport over three
// replicas (each a 1×8 call engine); the primary is killed at every point in a swept packet
// schedule (including "before the first packet" and "after the read
// would have finished"). The robustness contract under test:
//   * the read always completes OK and delivers byte-exact file contents;
//   * no replica ever executes the same xid twice (per-replica
//     at-most-once holds through cutover — cross-replica re-execution is
//     the counted, safe case);
//   * total virtual latency stays within 3x the clean run;
//   * the whole timeline is deterministic: two runs of any kill point
//     produce exact-equal trace counters and byte-identical recordings.
//
// Registered under the `failover` ctest label via flexrpc_failover_tests;
// CI runs the label in the fault matrix and under TSan (tools/ci.sh).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/flexrec.h"
#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/net/sunrpc.h"
#include "src/rpc/binder.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

constexpr size_t kFileSize = 64 * 1024;
constexpr size_t kChunkBytes = 2048;  // 32 chunks: enough packets to sweep
constexpr size_t kReplicas = 3;
constexpr uint64_t kNever = UINT64_MAX;

// Kill replica `replica`'s wire starting at these 0-based packet indices
// (kNever = leave that direction alone).
struct KillSpec {
  size_t replica = 0;
  uint64_t requests_from = kNever;  // a2b: requests stop arriving
  uint64_t replies_from = kNever;   // b2a: replies stop escaping
};

struct FailoverOutcome {
  Status status = Status::Ok();
  NfsClient::ReadStats read;
  BinderTransport::Stats binder;
  std::vector<ServerDispatch::Stats> servers;
  int max_executions_per_replica_xid = 0;
  uint64_t cross_replica_reexecutions = 0;  // xids executed on >1 replica
  TraceSnapshot trace;
  uint64_t virtual_nanos = 0;
  std::string recording_json;  // deterministic serialization
};

// One full managed read, built from scratch so a repeat with the same
// arguments replays the identical event sequence.
FailoverOutcome RunManagedRead(uint64_t seed,
                               const std::vector<KillSpec>& kills) {
  TraceSession trace_session;
  RecorderSession recorder;

  // Identical file content on every replica (same size, same seed); the
  // client verifies delivered bytes against its own copy.
  NfsFileServer client_server(kFileSize, seed);
  NfsClient client(&client_server, LinkModel(), RemoteServerModel());
  std::vector<std::unique_ptr<NfsFileServer>> replicas;
  for (size_t i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<NfsFileServer>(kFileSize, seed));
  }

  VirtualClock clock;
  EventQueue events(&clock);
  std::vector<std::map<uint32_t, int>> executions(kReplicas);
  std::vector<std::unique_ptr<DatagramChannel>> channels;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (size_t i = 0; i < kReplicas; ++i) {
    FaultPlan to_server;
    FaultPlan to_client;
    for (const KillSpec& kill : kills) {
      if (kill.replica != i) {
        continue;
      }
      if (kill.requests_from != kNever) {
        to_server.KillFrom(kill.requests_from);
      }
      if (kill.replies_from != kNever) {
        to_client.KillFrom(kill.replies_from);
      }
    }
    channels.push_back(std::make_unique<DatagramChannel>(
        LinkModel(), std::move(to_server), std::move(to_client), &clock));
    auto* counts = &executions[i];
    DatagramHandler inner = NfsFileServer::MakeHandler(replicas[i].get());
    DatagramHandler counting = [counts, inner](ByteSpan request,
                                               std::vector<uint8_t>* reply) {
      auto xid = PeekXid(request);
      if (xid.ok()) {
        ++(*counts)[*xid];
      }
      return inner(request, reply);
    };
    specs.push_back({channels.back().get(), std::move(counting)});
  }

  MuxPolicy pipeline;
  pipeline.per_conn_window = 8;
  pipeline.retry.max_attempts = 12;
  pipeline.retry.deadline_nanos = 8'000'000'000;
  pipeline.retry.jitter_seed = seed + 1;
  ReplicaGroup group(std::move(specs), pipeline, &events);

  BinderPolicy binder_policy;
  binder_policy.failover.suspect_after = 2;
  // A probe is one minimal 1-byte NFS read (cheap, idempotent).
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  binder_policy.make_probe = [&client, &fh](uint32_t xid) {
    XdrWriter w;
    EncodeSunRpcCall(&w, SunRpcCall{xid, kNfsProgram, kNfsVersion,
                                    kNfsProcRead});
    NfsClient::ChunkArgs chunk{fh, 0, 1, nullptr};
    auto encoded = client.EncodeRequest(
        NfsClient::StubKind::kGeneratedUserBuffer, chunk, &w);
    EXPECT_TRUE(encoded.ok());
    ByteSpan span = w.span();
    return std::vector<uint8_t>(span.begin(), span.end());
  };
  BinderTransport binder(&group, std::move(binder_policy));

  FailoverOutcome outcome;
  auto read = client.ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                  &binder, &clock, kChunkBytes);
  if (read.ok()) {
    outcome.read = *read;
  } else {
    outcome.status = read.status();
  }
  outcome.binder = binder.stats();
  for (size_t i = 0; i < kReplicas; ++i) {
    outcome.servers.push_back(group.replica(i)->dispatch().stats());
  }
  std::map<uint32_t, int> replicas_touched;
  for (size_t i = 0; i < kReplicas; ++i) {
    for (const auto& [xid, count] : executions[i]) {
      outcome.max_executions_per_replica_xid =
          std::max(outcome.max_executions_per_replica_xid, count);
      ++replicas_touched[xid];
    }
  }
  for (const auto& [xid, touched] : replicas_touched) {
    if (touched > 1) {
      ++outcome.cross_replica_reexecutions;
    }
  }
  outcome.virtual_nanos = clock.now_nanos();
  outcome.recording_json = RecordingToJson(recorder.Stop());
  outcome.trace = trace_session.Report();
  return outcome;
}

std::vector<KillSpec> KillPrimaryAt(uint64_t packet) {
  return {{/*replica=*/0, /*requests_from=*/packet,
           /*replies_from=*/packet}};
}

// --- the kill-point matrix ----------------------------------------------

TEST(FailoverSoakTest, PrimaryKilledAtEveryPointStillCompletes) {
  FailoverOutcome clean = RunManagedRead(17, {});
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_EQ(clean.read.bytes_read, kFileSize);
  ASSERT_EQ(clean.binder.cutovers, 0u) << "clean run must not fail over";
  ASSERT_GT(clean.virtual_nanos, 0u);

  const uint64_t kill_points[] = {0, 1, 2, 4, 8, 16, 24, 31, 64};
  for (uint64_t kill : kill_points) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    FailoverOutcome outcome = RunManagedRead(17, KillPrimaryAt(kill));
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.read.bytes_read, kFileSize);
    // At-most-once per replica, even mid-cutover.
    EXPECT_LE(outcome.max_executions_per_replica_xid, 1);
    // Time to recover is bounded: the whole read, failover included,
    // stays within 3x the clean run.
    EXPECT_LE(outcome.virtual_nanos, 3 * clean.virtual_nanos)
        << outcome.virtual_nanos << " vs clean " << clean.virtual_nanos;
    if (kill < 64) {
      // The death was actually observed and handled.
      EXPECT_GE(outcome.binder.suspects, 1u);
      EXPECT_GE(outcome.binder.cutovers, 1u);
      EXPECT_GT(outcome.binder.per_replica_calls[1], 0u);
      EXPECT_GT(outcome.binder.first_recovery_nanos, 0u);
    } else {
      // Kill point beyond the read: indistinguishable from clean.
      EXPECT_EQ(outcome.binder.cutovers, 0u);
      EXPECT_EQ(outcome.virtual_nanos, clean.virtual_nanos);
    }
  }
}

TEST(FailoverSoakTest, CascadingDeathFailsOverTwice) {
  // Replica 0 dies immediately; replica 1 dies 8 packets into its own
  // tenure as primary. The read must end up whole on replica 2.
  std::vector<KillSpec> kills = {{0, 0, 0}, {1, 8, 8}};
  FailoverOutcome outcome = RunManagedRead(23, kills);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.read.bytes_read, kFileSize);
  EXPECT_LE(outcome.max_executions_per_replica_xid, 1);
  EXPECT_GE(outcome.binder.cutovers, 2u);
  EXPECT_GT(outcome.binder.per_replica_calls[2], 0u);
}

// --- cutover with in-flight xids: the at-most-once proof (satellite 2) --

TEST(FailoverSoakTest, ExecuteThenDieNeverDoubleExecutesOnOneReplica) {
  // Replies are killed from packet 0 but requests flow: the primary
  // EXECUTES every chunk it receives and the client never learns. This is
  // the adversarial case for cutover — every in-flight xid has already
  // run once when it migrates.
  std::vector<KillSpec> kills = {{0, kNever, 0}};
  FailoverOutcome outcome = RunManagedRead(29, kills);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.read.bytes_read, kFileSize);
  // The primary executed work; its dup cache absorbed every retransmit of
  // an already-executed xid (hits with no second execution).
  EXPECT_LE(outcome.max_executions_per_replica_xid, 1);
  EXPECT_GT(outcome.servers[0].executions, 0u);
  EXPECT_GE(outcome.servers[0].dup_replies, 1u);
  // Cross-replica re-execution happened (the safe, counted case): the
  // migrated xids ran again on the backup because the primary's execution
  // was unobservable.
  EXPECT_GE(outcome.cross_replica_reexecutions, 1u);
  EXPECT_GE(outcome.binder.reissues, 1u);
}

// --- determinism (satellite 3) ------------------------------------------

TEST(FailoverSoakTest, KillPointsAreTwoRunDeterministic) {
  const uint64_t kill_points[] = {0, 4, 16, 31};
  for (uint64_t kill : kill_points) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    FailoverOutcome first = RunManagedRead(5, KillPrimaryAt(kill));
    FailoverOutcome second = RunManagedRead(5, KillPrimaryAt(kill));
    ASSERT_TRUE(first.status.ok());
    ASSERT_TRUE(second.status.ok());
    for (size_t i = 0; i < kTraceCounterCount; ++i) {
      EXPECT_EQ(first.trace.counters[i], second.trace.counters[i])
          << TraceCounterName(static_cast<TraceCounter>(i));
    }
    EXPECT_EQ(first.recording_json, second.recording_json)
        << "recordings must be byte-identical";
    EXPECT_EQ(first.virtual_nanos, second.virtual_nanos);
  }
}

// --- the recording tells the failover story (satellite 6 wiring) --------

TEST(FailoverSoakTest, RecordingCarriesReplicaAttribution) {
  FailoverOutcome outcome = RunManagedRead(31, KillPrimaryAt(2));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();

  auto parsed = ParseRecording(outcome.recording_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  RecordingAnalysis analysis = AnalyzeRecording(*parsed);
  EXPECT_TRUE(analysis.failover.present);
  EXPECT_GE(analysis.failover.suspects, 1u);
  EXPECT_GE(analysis.failover.cutovers, 1u);
  EXPECT_GE(analysis.failover.rebinds, 1u);
  // Submissions were recorded on at least two distinct replicas.
  EXPECT_GE(analysis.failover.per_replica_submits.size(), 2u);
  EXPECT_GT(analysis.failover.cutover_to_recovery_nanos, 0u);

  std::string report = RenderReport(analysis);
  EXPECT_NE(report.find("failover (managed binding)"), std::string::npos);
  EXPECT_NE(report.find("rebinds"), std::string::npos);

  // Chrome export stays loadable and grows per-replica tracks.
  std::string chrome = ExportChromeTrace(*parsed);
  EXPECT_NE(chrome.find("[r1]"), std::string::npos);
  EXPECT_NE(chrome.find("[r2]"), std::string::npos);
}

}  // namespace
}  // namespace flexrpc
