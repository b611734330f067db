// flexbind unit tests: the FailoverTracker state machine and the
// BinderTransport's routing, cutover, probe/reinstate behavior, xid
// contract, and teardown over scripted per-replica faults. Each replica is
// a 1×W call engine (ServerConnection).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/rpc/binder.h"
#include "src/rpc/failover.h"
#include "src/rpc/retry.h"
#include "src/support/event_queue.h"
#include "src/support/status.h"
#include "src/support/timing.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

// --- FailoverTracker: the pure health state machine ---------------------

FailoverPolicy FastFailover() {
  FailoverPolicy p;
  p.suspect_after = 2;
  p.probe_interval_nanos = 10'000'000;       // 10 ms
  p.max_probe_interval_nanos = 40'000'000;   // 40 ms cap
  return p;
}

TEST(FailoverTrackerTest, SuspectAfterConsecutiveFailures) {
  FailoverTracker t(FastFailover());
  EXPECT_TRUE(t.healthy());
  EXPECT_FALSE(t.OnFailure(100));  // 1 of 2: still healthy
  EXPECT_TRUE(t.healthy());
  EXPECT_TRUE(t.OnFailure(200));  // 2 of 2: the suspect transition
  EXPECT_EQ(t.health(), ReplicaHealth::kSuspect);
  EXPECT_FALSE(t.OnFailure(300));  // more evidence, no new transition
  EXPECT_EQ(t.next_probe_nanos(), 200u + 10'000'000u);
}

TEST(FailoverTrackerTest, SuccessResetsTheConsecutiveCount) {
  FailoverTracker t(FastFailover());
  EXPECT_FALSE(t.OnFailure(100));
  EXPECT_FALSE(t.OnSuccess());  // healthy -> healthy: no transition
  EXPECT_EQ(t.consecutive_failures(), 0u);
  // The count restarted, so it takes the full threshold again.
  EXPECT_FALSE(t.OnFailure(200));
  EXPECT_TRUE(t.OnFailure(300));
}

TEST(FailoverTrackerTest, ProbeBackoffDoublesAndCaps) {
  FailoverTracker t(FastFailover());
  t.OnFailure(0);
  t.OnFailure(0);  // suspect; first probe due at 10 ms
  EXPECT_FALSE(t.ProbeDue(9'999'999));
  EXPECT_TRUE(t.ProbeDue(10'000'000));
  t.OnProbeSent(10'000'000);
  EXPECT_EQ(t.health(), ReplicaHealth::kProbing);
  // Doubled to 20 ms for the retry...
  EXPECT_EQ(t.next_probe_nanos(), 10'000'000u + 20'000'000u);
  t.OnFailure(15'000'000);  // probe timed out: back to suspect
  EXPECT_EQ(t.health(), ReplicaHealth::kSuspect);
  t.OnProbeSent(30'000'000);
  // ...then 40 ms, which is also the cap.
  EXPECT_EQ(t.next_probe_nanos(), 30'000'000u + 40'000'000u);
  t.OnFailure(60'000'000);
  t.OnProbeSent(70'000'000);
  EXPECT_EQ(t.next_probe_nanos(), 70'000'000u + 40'000'000u);
}

TEST(FailoverTrackerTest, AnySuccessReinstatesAndResetsBackoff) {
  FailoverTracker t(FastFailover());
  t.OnFailure(0);
  t.OnFailure(0);
  t.OnProbeSent(10'000'000);
  EXPECT_TRUE(t.OnSuccess());  // the reinstate transition
  EXPECT_TRUE(t.healthy());
  EXPECT_EQ(t.consecutive_failures(), 0u);
  // Backoff reset: the next suspicion starts probing at the base interval.
  t.OnFailure(50'000'000);
  t.OnFailure(60'000'000);
  EXPECT_EQ(t.next_probe_nanos(), 60'000'000u + 10'000'000u);
}

// --- shared rigging -----------------------------------------------------

// 4-byte big-endian xid + filler as the call body; the echo handler
// reflects the whole request (engine prefix included) back.
std::vector<uint8_t> MakeRequest(uint32_t xid, size_t payload = 4) {
  std::vector<uint8_t> req = {
      static_cast<uint8_t>(xid >> 24), static_cast<uint8_t>(xid >> 16),
      static_cast<uint8_t>(xid >> 8), static_cast<uint8_t>(xid)};
  req.resize(req.size() + payload, 0x5A);
  return req;
}

MuxPolicy FastPipeline() {
  MuxPolicy p;
  p.per_conn_window = 8;
  p.retry.initial_rto_nanos = 5'000'000;  // 5 ms: fast failure detection
  p.retry.max_rto_nanos = 40'000'000;
  p.retry.max_attempts = 12;
  p.retry.deadline_nanos = 2'000'000'000;
  p.retry.jitter_seed = 77;
  return p;
}

// N echo replicas behind one binder, each replica's wire scripted by its
// own FaultPlan pair. Executions are counted per (replica, xid).
class BinderRig {
 public:
  BinderRig(std::vector<std::pair<FaultPlan, FaultPlan>> plans,
            BinderPolicy binder_policy,
            MuxPolicy pipeline_policy = FastPipeline())
      : events_(&clock_) {
    size_t n = plans.size();
    executions_.resize(n);
    std::vector<ReplicaGroup::ReplicaSpec> specs;
    for (size_t i = 0; i < n; ++i) {
      channels_.push_back(std::make_unique<DatagramChannel>(
          LinkModel(), std::move(plans[i].first),
          std::move(plans[i].second), &clock_));
      auto* executions = &executions_[i];
      DatagramHandler handler = [executions](ByteSpan request,
                                             std::vector<uint8_t>* reply) {
        auto xid = PeekXid(request);
        if (xid.ok()) {
          ++(*executions)[*xid];
        }
        reply->assign(request.begin(), request.end());
        return Status::Ok();
      };
      specs.push_back({channels_.back().get(), std::move(handler)});
    }
    group_ = std::make_unique<ReplicaGroup>(std::move(specs),
                                            pipeline_policy, &events_);
    binder_ = std::make_unique<BinderTransport>(group_.get(),
                                                std::move(binder_policy));
  }

  BinderTransport& binder() { return *binder_; }
  void DestroyBinder() { binder_.reset(); }
  EventQueue& events() { return events_; }
  const std::map<uint32_t, int>& executions(size_t replica) const {
    return executions_[replica];
  }

  // Submits `count` echo calls (xids 1..count) and drives to completion.
  // Returns how many completed OK.
  size_t RunEchoCalls(size_t count) {
    size_t ok = 0;
    for (uint32_t xid = 1; xid <= count; ++xid) {
      auto request = MakeRequest(xid);
      binder_->Submit(xid, ByteSpan(request.data(), request.size()),
                      [&ok](Status status, std::vector<uint8_t>) {
                        if (status.ok()) {
                          ++ok;
                        }
                      });
    }
    EXPECT_TRUE(binder_->Drive().ok());
    return ok;
  }

 private:
  VirtualClock clock_;
  EventQueue events_;
  std::vector<std::unique_ptr<DatagramChannel>> channels_;
  std::vector<std::map<uint32_t, int>> executions_;
  std::unique_ptr<ReplicaGroup> group_;
  std::unique_ptr<BinderTransport> binder_;
};

std::vector<std::pair<FaultPlan, FaultPlan>> PerfectWires(size_t n) {
  std::vector<std::pair<FaultPlan, FaultPlan>> plans(n);
  return plans;
}

BinderPolicy EchoProbePolicy() {
  BinderPolicy p;
  p.failover = FastFailover();
  p.make_probe = [](uint32_t xid) { return MakeRequest(xid); };
  return p;
}

// --- BinderTransport ----------------------------------------------------

TEST(BinderTest, PrimaryBackupRoutesEverythingToThePrimary) {
  BinderRig rig(PerfectWires(3), EchoProbePolicy());
  EXPECT_EQ(rig.RunEchoCalls(8), 8u);
  const auto& stats = rig.binder().stats();
  EXPECT_EQ(stats.calls, 8u);
  EXPECT_EQ(stats.per_replica_calls[0], 8u);
  EXPECT_EQ(stats.per_replica_calls[1], 0u);
  EXPECT_EQ(stats.per_replica_calls[2], 0u);
  EXPECT_EQ(stats.suspects, 0u);
  EXPECT_EQ(stats.cutovers, 0u);
}

TEST(BinderTest, DeadPrimaryCutsOverWithoutDroppingCalls) {
  auto plans = PerfectWires(3);
  plans[0].first.KillFrom(0);   // requests into replica 0 vanish
  plans[0].second.KillFrom(0);  // and nothing ever comes back
  BinderRig rig(std::move(plans), EchoProbePolicy());
  EXPECT_EQ(rig.RunEchoCalls(8), 8u);
  const auto& stats = rig.binder().stats();
  EXPECT_GE(stats.suspects, 1u);
  EXPECT_GE(stats.cutovers, 1u);
  EXPECT_GE(stats.reissues, 8u);  // every call migrated off the corpse
  EXPECT_EQ(rig.binder().primary(), 1u);
  // The dead replica executed nothing; the backup executed each xid
  // exactly once (its own dup cache enforces at-most-once per replica).
  EXPECT_TRUE(rig.executions(0).empty());
  for (const auto& [xid, count] : rig.executions(1)) {
    EXPECT_EQ(count, 1) << "xid " << xid;
  }
  EXPECT_NE(rig.binder().health(0), ReplicaHealth::kHealthy);
  // TTR instrumentation populated: suspect, cutover, then recovery.
  EXPECT_GT(stats.last_suspect_nanos, 0u);
  EXPECT_GE(stats.last_cutover_nanos, stats.last_suspect_nanos);
  EXPECT_GT(stats.first_recovery_nanos, stats.last_cutover_nanos);
}

TEST(BinderTest, TransientOutageIsProbedAndReinstated) {
  auto plans = PerfectWires(3);
  // Replica 0 drops its first 40 inbound requests, then heals. Calls cut
  // over to replica 1; probes keep retrying replica 0 on backoff until one
  // lands past the outage window and reinstates it.
  plans[0].first.DropExactly(0, 39);
  BinderRig rig(std::move(plans), EchoProbePolicy());
  EXPECT_EQ(rig.RunEchoCalls(8), 8u);
  EXPECT_GE(rig.binder().stats().cutovers, 1u);
  // Keep the probe machinery running after the calls finished.
  rig.events().RunUntilIdle(/*max_events=*/200'000);
  const auto& stats = rig.binder().stats();
  EXPECT_GE(stats.probes_sent, 1u);
  EXPECT_GE(stats.reinstates, 1u);
  EXPECT_EQ(rig.binder().health(0), ReplicaHealth::kHealthy);
}

TEST(BinderTest, ManagedNfsReadOverPerfectWiresMatchesPipelined) {
  // The managed path over healthy replicas is just the 1×W engine with
  // routing in front: a full NFS read must verify byte-identical and take
  // exactly the virtual time the bare engine takes.
  constexpr size_t kFile = 64 * 1024;
  NfsFileServer server(kFile, /*seed=*/11);
  // Default tuning: the aggressive 5 ms test RTO false-fires on real NFS
  // reply latencies; the clean path must look exactly like the pipelined
  // path, spurious suspects included.
  MuxPolicy pipeline;
  pipeline.per_conn_window = 8;
  pipeline.retry.jitter_seed = 11;

  uint64_t bare_nanos = 0;
  {
    NfsClient client(&server, LinkModel(), RemoteServerModel());
    VirtualClock clock;
    EventQueue events(&clock);
    DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
    ServerConnection rpc(&channel, NfsFileServer::MakeHandler(&server),
                         pipeline, &events);
    ASSERT_TRUE(client
                    .ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                  &rpc, &clock, 2048)
                    .ok());
    bare_nanos = clock.now_nanos();
  }

  std::vector<NfsFileServer> replicas;
  replicas.reserve(3);
  for (int i = 0; i < 3; ++i) {
    replicas.emplace_back(kFile, /*seed=*/11);
  }
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  EventQueue events(&clock);
  std::vector<std::unique_ptr<DatagramChannel>> channels;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (int i = 0; i < 3; ++i) {
    channels.push_back(std::make_unique<DatagramChannel>(
        LinkModel(), FaultPlan(), FaultPlan(), &clock));
    specs.push_back({channels.back().get(),
                     NfsFileServer::MakeHandler(&replicas[i])});
  }
  ReplicaGroup group(std::move(specs), pipeline, &events);
  BinderTransport binder(&group, BinderPolicy{});
  auto stats = client.ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                   &binder, &clock, 2048);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes_read, kFile);
  EXPECT_EQ(group.replica(0)->mux().stats().retransmits, 0u);
  EXPECT_EQ(binder.stats().cutovers, 0u);
  EXPECT_EQ(clock.now_nanos(), bare_nanos);
}

TEST(BinderTest, DuplicateXidIsRejectedNotLost) {
  // A second Submit under an xid still bound to a replica used to alias
  // the first call's binding: one completion was silently dropped and
  // Drive returned OK with it never run. Now it is refused, once.
  BinderRig rig(PerfectWires(2), EchoProbePolicy());
  std::vector<StatusCode> codes;
  for (int i = 0; i < 2; ++i) {
    auto request = MakeRequest(5);
    rig.binder().Submit(5, ByteSpan(request.data(), request.size()),
                        [&codes](Status status, std::vector<uint8_t>) {
                          codes.push_back(status.code());
                        });
  }
  ASSERT_TRUE(rig.binder().Drive().ok());
  EXPECT_EQ(codes, (std::vector<StatusCode>{StatusCode::kAlreadyExists,
                                            StatusCode::kOk}));
  EXPECT_EQ(rig.binder().stats().calls, 1u);
  EXPECT_EQ(rig.executions(0).at(5), 1);
}

TEST(BinderTest, DestroyedBinderLeavesNothingQueued) {
  // Dead primary, one attempt, no re-issues: the RTO fire marks replica 0
  // suspect and queues a cutover, then the call fails and Drive returns
  // with that cutover still pending. Destroying the binder must withdraw
  // it — running it afterwards would call into a dead object.
  auto plans = PerfectWires(2);
  plans[0].first.KillFrom(0);
  plans[0].second.KillFrom(0);
  BinderPolicy policy;
  policy.failover.suspect_after = 1;
  policy.reissue_budget = 0;
  MuxPolicy pipeline = FastPipeline();
  pipeline.retry.max_attempts = 1;
  BinderRig rig(std::move(plans), std::move(policy), pipeline);
  EXPECT_EQ(rig.RunEchoCalls(1), 0u);
  EXPECT_GT(rig.events().pending(), 0u);  // the cutover, still queued
  rig.DestroyBinder();
  EXPECT_EQ(rig.events().pending(), 0u);
}

}  // namespace
}  // namespace flexrpc
