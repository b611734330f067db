// Managed-binding failover — time-to-recover across a kill-point sweep.
//
// A pipelined NFS read runs through the BinderTransport control plane
// (src/rpc/binder.h) over three replicas, each a 1×W call engine; the primary's wire is killed at
// swept packet offsets (first packet, a quarter in, halfway, the last
// chunk, and one point past the end of the read). For each kill the bench
// reports total virtual latency, the slowdown versus the clean run, and
// time-to-recover — last suspect transition to the first OK completion
// after cutover, straight from the binder's stats. Everything runs on the
// VirtualClock with fixed seeds, so every figure and every trace counter
// is deterministic and the CI budget gate pins the failover counters
// (rpc.binder.*, rpc.failover.*) exactly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/net/sunrpc.h"
#include "src/rpc/binder.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"

namespace {

using flexrpc::BinderPolicy;
using flexrpc::BinderTransport;
using flexrpc::DatagramChannel;
using flexrpc::DatagramHandler;
using flexrpc::EncodeSunRpcCall;
using flexrpc::EventQueue;
using flexrpc::FaultPlan;
using flexrpc::LinkModel;
using flexrpc::MuxPolicy;
using flexrpc::NfsClient;
using flexrpc::NfsFileServer;
using flexrpc::RemoteServerModel;
using flexrpc::ReplicaGroup;
using flexrpc::SunRpcCall;
using flexrpc::VirtualClock;
using flexrpc::XdrWriter;

constexpr size_t kFileSize = 256u << 10;  // 128 chunks at full fidelity
constexpr size_t kSmokeSize = 64u << 10;
constexpr size_t kChunkBytes = 2048;
constexpr size_t kReplicas = 3;
constexpr uint64_t kNoKill = UINT64_MAX;

struct RunResult {
  NfsClient::ReadStats stats;
  BinderTransport::Stats binder;
  double virtual_seconds = 0;
};

// One managed read over three replicas; replica 0's wire (both
// directions) goes dead starting at packet `kill_packet`.
RunResult RunManaged(uint64_t seed, size_t file_size, uint64_t kill_packet) {
  NfsFileServer client_server(file_size, seed);
  NfsClient client(&client_server, LinkModel(), RemoteServerModel());
  std::vector<std::unique_ptr<NfsFileServer>> replicas;
  for (size_t i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<NfsFileServer>(file_size, seed));
  }

  VirtualClock clock;
  EventQueue events(&clock);
  std::vector<std::unique_ptr<DatagramChannel>> channels;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (size_t i = 0; i < kReplicas; ++i) {
    FaultPlan to_server;
    FaultPlan to_client;
    if (i == 0 && kill_packet != kNoKill) {
      to_server.KillFrom(kill_packet);
      to_client.KillFrom(kill_packet);
    }
    channels.push_back(std::make_unique<DatagramChannel>(
        LinkModel(), std::move(to_server), std::move(to_client), &clock));
    specs.push_back({channels.back().get(),
                     NfsFileServer::MakeHandler(replicas[i].get())});
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
  uint8_t fh[flexrpc::kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  binder_policy.make_probe = [&client, &fh](uint32_t xid) {
    XdrWriter w;
    EncodeSunRpcCall(&w, SunRpcCall{xid, flexrpc::kNfsProgram,
                                    flexrpc::kNfsVersion,
                                    flexrpc::kNfsProcRead});
    NfsClient::ChunkArgs chunk{fh, 0, 1, nullptr};
    auto encoded = client.EncodeRequest(
        NfsClient::StubKind::kGeneratedUserBuffer, chunk, &w);
    if (!encoded.ok()) {
      std::fprintf(stderr, "probe encode failed: %s\n",
                   encoded.status().ToString().c_str());
      std::abort();
    }
    flexrpc::ByteSpan span = w.span();
    return std::vector<uint8_t>(span.begin(), span.end());
  };
  BinderTransport binder(&group, std::move(binder_policy));

  auto stats = client.ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                   &binder, &clock, kChunkBytes);
  if (!stats.ok()) {
    std::fprintf(stderr, "managed NFS read failed: %s\n",
                 stats.status().ToString().c_str());
    std::abort();
  }
  RunResult result;
  result.stats = *stats;
  result.binder = binder.stats();
  result.virtual_seconds = static_cast<double>(clock.now_nanos()) * 1e-9;
  return result;
}

// Suspect transition to the first OK completion after cutover, in ms.
double TimeToRecoverMs(const BinderTransport::Stats& binder) {
  if (binder.first_recovery_nanos == 0 || binder.last_suspect_nanos == 0 ||
      binder.first_recovery_nanos < binder.last_suspect_nanos) {
    return 0;
  }
  return static_cast<double>(binder.first_recovery_nanos -
                             binder.last_suspect_nanos) * 1e-6;
}

void BM_ManagedNfsRead(benchmark::State& state) {
  const uint64_t kill = state.range(0) < 0
                            ? kNoKill
                            : static_cast<uint64_t>(state.range(0));
  uint64_t bytes = 0;
  double virtual_seconds = 0;
  for (auto _ : state) {
    auto result = RunManaged(17, kSmokeSize, kill);
    bytes += result.stats.bytes_read;
    virtual_seconds += result.virtual_seconds;
  }
  state.counters["virtual_s_per_MB"] = benchmark::Counter(
      virtual_seconds / (static_cast<double>(bytes) / (1 << 20)));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_ManagedNfsRead)->Arg(-1)->Arg(4)->Unit(
    benchmark::kMillisecond);

int main(int argc, char** argv) {
  flexrpc_bench::BenchHarness harness("failover_nfs", &argc, argv);
  harness.RunMicrobenchmarks();

  using flexrpc_bench::Bar;
  using flexrpc_bench::PercentMore;
  using flexrpc_bench::PrintHeader;
  using flexrpc_bench::PrintRule;

  PrintHeader(
      "Managed NFS read: primary killed at swept packet offsets "
      "(virtual time)");

  const size_t kRunSize = harness.bytes(kFileSize, kSmokeSize);
  const uint64_t kChunks = kRunSize / kChunkBytes;

  RunResult clean =
      harness.Untraced([&] { return RunManaged(17, kRunSize, kNoKill); });

  // Kill points by position in the read, so the sweep (and the reported
  // figure keys) stays the same shape at smoke and full sizes.
  struct KillPoint {
    const char* key;
    uint64_t packet;
  };
  const KillPoint kKills[] = {
      {"kill_first", 0},
      {"kill_quarter", kChunks / 4},
      {"kill_half", kChunks / 2},
      {"kill_last", kChunks - 1},
      {"kill_beyond", kChunks * 2},  // past the read: must match clean
  };

  struct Row {
    const KillPoint* kill;
    RunResult result;
  };
  std::vector<Row> rows;
  for (const KillPoint& kill : kKills) {
    rows.push_back({&kill, harness.Untraced([&] {
                      return RunManaged(17, kRunSize, kill.packet);
                    })});
  }
  // One traced repetition (clean + the quarter-point kill) pins the
  // rpc.binder.* / rpc.failover.* counters for the budget gate.
  harness.Traced([&] {
    (void)RunManaged(17, kRunSize, kNoKill);
    (void)RunManaged(17, kRunSize, kChunks / 4);
  });

  double max_virtual = clean.virtual_seconds;
  for (const Row& row : rows) {
    max_virtual = std::max(max_virtual, row.result.virtual_seconds);
  }
  std::printf("%-14s %10s %9s %8s %8s %9s\n", "", "virtual(s)", "slowdown",
              "cutover", "reissue", "ttr(ms)");
  std::printf("%-14s %10.3f %8.1f%% %8llu %8llu %9s  %s\n", "clean",
              clean.virtual_seconds, 0.0,
              static_cast<unsigned long long>(clean.binder.cutovers),
              static_cast<unsigned long long>(clean.binder.reissues), "-",
              Bar(clean.virtual_seconds, max_virtual, 20).c_str());
  for (const Row& row : rows) {
    double ttr = TimeToRecoverMs(row.result.binder);
    char ttr_text[32];
    if (row.result.binder.cutovers > 0) {
      std::snprintf(ttr_text, sizeof(ttr_text), "%9.3f", ttr);
    } else {
      std::snprintf(ttr_text, sizeof(ttr_text), "%9s", "-");
    }
    std::printf("%-14s %10.3f %8.1f%% %8llu %8llu %s  %s\n",
                row.kill->key, row.result.virtual_seconds,
                PercentMore(clean.virtual_seconds,
                            row.result.virtual_seconds),
                static_cast<unsigned long long>(row.result.binder.cutovers),
                static_cast<unsigned long long>(row.result.binder.reissues),
                ttr_text,
                Bar(row.result.virtual_seconds, max_virtual, 20).c_str());
  }
  PrintRule();
  std::printf(
      "kill past the end of the read matches clean exactly: %s\n",
      rows.back().result.virtual_seconds == clean.virtual_seconds
          ? "yes"
          : "NO (regression)");

  if (harness.record()) {
    // One extra rep of an early kill under a flight-recorder session
    // (untraced: the gated counters must not see it). The recording
    // carries the kFailover/kRebind events and per-replica tags, so the
    // archived Chrome trace shows the cutover on its own replica tracks.
    harness.Untraced([&] {
      flexrpc::RecorderSession rec_session;
      (void)RunManaged(17, kRunSize, 2);
      flexrpc::Recording recording = rec_session.Stop();
      harness.WriteArtifact("REC_failover_nfs.json",
                            flexrpc::RecordingToJson(recording));
      harness.WriteArtifact("TRACE_failover_nfs.json",
                            flexrpc::ExportChromeTrace(recording));
      return 0;
    });
  }

  harness.Report("clean_virtual_seconds", clean.virtual_seconds, "s");
  for (const Row& row : rows) {
    std::string key = row.kill->key;
    harness.Report(key + "_virtual_seconds", row.result.virtual_seconds,
                   "s");
    harness.Report(key + "_slowdown_pct",
                   PercentMore(clean.virtual_seconds,
                               row.result.virtual_seconds),
                   "%");
    harness.Report(key + "_ttr_ms", TimeToRecoverMs(row.result.binder),
                   "ms");
  }
  return harness.Finish();
}
