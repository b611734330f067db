// Sliding-window pipelined NFS read — what call overlap buys in virtual
// time.
//
// The serial shape of the call engine (bench_fault_nfs) charges every call
// the full request + server + reply round trip before the next call may
// start. The pipelined shape — one connection, window W (src/rpc/mux.h) —
// keeps up to W calls in flight over the same datagram channel, so total
// time collapses toward the busiest single resource. This bench sweeps the window at small
// (512 B) chunks — where the read is latency/server-bound and the window
// pays off — and contrasts with full 8 KB chunks, where the reply wire is
// already saturated and the window can only help a little. A lossy row
// shows the overlap surviving drops: RTO retransmits and dup-cache hits
// happen per call without stalling the rest of the window.
//
// All figures are virtual-clock, so every number and every trace counter
// is deterministic and the CI budget gate pins them exactly.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_util.h"
#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/dispatch.h"
#include "src/support/event_queue.h"
#include "src/support/recorder.h"

namespace {

using flexrpc::DatagramChannel;
using flexrpc::EventQueue;
using flexrpc::FaultConfig;
using flexrpc::FaultPlan;
using flexrpc::LinkModel;
using flexrpc::MuxPolicy;
using flexrpc::NfsClient;
using flexrpc::NfsFileServer;
using flexrpc::RemoteServerModel;
using flexrpc::ServerConnection;
using flexrpc::VirtualClock;

constexpr size_t kFileSize = 1u << 20;  // full-fidelity run
constexpr size_t kSmokeSize = 64u << 10;

struct RunResult {
  NfsClient::ReadStats stats;
  flexrpc::ConnectionMux::Stats transport_stats;
  uint32_t final_window = 0;
  double virtual_seconds = 0;
};

RunResult RunPipelined(uint32_t window, size_t chunk_bytes, size_t file_size,
                       const FaultConfig& to_server,
                       const FaultConfig& to_client,
                       uint64_t rto_nanos = 20'000'000,
                       bool adaptive = false) {
  NfsFileServer server(file_size, /*seed=*/1995);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan{to_server},
                          FaultPlan{to_client}, &clock);
  EventQueue events(&clock);
  MuxPolicy policy;
  policy.per_conn_window = window;
  // The read submits every chunk up front and the deadline is armed at
  // submission (queued time counts), so a serial lossy run over thousands
  // of chunks needs a deadline covering the whole backlog.
  policy.retry.deadline_nanos = 60'000'000'000;
  // The RTO must sit above the window's worst-case reply queueing delay
  // or healthy-but-queued replies trigger spurious retransmits (the
  // fixed-RTO congestion collapse — callers pass a larger RTO for large
  // chunks, standing in for the adaptive RTT estimate real NFS used).
  policy.retry.initial_rto_nanos = rto_nanos;
  if (adaptive) {
    // The self-tuning transport: Jacobson/Karels RTO + AIMD window. No
    // per-scenario tuning — the RTO above seeds the estimator, plus a 5 ms
    // RTO floor (an NFS-style guard against under-timeout on fast paths).
    policy.retry.adaptive.enabled = true;
    policy.retry.adaptive.min_rto_nanos = 5'000'000;
  }
  ServerConnection rpc(&channel, NfsFileServer::MakeHandler(&server),
                       policy, &events);
  auto stats = client.ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                   &rpc, &clock, chunk_bytes);
  if (!stats.ok()) {
    std::fprintf(stderr, "pipelined NFS read failed: %s\n",
                 stats.status().ToString().c_str());
    std::abort();
  }
  RunResult result;
  result.stats = *stats;
  result.transport_stats = rpc.mux().stats();
  result.final_window = static_cast<uint32_t>(rpc.mux().total_window());
  result.virtual_seconds = static_cast<double>(clock.now_nanos()) * 1e-9;
  return result;
}

FaultConfig LossyMix() {
  FaultConfig config;
  config.drop_prob = 0.02;
  config.dup_prob = 0.02;
  config.reorder_prob = 0.02;
  config.seed = 205;
  return config;
}

void BM_PipelinedNfsRead(benchmark::State& state) {
  const uint32_t window = static_cast<uint32_t>(state.range(0));
  uint64_t bytes = 0;
  double virtual_seconds = 0;
  for (auto _ : state) {
    auto result = RunPipelined(window, 512, kSmokeSize, FaultConfig{},
                               FaultConfig{});
    bytes += result.stats.bytes_read;
    virtual_seconds += result.virtual_seconds;
  }
  state.counters["virtual_s_per_MB"] = benchmark::Counter(
      virtual_seconds / (static_cast<double>(bytes) / (1 << 20)));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_PipelinedNfsRead)->Arg(1)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

int main(int argc, char** argv) {
  flexrpc_bench::BenchHarness harness("pipeline_nfs", &argc, argv);
  harness.RunMicrobenchmarks();

  using flexrpc_bench::Bar;
  using flexrpc_bench::PrintHeader;
  using flexrpc_bench::PrintRule;

  PrintHeader(
      "Pipelined NFS read: window sweep at 512 B chunks (virtual time)");

  const size_t kRunSize = harness.bytes(kFileSize, kSmokeSize);
  const uint32_t kWindows[] = {1, 2, 4, 8, 16};

  struct Row {
    uint32_t window;
    RunResult result;
  };
  std::vector<Row> sweep;
  for (uint32_t window : kWindows) {
    Row row{window, harness.Untraced([&] {
              return RunPipelined(window, 512, kRunSize, FaultConfig{},
                                  FaultConfig{});
            })};
    sweep.push_back(row);
  }
  // One traced repetition (window=8, clean + lossy, plus one adaptive
  // lossy run) pins the rpc.mux.* and rpc.rtt.*/rpc.cwnd.* counters for
  // the budget gate. The lossy adaptive run exercises Karn skips
  // (replies to retransmitted requests) and both AIMD directions.
  harness.Traced([&] {
    (void)RunPipelined(8, 512, kRunSize, FaultConfig{}, FaultConfig{});
    (void)RunPipelined(8, 512, kRunSize, LossyMix(), LossyMix());
    (void)RunPipelined(8, 512, kRunSize, LossyMix(), LossyMix(),
                       20'000'000, /*adaptive=*/true);
  });

  double serial = sweep[0].result.virtual_seconds;
  std::printf("%-10s %10s %8s %10s\n", "window", "virtual(s)", "speedup",
              "goodput");
  for (const Row& row : sweep) {
    double mbit = static_cast<double>(row.result.stats.bytes_read) * 8 /
                  row.result.virtual_seconds / 1e6;
    std::printf("window=%-3u %10.3f %7.2fx %7.2f Mb  %s\n", row.window,
                row.result.virtual_seconds,
                serial / row.result.virtual_seconds, mbit,
                Bar(row.result.virtual_seconds, serial, 24).c_str());
  }
  PrintRule();

  // Contrast: full 8 KB chunks saturate the reply wire, so overlapping
  // calls buys little — the window pays where latency dominates.
  // 100 ms RTO: 8 KB replies occupy the wire ~6.6 ms each, so eight
  // queued replies exceed the default 20 ms RTO and would retransmit
  // spuriously.
  RunResult big_serial = harness.Untraced(
      [&] { return RunPipelined(1, 8192, kRunSize, FaultConfig{},
                                FaultConfig{}, 100'000'000); });
  RunResult big_windowed = harness.Untraced(
      [&] { return RunPipelined(8, 8192, kRunSize, FaultConfig{},
                                FaultConfig{}, 100'000'000); });
  std::printf("8 KB chunks: window=1 %.3fs, window=8 %.3fs (%.2fx) — "
              "bandwidth-bound\n",
              big_serial.virtual_seconds, big_windowed.virtual_seconds,
              big_serial.virtual_seconds / big_windowed.virtual_seconds);

  // The congestion-collapse scenario, adaptive vs fixed: 8 KB chunks at
  // the DEFAULT 20 ms RTO. Once the fixed window queues more reply bytes
  // than the RTO covers (~3 replies at 6.6 ms wire time each),
  // healthy-but-queued replies trigger spurious retransmits which add
  // more queueing — throughput collapses as the window grows. The
  // adaptive transport gets the same default seed RTO and no tuning: the
  // estimator lifts the RTO above the queueing delay while AIMD finds
  // the widest window the pipe sustains.
  PrintRule();
  PrintHeader(
      "Congestion collapse, 8 KB chunks at the default 20 ms RTO: "
      "fixed windows vs adaptive");
  std::printf("%-12s %10s %10s %8s %8s\n", "config", "virtual(s)",
              "goodput", "rexmit", "window");
  std::vector<Row> collapse;
  double best_fixed_mbit = 0;
  for (uint32_t window : kWindows) {
    Row row{window, harness.Untraced([&] {
              return RunPipelined(window, 8192, kRunSize, FaultConfig{},
                                  FaultConfig{});
            })};
    collapse.push_back(row);
    double mbit = static_cast<double>(row.result.stats.bytes_read) * 8 /
                  row.result.virtual_seconds / 1e6;
    best_fixed_mbit = std::max(best_fixed_mbit, mbit);
    std::printf("fixed w=%-4u %10.3f %7.2f Mb %8llu %8u\n", row.window,
                row.result.virtual_seconds, mbit,
                static_cast<unsigned long long>(
                    row.result.transport_stats.retransmits),
                row.window);
  }
  RunResult adaptive_collapse = harness.Untraced([&] {
    return RunPipelined(16, 8192, kRunSize, FaultConfig{}, FaultConfig{},
                        20'000'000, /*adaptive=*/true);
  });
  double adaptive_mbit =
      static_cast<double>(adaptive_collapse.stats.bytes_read) * 8 /
      adaptive_collapse.virtual_seconds / 1e6;
  std::printf("adaptive     %10.3f %7.2f Mb %8llu %8u  "
              "(%llu rtt samples, cwnd +%llu/-%llu)\n",
              adaptive_collapse.virtual_seconds, adaptive_mbit,
              static_cast<unsigned long long>(
                  adaptive_collapse.transport_stats.retransmits),
              adaptive_collapse.final_window,
              static_cast<unsigned long long>(
                  adaptive_collapse.transport_stats.rtt_samples),
              static_cast<unsigned long long>(
                  adaptive_collapse.transport_stats.cwnd_increases),
              static_cast<unsigned long long>(
                  adaptive_collapse.transport_stats.cwnd_decreases));
  std::printf("adaptive vs best fixed: %.2fx\n",
              adaptive_mbit / best_fixed_mbit);

  // Lossy overlap: the window keeps healthy calls moving while a dropped
  // one waits out its RTO.
  RunResult lossy_serial = harness.Untraced(
      [&] { return RunPipelined(1, 512, kRunSize, LossyMix(), LossyMix()); });
  RunResult lossy_windowed = harness.Untraced(
      [&] { return RunPipelined(8, 512, kRunSize, LossyMix(), LossyMix()); });
  std::printf("2%% drop+dup+reorder: window=1 %.3fs, window=8 %.3fs "
              "(%.2fx), rexmit %llu\n",
              lossy_serial.virtual_seconds, lossy_windowed.virtual_seconds,
              lossy_serial.virtual_seconds / lossy_windowed.virtual_seconds,
              static_cast<unsigned long long>(
                  lossy_windowed.transport_stats.retransmits));

  if (harness.record()) {
    // One extra seeded lossy rep under a flight-recorder session. Runs
    // untraced so the gated counter budgets see nothing; the recording
    // itself is deterministic (same seeds, virtual stamps only), so two
    // --record runs produce byte-identical REC artifacts.
    harness.Untraced([&] {
      flexrpc::RecorderSession rec_session;
      (void)RunPipelined(8, 512, kRunSize, LossyMix(), LossyMix());
      flexrpc::Recording recording = rec_session.Stop();
      harness.WriteArtifact("REC_pipeline_nfs.json",
                            flexrpc::RecordingToJson(recording));
      harness.WriteArtifact("TRACE_pipeline_nfs.json",
                            flexrpc::ExportChromeTrace(recording));
      return 0;
    });
    // And the adaptive collapse scenario, so CI archives the window
    // evolution (kRttSample / kCwndChange events) for every run.
    harness.Untraced([&] {
      flexrpc::RecorderSession rec_session;
      (void)RunPipelined(16, 8192, kRunSize, FaultConfig{}, FaultConfig{},
                         20'000'000, /*adaptive=*/true);
      flexrpc::Recording recording = rec_session.Stop();
      harness.WriteArtifact("REC_pipeline_nfs_adaptive.json",
                            flexrpc::RecordingToJson(recording));
      harness.WriteArtifact("TRACE_pipeline_nfs_adaptive.json",
                            flexrpc::ExportChromeTrace(recording));
      return 0;
    });
  }

  for (const Row& row : sweep) {
    std::string key = "w" + std::to_string(row.window);
    harness.Report(key + "_virtual_seconds", row.result.virtual_seconds,
                   "s");
    harness.Report(key + "_speedup",
                   serial / row.result.virtual_seconds, "x");
  }
  harness.Report("big_chunk_speedup",
                 big_serial.virtual_seconds / big_windowed.virtual_seconds,
                 "x");
  harness.Report("collapse_best_fixed_mbit", best_fixed_mbit, "Mb/s");
  harness.Report("collapse_adaptive_mbit", adaptive_mbit, "Mb/s");
  harness.Report("collapse_adaptive_vs_best_fixed",
                 adaptive_mbit / best_fixed_mbit, "x");
  harness.Report("lossy_speedup",
                 lossy_serial.virtual_seconds /
                     lossy_windowed.virtual_seconds,
                 "x");
  return harness.Finish();
}
