// Lossy-link NFS read — the Figure-2 experiment over a faulty wire.
//
// The paper's Figure 2 measures presentation cost over a perfect 10 Mbit/s
// Ethernet. This bench reruns the same 8 KB-chunk NFS read through the
// fault-injection substrate (src/net/fault.h, src/net/datagram.h) and the
// call engine's serial shape — one connection, window 1, at-most-once
// retry (src/rpc/dispatch.h) — under fixed-seed fault scenarios:
// packet drops force retransmissions, dropped replies exercise the server
// reply cache, duplicates and reorders exercise stale-reply discard, and
// corruption exercises the frame checksum. Reported times are *virtual*
// (wire + server + backoff on the VirtualClock), so every figure and
// every trace counter is deterministic — two runs of the same seed
// produce byte-identical artifacts, which is what lets the CI budget
// gate pin the injected-fault counts exactly.

#include <benchmark/benchmark.h>

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

constexpr size_t kFileSize = 2u << 20;  // 256 chunks at full fidelity

struct Scenario {
  const char* key;    // artifact key prefix
  const char* label;  // table row
  FaultConfig config;
};

FaultConfig MakeConfig(double drop, double dup, double reorder,
                       double corrupt, double delay, uint64_t seed) {
  FaultConfig config;
  config.drop_prob = drop;
  config.dup_prob = dup;
  config.reorder_prob = reorder;
  config.corrupt_prob = corrupt;
  config.extra_delay_prob = delay;
  config.seed = seed;
  return config;
}

const Scenario kScenarios[] = {
    {"clean", "clean wire                ",
     MakeConfig(0, 0, 0, 0, 0, 101)},
    {"drop1", "1% drop                   ",
     MakeConfig(0.01, 0, 0, 0, 0, 102)},
    {"mixed", "5% drop + dup/reorder/dly ",
     MakeConfig(0.05, 0.02, 0.02, 0, 0.05, 103)},
    {"corrupt2", "2% corruption             ",
     MakeConfig(0, 0, 0, 0.02, 0, 104)},
};

struct ScenarioResult {
  NfsClient::ReadStats stats;
  uint64_t retransmits = 0;
  uint64_t dup_cache_hits = 0;
  double virtual_seconds = 0;
};

ScenarioResult RunScenario(const FaultConfig& base, size_t file_size) {
  NfsFileServer server(file_size, /*seed=*/1995);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  FaultConfig a2b = base;
  a2b.seed = base.seed * 2 + 1;
  FaultConfig b2a = base;
  b2a.seed = base.seed * 2 + 2;
  DatagramChannel channel(LinkModel(), FaultPlan{a2b}, FaultPlan{b2a},
                          &clock);
  EventQueue events(&clock);
  MuxPolicy policy;
  policy.per_conn_window = 1;  // serial: stop-and-wait
  // The read queues every chunk up front and a deadline starts at
  // submission, so it must cover the whole backlog.
  policy.retry.deadline_nanos = 60'000'000'000;
  ServerConnection rpc(&channel, NfsFileServer::MakeHandler(&server),
                       policy, &events);
  auto stats = client.ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                   &rpc, &clock);
  if (!stats.ok()) {
    std::fprintf(stderr, "lossy NFS read failed: %s\n",
                 stats.status().ToString().c_str());
    std::abort();
  }
  ScenarioResult result;
  result.stats = *stats;
  result.retransmits = rpc.mux().stats().retransmits;
  result.dup_cache_hits = rpc.dispatch().stats().dup_replies;
  result.virtual_seconds = static_cast<double>(clock.now_nanos()) * 1e-9;
  return result;
}

void BM_LossyNfsRead(benchmark::State& state) {
  const Scenario& scenario =
      kScenarios[static_cast<size_t>(state.range(0))];
  uint64_t bytes = 0;
  double virtual_seconds = 0;
  for (auto _ : state) {
    auto result = RunScenario(scenario.config, 128u << 10);
    bytes += result.stats.bytes_read;
    virtual_seconds += result.virtual_seconds;
  }
  state.counters["virtual_s_per_MB"] = benchmark::Counter(
      virtual_seconds / (static_cast<double>(bytes) / (1 << 20)));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_LossyNfsRead)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

int main(int argc, char** argv) {
  flexrpc_bench::BenchHarness harness("fault_nfs", &argc, argv);
  harness.RunMicrobenchmarks();

  using flexrpc_bench::Bar;
  using flexrpc_bench::PercentMore;
  using flexrpc_bench::PrintHeader;
  using flexrpc_bench::PrintRule;

  PrintHeader(
      "Lossy-link NFS read: Figure-2 workload over injected faults "
      "(virtual time)");

  const size_t kRunSize = harness.bytes(kFileSize, 128u << 10);

  // Everything here runs on the virtual clock, so the figures are exact;
  // the single traced repetition both fills the table and produces the
  // deterministic counters the budget gate pins.
  struct Row {
    const Scenario* scenario;
    ScenarioResult result;
  };
  std::vector<Row> rows;
  for (const Scenario& scenario : kScenarios) {
    Row row{&scenario, harness.Untraced([&] {
              return RunScenario(scenario.config, kRunSize);
            })};
    harness.Traced([&] { (void)RunScenario(scenario.config, kRunSize); });
    rows.push_back(row);
  }

  double max_virtual = 0;
  for (const Row& row : rows) {
    max_virtual = std::max(max_virtual, row.result.virtual_seconds);
  }
  std::printf("%-26s %10s %8s %8s %10s\n", "", "virtual(s)", "rexmit",
              "duphit", "goodput");
  for (const Row& row : rows) {
    double mbit = static_cast<double>(row.result.stats.bytes_read) * 8 /
                  row.result.virtual_seconds / 1e6;
    std::printf("%-26s %10.3f %8llu %8llu %7.2f Mb  %s\n",
                row.scenario->label, row.result.virtual_seconds,
                static_cast<unsigned long long>(row.result.retransmits),
                static_cast<unsigned long long>(row.result.dup_cache_hits),
                mbit, Bar(row.result.virtual_seconds, max_virtual, 24).c_str());
  }
  PrintRule();
  double clean = rows[0].result.virtual_seconds;
  std::printf(
      "slowdown vs clean wire: drop1 %.1f%%, mixed %.1f%%, corrupt2 "
      "%.1f%%\n",
      PercentMore(clean, rows[1].result.virtual_seconds),
      PercentMore(clean, rows[2].result.virtual_seconds),
      PercentMore(clean, rows[3].result.virtual_seconds));

  if (harness.record()) {
    // One extra rep of the mixed scenario under a flight-recorder session
    // (untraced: the gated counters must not see it). Deterministic —
    // same seeds, virtual stamps only.
    harness.Untraced([&] {
      flexrpc::RecorderSession rec_session;
      (void)RunScenario(kScenarios[2].config, kRunSize);
      flexrpc::Recording recording = rec_session.Stop();
      harness.WriteArtifact("REC_fault_nfs.json",
                            flexrpc::RecordingToJson(recording));
      harness.WriteArtifact("TRACE_fault_nfs.json",
                            flexrpc::ExportChromeTrace(recording));
      return 0;
    });
  }

  for (const Row& row : rows) {
    std::string key = row.scenario->key;
    harness.Report(key + "_virtual_seconds", row.result.virtual_seconds,
                   "s");
    harness.Report(key + "_retransmits",
                   static_cast<double>(row.result.retransmits), "");
    harness.Report(
        key + "_goodput_mbit",
        static_cast<double>(row.result.stats.bytes_read) * 8 /
            row.result.virtual_seconds / 1e6,
        "Mbit/s");
  }
  return harness.Finish();
}
