// Figure 2 — "Performance Effect of User-space Buffer Presentation".
//
// Reads an 8 MB file over a simulated 10 Mbit/s Ethernet with four NFS
// client stub variants:
//   1. hand-coded stubs, conventional presentation (kernel buffer + copyout)
//   2. generated stubs,  conventional presentation
//   3. hand-coded stubs, [special] user-space buffer presentation
//   4. generated stubs,  [special] user-space buffer presentation
// and prints the paper's bar layout: network+server time (identical across
// variants, modeled) followed by client processing time (measured).
//
// Paper result: user-space presentation ≈ 13% less client processing
// (≈ 3% overall); hand-coded ≈ generated.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench/bench_util.h"
#include "src/apps/nfs.h"
#include "src/marshal/spec.h"
#include "src/marshal/xdr.h"

namespace {

using flexrpc::NfsClient;
using flexrpc::NfsFileServer;

constexpr size_t kFileSize = 8u << 20;
// flexspec A/B chunk size: at 512 B payloads the per-call marshal walk
// dominates client time, which is the regime superinstructions target.
constexpr size_t kSmallChunk = 512;

struct Variant {
  NfsClient::StubKind kind;
  const char* label;
};

const Variant kVariants[] = {
    {NfsClient::StubKind::kHandConventional,
     "conventional, hand-coded     "},
    {NfsClient::StubKind::kGeneratedConventional,
     "conventional, generated      "},
    {NfsClient::StubKind::kHandUserBuffer,
     "user-space buffer, hand-coded"},
    {NfsClient::StubKind::kGeneratedUserBuffer,
     "user-space buffer, generated "},
};

NfsClient::ReadStats RunVariant(NfsClient::StubKind kind,
                                size_t file_size = kFileSize,
                                size_t chunk_bytes = flexrpc::kNfsMaxData) {
  NfsFileServer server(file_size, /*seed=*/1995);
  NfsClient client(&server, flexrpc::LinkModel(),
                   flexrpc::RemoteServerModel());
  auto stats = client.ReadFile(kind, chunk_bytes);
  if (!stats.ok()) {
    std::fprintf(stderr, "NFS read failed: %s\n",
                 stats.status().ToString().c_str());
    std::abort();
  }
  return *stats;
}

// Proves the generated code and the reference executor put the same bytes
// on the wire before any timing is reported; aborts on divergence.
void CheckWireIdentical() {
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1995);
  NfsClient client(&server, flexrpc::LinkModel(),
                   flexrpc::RemoteServerModel());
  uint8_t fh[flexrpc::kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  uint8_t dest[kSmallChunk];
  NfsClient::ChunkArgs chunk{fh, /*offset=*/0,
                             /*count=*/kSmallChunk, dest};
  for (NfsClient::StubKind kind :
       {NfsClient::StubKind::kGeneratedConventional,
        NfsClient::StubKind::kGeneratedUserBuffer}) {
    flexrpc::XdrWriter specialized;
    flexrpc::XdrWriter reference;
    flexrpc::SetMarshalSpecializationEnabled(true);
    auto a = client.EncodeRequest(kind, chunk, &specialized);
    flexrpc::SetMarshalSpecializationEnabled(false);
    auto b = client.EncodeRequest(kind, chunk, &reference);
    flexrpc::SetMarshalSpecializationEnabled(true);
    if (!a.ok() || !b.ok() ||
        specialized.span().size() != reference.span().size() ||
        std::memcmp(specialized.span().data(), reference.span().data(),
                    specialized.span().size()) != 0) {
      std::fprintf(stderr,
                   "flexspec wire divergence on stub kind %d\n",
                   static_cast<int>(kind));
      std::abort();
    }
  }
}

void BM_NfsRead(benchmark::State& state) {
  auto kind = static_cast<NfsClient::StubKind>(state.range(0));
  // One iteration reads 1 MB (keeps google-benchmark iterations sane).
  double client_seconds = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto stats = RunVariant(kind, 1u << 20);
    client_seconds += stats.client_seconds;
    bytes += stats.bytes_read;
  }
  state.counters["client_ms_per_MB"] = benchmark::Counter(
      client_seconds * 1e3 / (static_cast<double>(bytes) / (1 << 20)));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_NfsRead)
    ->Arg(static_cast<int>(NfsClient::StubKind::kHandConventional))
    ->Arg(static_cast<int>(NfsClient::StubKind::kGeneratedConventional))
    ->Arg(static_cast<int>(NfsClient::StubKind::kHandUserBuffer))
    ->Arg(static_cast<int>(NfsClient::StubKind::kGeneratedUserBuffer))
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  flexrpc_bench::BenchHarness harness("fig2_nfs", &argc, argv);
  harness.RunMicrobenchmarks();

  using flexrpc_bench::Bar;
  using flexrpc_bench::PercentFaster;
  using flexrpc_bench::PrintHeader;
  using flexrpc_bench::PrintRule;

  PrintHeader(
      "Figure 2: NFS 8MB read — network+server (modeled) + client "
      "processing (measured)");

  const size_t kRunSize = harness.bytes(kFileSize, 256u << 10);
  const int kReps = harness.reps(3);
  struct Row {
    const char* label;
    flexrpc::NfsClient::ReadStats stats;
  };
  std::vector<Row> rows;
  // Repeat each variant a few times (untraced, for timing fidelity) and
  // keep the fastest client time (host noise rejection); then one traced
  // run per variant feeds the artifact's work counters.
  for (const Variant& v : kVariants) {
    flexrpc::NfsClient::ReadStats best;
    for (int rep = 0; rep < kReps; ++rep) {
      auto stats =
          harness.Untraced([&] { return RunVariant(v.kind, kRunSize); });
      if (rep == 0 || stats.client_seconds < best.client_seconds) {
        best = stats;
      }
    }
    harness.Traced([&] { (void)RunVariant(v.kind, kRunSize); });
    rows.push_back(Row{v.label, best});
  }

  double max_total = 0;
  for (const Row& row : rows) {
    double total =
        row.stats.client_seconds + row.stats.network_server_seconds;
    if (total > max_total) {
      max_total = total;
    }
  }
  std::printf("%-30s %10s %10s %10s\n", "", "net+srv(s)", "client(s)",
              "total(s)");
  for (const Row& row : rows) {
    double total =
        row.stats.client_seconds + row.stats.network_server_seconds;
    std::printf("%-30s %10.3f %10.4f %10.3f  %s\n", row.label,
                row.stats.network_server_seconds, row.stats.client_seconds,
                total, Bar(total, max_total, 30).c_str());
  }
  PrintRule();
  double conv_hand = rows[0].stats.client_seconds;
  double conv_gen = rows[1].stats.client_seconds;
  double user_hand = rows[2].stats.client_seconds;
  double user_gen = rows[3].stats.client_seconds;
  std::printf(
      "client-side improvement (generated): %.1f%%   (paper: ~13%%)\n",
      PercentFaster(conv_gen, user_gen));
  std::printf(
      "client-side improvement (hand-coded): %.1f%%\n",
      PercentFaster(conv_hand, user_hand));
  double total_conv =
      conv_gen + rows[1].stats.network_server_seconds;
  double total_user = user_gen + rows[3].stats.network_server_seconds;
  std::printf("overall improvement (generated): %.1f%%   (paper: ~3%%)\n",
              PercentFaster(total_conv, total_user));
  std::printf(
      "hand-coded vs generated (user-space presentation): %.1f%% "
      "difference   (paper: ~0%%)\n",
      (user_gen - user_hand) / user_hand * 100.0);

  // --- flexspec: specialized marshal superinstructions, small chunks ---
  // Same stub, same wire bytes; the only difference is whether the engine
  // dispatches to the registered straight-line code or runs the same ops
  // on the reference executor. Small chunks maximize the per-call marshal
  // share of client time.
  PrintHeader(
      "flexspec: fused marshal superinstructions vs reference executor "
      "(512 B chunks, user-space stub)");
  CheckWireIdentical();
  const size_t kSpecRunSize = harness.bytes(1u << 20, 64u << 10);
  auto time_spec = [&](bool enabled) {
    flexrpc::SetMarshalSpecializationEnabled(enabled);
    flexrpc::NfsClient::ReadStats best;
    for (int rep = 0; rep < kReps; ++rep) {
      auto stats = harness.Untraced([&] {
        return RunVariant(NfsClient::StubKind::kGeneratedUserBuffer,
                          kSpecRunSize, kSmallChunk);
      });
      if (rep == 0 || stats.client_seconds < best.client_seconds) {
        best = stats;
      }
    }
    return best;
  };
  auto spec_off = time_spec(false);
  auto spec_on = time_spec(true);
  // One traced rep with specialization on: the artifact's
  // marshal.spec.hit counter pins the fast path as exercised.
  harness.Traced([&] {
    (void)RunVariant(NfsClient::StubKind::kGeneratedUserBuffer,
                     kSpecRunSize, kSmallChunk);
  });
  std::printf("%-30s %10.4f s client\n", "reference executor",
              spec_off.client_seconds);
  std::printf("%-30s %10.4f s client\n", "specialized (flexspec)",
              spec_on.client_seconds);
  std::printf(
      "marshal-path speedup: %.1f%%   (wire bytes verified identical)\n",
      PercentFaster(spec_off.client_seconds, spec_on.client_seconds));
  harness.Report("spec_reference_client_seconds", spec_off.client_seconds,
                 "s");
  harness.Report("spec_fused_client_seconds", spec_on.client_seconds,
                 "s");
  harness.Report(
      "spec_marshal_speedup_pct",
      PercentFaster(spec_off.client_seconds, spec_on.client_seconds),
      "%");

  const char* kResultKeys[] = {"conv_hand", "conv_gen", "user_hand",
                               "user_gen"};
  for (size_t i = 0; i < rows.size(); ++i) {
    harness.Report(std::string(kResultKeys[i]) + "_client_seconds",
                   rows[i].stats.client_seconds, "s");
    harness.Report(std::string(kResultKeys[i]) + "_net_server_seconds",
                   rows[i].stats.network_server_seconds, "s");
  }
  harness.Report("client_improvement_generated_pct",
                 PercentFaster(conv_gen, user_gen), "%");
  harness.Report("overall_improvement_generated_pct",
                 PercentFaster(total_conv, total_user), "%");
  return harness.Finish();
}
