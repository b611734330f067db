// perfbench's own tests: the hand-built fleet stack reproduces RunFleet,
// virtual results and allocation counts repeat exactly for a seed and move
// with it, and traced spans close over the wall time.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench

#include <gtest/gtest.h>

#include <array>

#include "perfbench/src/alloc_counter.h"
#include "perfbench/src/fleet_workload.h"
#include "perfbench/src/nfs_workload.h"
#include "perfbench/src/spans.h"
#include "src/sim/fleet.h"

namespace perfbench {
namespace {

FleetOutcome RunBench(const flexrpc::FleetConfig& config,
                      SpanRecorder* spans = nullptr) {
  FleetBench bench(config, spans);
  bench.Run();
  return bench.Finish();
}

void ExpectMatchesRunFleet(const flexrpc::FleetConfig& config) {
  flexrpc::FleetResult want = flexrpc::RunFleet(config);
  FleetOutcome got = RunBench(config);
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  EXPECT_TRUE(got.Correct());
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.p50_nanos, want.p50_nanos);
  EXPECT_EQ(got.p99_nanos, want.p99_nanos);
  EXPECT_EQ(got.p999_nanos, want.p999_nanos);
  EXPECT_EQ(got.span_nanos, want.span_nanos);
  EXPECT_EQ(got.throughput_cps, want.throughput_cps);
  EXPECT_EQ(got.mux.retransmits, want.mux.retransmits);
  EXPECT_EQ(got.mux.stale_replies, want.mux.stale_replies);
  EXPECT_EQ(got.dispatch.shed_accept, want.dispatch.shed_accept);
  EXPECT_EQ(got.dispatch.shed_run, want.dispatch.shed_run);
  EXPECT_EQ(got.dispatch.dup_replies, want.dup_replies);
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.wire.sent, want.wire.sent);
  EXPECT_EQ(got.wire.checksum_failures, want.wire.checksum_failures);
}

TEST(RunFleetEquivalence, FleetSteadyReproducesRunFleet) {
  ExpectMatchesRunFleet(FleetSteadyConfig(7));
}

TEST(RunFleetEquivalence, FleetOverloadLossyReproducesRunFleet) {
  flexrpc::FleetConfig config = FleetOverloadLossyConfig(7);
  FleetOutcome o = RunBench(config);
  // The workload must exercise the retry, shed and reply-cache paths.
  EXPECT_GT(o.mux.retransmits, 0u);
  EXPECT_GT(o.dispatch.shed_accept + o.dispatch.shed_run, 0u);
  EXPECT_GT(o.dispatch.dup_replies, 0u);
  EXPECT_GT(o.wire.checksum_failures, 0u);
  ExpectMatchesRunFleet(config);
}

TEST(Determinism, FleetVirtualMetricsRepeatForASeedAndMoveWithIt) {
  for (auto make : {&FleetSteadyConfig, &FleetOverloadLossyConfig}) {
    FleetOutcome a = RunBench(make(3, 0));
    FleetOutcome b = RunBench(make(3, 0));
    FleetOutcome c = RunBench(make(3, 1));
    EXPECT_EQ(a.p50_nanos, b.p50_nanos);
    EXPECT_EQ(a.p99_nanos, b.p99_nanos);
    EXPECT_EQ(a.throughput_cps, b.throughput_cps);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.mux.retransmits, b.mux.retransmits);
    EXPECT_EQ(a.events_run, b.events_run);
    EXPECT_EQ(a.events_scheduled, b.events_scheduled);
    EXPECT_NE(a.p99_nanos, c.p99_nanos);
    EXPECT_NE(a.throughput_cps, c.throughput_cps);
  }
}

TEST(Determinism, NfsVirtualLatenciesRepeatForASeedAndMoveWithIt) {
  constexpr size_t kFile = 512u << 10;
  NfsBench a(5, kFile);
  NfsBench b(5, kFile);
  NfsBench c(6, kFile);
  for (NfsBench* bench : {&a, &b, &c}) {
    NfsPassResult r = bench->RunPass(nullptr);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_TRUE(bench->VerifyAndClear());
  }
  EXPECT_EQ(a.virt_call_ns(), b.virt_call_ns());
  EXPECT_NE(a.virt_call_ns(), c.virt_call_ns());
}

TEST(Determinism, NfsPassMustWriteTheBufferAgain) {
  NfsBench bench(5, 64u << 10);
  bench.RunPass(nullptr);
  EXPECT_TRUE(bench.VerifyAndClear());
  EXPECT_FALSE(bench.VerifyAndClear());  // cleared, nothing rewrote it
}

std::array<uint64_t, kLayerCount> TracedFleetAllocs(uint64_t seed) {
  SpanRecorder spans;
  SetAllocCounting(true);
  RunBench(FleetOverloadLossyConfig(seed), &spans);
  SetAllocCounting(false);
  std::array<uint64_t, kLayerCount> out{};
  for (size_t l = 0; l < kLayerCount; ++l) {
    out[l] = spans.self_allocs(static_cast<Layer>(l));
  }
  return out;
}

TEST(AllocCounter, CountsRepeatExactlyForASeed) {
  auto a = TracedFleetAllocs(9);
  auto b = TracedFleetAllocs(9);
  EXPECT_EQ(a, b);
  EXPECT_GT(a[static_cast<size_t>(Layer::kMuxSubmit)], 0u);
}

TEST(Spans, SelfTimesPlusUnattributedCloseOverWallTime) {
  NfsBench bench(5, 256u << 10);
  SpanRecorder spans;
  NfsPassResult r = bench.RunPass(&spans);
  Attribution attr;
  ASSERT_TRUE(AttributeSpans(spans.spans(), r.wall_start, r.wall_end, &attr));
  uint64_t sum = attr.unattributed_ns;
  for (size_t l = 0; l < kLayerCount; ++l) {
    sum += attr.self_ns[l];
    EXPECT_EQ(attr.self_ns[l], spans.self_ns(static_cast<Layer>(l)));
  }
  EXPECT_EQ(sum, r.wall_end - r.wall_start);
  EXPECT_FALSE(spans.open());
}

TEST(Spans, OverlappingTopLevelSpansFailClosure) {
  std::vector<Span> spans(2);
  spans[0] = Span{10, 30, 0, -1, Layer::kEventLoop};
  spans[1] = Span{20, 40, 0, -1, Layer::kEventLoop};
  Attribution attr;
  EXPECT_FALSE(AttributeSpans(spans, 0, 50, &attr));
}

}  // namespace
}  // namespace perfbench
