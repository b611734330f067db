// Unit tests for flextrace: counter semantics, the catalog's naming rules,
// the enabled/disabled gate, session windowing, JSON serialization
// (golden), and concurrent counting.

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <thread>

#include "src/support/json.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

// Every test owns the global registry for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(false);
    ResetTrace();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    ResetTrace();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndAddsAreDropped) {
  EXPECT_FALSE(TraceEnabled());
  TraceAdd(TraceCounter::kKernelTraps);
  TraceAdd(TraceCounter::kDataCopyBytes, 4096);
  TraceSnapshot snap = CaptureTrace();
  EXPECT_EQ(snap.counter(TraceCounter::kKernelTraps), 0u);
  EXPECT_EQ(snap.counter(TraceCounter::kDataCopyBytes), 0u);
}

TEST_F(TraceTest, EnabledCountsAndDeltas) {
  SetTraceEnabled(true);
  TraceAdd(TraceCounter::kKernelTraps);
  TraceAdd(TraceCounter::kKernelTraps);
  TraceAdd(TraceCounter::kDataCopyBytes, 100);
  TraceSnapshot a = CaptureTrace();
  EXPECT_EQ(a.counter(TraceCounter::kKernelTraps), 2u);
  TraceAdd(TraceCounter::kKernelTraps);
  TraceSnapshot delta = TraceDelta(a, CaptureTrace());
  EXPECT_EQ(delta.counter(TraceCounter::kKernelTraps), 1u);
  EXPECT_EQ(delta.counter(TraceCounter::kDataCopyBytes), 0u);
}

TEST_F(TraceTest, NamesMatchEnumOrder) {
  EXPECT_EQ(TraceCounterName(TraceCounter::kKernelTraps), "kernel.traps");
  EXPECT_EQ(TraceCounterName(TraceCounter::kNetWireVirtualNanos),
            "net.wire_virtual_nanos");
  EXPECT_EQ(TraceCounterName(TraceCounter::kNetFrameCopies),
            "net.frame_copies");
}

// The catalog's naming rules over every entry: names are non-empty and
// unique (budget keys), and a duration counter states its clock — the
// registry holds no host time, so every *_nanos name says "virtual".
TEST_F(TraceTest, EveryCatalogNameIsNonEmptyAndUnique) {
  std::set<std::string_view> names;
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    std::string_view name = TraceCounterName(static_cast<TraceCounter>(i));
    EXPECT_FALSE(name.empty()) << "counter " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter name "
                                           << name;
    if (name.ends_with("_nanos")) {
      EXPECT_NE(name.find("virtual"), std::string_view::npos)
          << name << " does not name its clock";
    }
  }
  EXPECT_EQ(names.size(), kTraceCounterCount);
}

TEST_F(TraceTest, SessionEnablesAndRestores) {
  EXPECT_FALSE(TraceEnabled());
  {
    TraceSession session;
    EXPECT_TRUE(TraceEnabled());
    TraceAdd(TraceCounter::kRpcBinds);
    EXPECT_EQ(session.Report().counter(TraceCounter::kRpcBinds), 1u);
    session.Rebase();
    EXPECT_EQ(session.Report().counter(TraceCounter::kRpcBinds), 0u);
  }
  EXPECT_FALSE(TraceEnabled());
}

TEST_F(TraceTest, SessionBaselineExcludesPriorWork) {
  SetTraceEnabled(true);
  TraceAdd(TraceCounter::kRpcBinds, 7);
  TraceSession session;
  TraceAdd(TraceCounter::kRpcBinds);
  EXPECT_EQ(session.Report().counter(TraceCounter::kRpcBinds), 1u);
}

// Golden serialization of a small, fully-controlled snapshot. The shape
// (every counter present incl. zeros, nothing but counters) is what
// flextrace_check and the bench artifacts rely on.
TEST_F(TraceTest, JsonGolden) {
  SetTraceEnabled(true);
  TraceSnapshot base = CaptureTrace();
  TraceAdd(TraceCounter::kKernelTraps, 3);
  std::string json = TraceSnapshotToJson(TraceDelta(base, CaptureTrace()));

  // Spot-check the golden fragments rather than all ~90 zero lines.
  EXPECT_NE(json.find("\"kernel.traps\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"mem.copies\": 0"), std::string::npos);

  // And it round-trips through the in-repo parser.
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->object.size(), 1u);  // only "counters"
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->object.size(), kTraceCounterCount);
  const JsonValue* traps = counters->Find("kernel.traps");
  ASSERT_NE(traps, nullptr);
  EXPECT_EQ(traps->number, 3.0);
}

TEST_F(TraceTest, ConcurrentAddsAreNotLost) {
  SetTraceEnabled(true);
  constexpr int kPerThread = 100000;
  auto work = [] {
    for (int i = 0; i < kPerThread; ++i) {
      TraceAdd(TraceCounter::kDataCopies);
      TraceAdd(TraceCounter::kDataCopyBytes, static_cast<uint64_t>(i));
    }
  };
  std::thread t1(work);
  std::thread t2(work);
  t1.join();
  t2.join();
  TraceSnapshot snap = CaptureTrace();
  EXPECT_EQ(snap.counter(TraceCounter::kDataCopies), 2u * kPerThread);
  EXPECT_EQ(snap.counter(TraceCounter::kDataCopyBytes),
            2u * (uint64_t{kPerThread} * (kPerThread - 1) / 2));
}

}  // namespace
}  // namespace flexrpc
