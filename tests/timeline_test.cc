// Unit tests for flexwatch: quantile-sketch error bounds against exact
// percentiles, merge associativity, bucket math, sampler windowing on a
// virtual clock, and byte-deterministic JSON round trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/event_queue.h"
#include "src/support/timeline.h"
#include "src/support/timing.h"

namespace flexrpc {
namespace {

// ---------------------------------------------------------------- buckets

TEST(QuantileSketchTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < 32; ++v) {
    uint32_t b = QuantileSketch::BucketOf(v);
    EXPECT_EQ(QuantileSketch::BucketLowValue(b), v);
    EXPECT_EQ(QuantileSketch::BucketHighValue(b), v);
  }
}

TEST(QuantileSketchTest, BucketRangesCoverAndAreMonotonic) {
  uint32_t prev_bucket = 0;
  for (uint64_t v : std::vector<uint64_t>{0, 1, 31, 32, 33, 47, 48, 63, 64,
                                          100, 1000, 4095, 4096, 65535,
                                          1'000'000, 123'456'789,
                                          (1ull << 40) + 12345}) {
    uint32_t b = QuantileSketch::BucketOf(v);
    EXPECT_GE(b, prev_bucket) << "bucket index not monotonic at " << v;
    prev_bucket = b;
    EXPECT_LE(QuantileSketch::BucketLowValue(b), v);
    EXPECT_GE(QuantileSketch::BucketHighValue(b), v);
  }
}

TEST(QuantileSketchTest, BucketRelativeWidthBounded) {
  // Every bucket's width is at most low/16 — the 1/16 relative error
  // guarantee the header promises.
  for (uint64_t v : std::vector<uint64_t>{32, 100, 999, 12345, 1'000'000,
                                          (1ull << 50) + 7}) {
    uint32_t b = QuantileSketch::BucketOf(v);
    uint64_t low = QuantileSketch::BucketLowValue(b);
    uint64_t high = QuantileSketch::BucketHighValue(b);
    EXPECT_LE(high - low, low / 16)
        << "bucket " << b << " [" << low << "," << high << "] too wide";
  }
}

// --------------------------------------------------------------- quantiles

TEST(QuantileSketchTest, EmptySketch) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_EQ(s.Quantile(0.5), 0u);
}

TEST(QuantileSketchTest, SingleSample) {
  QuantileSketch s;
  s.Record(12345);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.sum(), 12345u);
  EXPECT_EQ(s.min(), 12345u);
  EXPECT_EQ(s.max(), 12345u);
  // With one sample every quantile is that sample: the bucket bound is
  // clamped to [min, max].
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(s.Quantile(q), 12345u) << "q=" << q;
  }
}

// Exact percentile via nearest-rank on a sorted copy, mirroring the
// sketch's rank convention (rank = ceil(q * count), 1-based).
uint64_t ExactQuantile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(values.size())) {
    ++rank;
  }
  if (rank == 0) {
    rank = 1;
  }
  return values[rank - 1];
}

void CheckErrorBound(const std::vector<uint64_t>& values) {
  QuantileSketch s;
  for (uint64_t v : values) {
    s.Record(v);
  }
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    uint64_t exact = ExactQuantile(values, q);
    uint64_t approx = s.Quantile(q);
    // The sketch reports the true bucket's upper bound: never below the
    // exact percentile, and above it by at most the bucket width (low/16).
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact + exact / 16 + 1) << "q=" << q;
  }
  EXPECT_EQ(s.Quantile(0.0), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(s.Quantile(1.0), *std::max_element(values.begin(), values.end()));
}

TEST(QuantileSketchTest, ErrorBoundOnUniformDistribution) {
  std::vector<uint64_t> values;
  for (uint64_t v = 1; v <= 10'000; ++v) {
    values.push_back(v);
  }
  CheckErrorBound(values);
}

TEST(QuantileSketchTest, ErrorBoundOnGeometricDistribution) {
  // Deterministic heavy tail: latencies spanning six decades, many small,
  // few huge — the shape flexwatch actually sees past saturation.
  std::vector<uint64_t> values;
  uint64_t v = 100;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(v + static_cast<uint64_t>(i) % 37);
    if (i % 4 == 3) {
      v += v / 8 + 1;  // ~12% growth every 4th sample
    }
  }
  CheckErrorBound(values);
}

TEST(QuantileSketchTest, MergeIsAssociativeAndCommutative) {
  auto fill = [](QuantileSketch* s, uint64_t seed, int n) {
    uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      s->Record((x >> 33) % 1'000'000);
    }
  };
  QuantileSketch a, b, c;
  fill(&a, 1, 300);
  fill(&b, 2, 500);
  fill(&c, 3, 200);

  QuantileSketch ab_c = a;  // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  QuantileSketch bc = b;  // a + (b + c)
  bc.Merge(c);
  QuantileSketch a_bc = a;
  a_bc.Merge(bc);
  QuantileSketch cba = c;  // commuted order
  cba.Merge(b);
  cba.Merge(a);

  for (const QuantileSketch* s : {&a_bc, &cba}) {
    EXPECT_EQ(ab_c.count(), s->count());
    EXPECT_EQ(ab_c.sum(), s->sum());
    EXPECT_EQ(ab_c.min(), s->min());
    EXPECT_EQ(ab_c.max(), s->max());
    EXPECT_EQ(ab_c.buckets(), s->buckets());
  }
  EXPECT_EQ(ab_c.count(), 1000u);
}

TEST(QuantileSketchTest, MergeWithEmptyIsIdentity) {
  QuantileSketch a;
  a.Record(42);
  a.Record(7);
  QuantileSketch empty;
  QuantileSketch merged = a;
  merged.Merge(empty);
  EXPECT_EQ(merged.buckets(), a.buckets());
  EXPECT_EQ(merged.min(), 7u);
  QuantileSketch onto_empty;
  onto_empty.Merge(a);
  EXPECT_EQ(onto_empty.buckets(), a.buckets());
  EXPECT_EQ(onto_empty.min(), 7u);
  EXPECT_EQ(onto_empty.max(), 42u);
}

// ---------------------------------------------------------------- sampler

TEST(TimelineSamplerTest, WindowsCounterDeltasAndGaugeReads) {
  VirtualClock clock;
  EventQueue events(&clock);
  uint64_t work_done = 0;
  uint64_t depth = 0;

  TimelineSampler sampler(&events, 1000);
  sampler.AddCounter("work", [&work_done]() { return work_done; });
  sampler.AddGauge("depth", [&depth]() { return depth; });

  // Three windows of activity: deltas 2, 0, 3; gauge reads 5, 5, 0.
  events.ScheduleAt(100, [&]() { work_done += 2; depth = 5; });
  events.ScheduleAt(2500, [&]() { work_done += 3; depth = 0; });
  events.ScheduleAt(2600, [&]() {});

  sampler.Start();
  EXPECT_TRUE(sampler.running());
  while (events.RunNext()) {
  }
  Timeline t = sampler.Stop();
  EXPECT_FALSE(sampler.running());

  ASSERT_EQ(t.counters.size(), 1u);
  ASSERT_EQ(t.gauges.size(), 1u);
  EXPECT_EQ(t.tick_nanos, 1000u);
  // Windows [0,1000) [1000,2000) close on ticks; the tail past 2000 is
  // flushed by Stop() as a final partial window.
  ASSERT_GE(t.ticks, 3u);
  EXPECT_EQ(t.counters[0].samples[0], 2u);
  EXPECT_EQ(t.counters[0].samples[1], 0u);
  EXPECT_EQ(t.counters[0].samples[2], 3u);
  EXPECT_EQ(t.gauges[0].samples[0], 5u);
  EXPECT_EQ(t.gauges[0].samples[1], 5u);
  EXPECT_EQ(t.gauges[0].samples[2], 0u);
}

TEST(TimelineSamplerTest, ObservationsLandInTheirWindow) {
  VirtualClock clock;
  EventQueue events(&clock);
  TimelineSampler sampler(&events, 1000);

  events.ScheduleAt(500, []() {
    WatchObserve(WatchSeries::kCallLatency, 7, 111);
  });
  events.ScheduleAt(1500, []() {
    WatchObserve(WatchSeries::kCallLatency, 7, 222);
    WatchObserve(WatchSeries::kCallLatency, 9, 333);
  });

  sampler.Start();
  while (events.RunNext()) {
  }
  Timeline t = sampler.Stop();

  ASSERT_EQ(t.sketches.size(), 3u);
  Timeline::SketchKey k0{static_cast<uint16_t>(WatchSeries::kCallLatency), 7,
                         0};
  Timeline::SketchKey k1{static_cast<uint16_t>(WatchSeries::kCallLatency), 7,
                         1};
  Timeline::SketchKey k2{static_cast<uint16_t>(WatchSeries::kCallLatency), 9,
                         1};
  ASSERT_TRUE(t.sketches.count(k0));
  ASSERT_TRUE(t.sketches.count(k1));
  ASSERT_TRUE(t.sketches.count(k2));
  EXPECT_EQ(t.sketches.at(k0).sum(), 111u);
  EXPECT_EQ(t.sketches.at(k1).sum(), 222u);
  EXPECT_EQ(t.sketches.at(k2).sum(), 333u);
}

TEST(TimelineSamplerTest, ObserveWithNoSamplerIsANoOp) {
  WatchObserve(WatchSeries::kCallLatency, 1, 999);  // must not crash
}

TEST(TimelineSamplerTest, TickDoesNotKeepTheLoopAlive) {
  VirtualClock clock;
  EventQueue events(&clock);
  TimelineSampler sampler(&events, 1000);
  events.ScheduleAt(100, []() {});
  sampler.Start();
  size_t steps = 0;
  while (events.RunNext()) {
    ASSERT_LT(++steps, 100u) << "sampler tick kept the event loop alive";
  }
  Timeline t = sampler.Stop();
  EXPECT_GE(t.ticks, 1u);  // the partial window flush still happened
}

// ------------------------------------------------------------------- json

TEST(TimelineJsonTest, RoundTripIsByteIdentical) {
  VirtualClock clock;
  EventQueue events(&clock);
  uint64_t n = 0;
  TimelineSampler sampler(&events, 500);
  sampler.AddCounter("n", [&n]() { return n; });
  sampler.AddGauge("g", [&n]() { return n * 2; });
  events.ScheduleAt(250, [&n]() {
    ++n;
    WatchObserve(WatchSeries::kQueueDepth, 0, 3);
    WatchObserve(WatchSeries::kWorkerExec, 2, 1'000'000);
  });
  events.ScheduleAt(1250, [&n]() { n += 5; });
  sampler.Start();
  while (events.RunNext()) {
  }
  Timeline t = sampler.Stop();

  std::string json = TimelineToJson(t);
  EXPECT_EQ(json, TimelineToJson(t)) << "serialization not deterministic";

  auto parsed = ParseTimeline(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(TimelineToJson(*parsed), json);
  EXPECT_EQ(parsed->ticks, t.ticks);
  EXPECT_EQ(parsed->sketches.size(), t.sketches.size());
}

TEST(TimelineJsonTest, ParseRejectsWrongSchema) {
  EXPECT_FALSE(ParseTimeline("{\"schema\":\"flexrpc-rec-v1\"}").ok());
  EXPECT_FALSE(ParseTimeline("not json").ok());
}

TEST(TimelineJsonTest, SeriesNamesRoundTrip) {
  // A duplicate name would map back to the first series carrying it, so
  // the round trip also proves the catalog's names unique.
  for (uint16_t i = 0; i < static_cast<uint16_t>(WatchSeries::kCount); ++i) {
    WatchSeries s = static_cast<WatchSeries>(i);
    auto back = WatchSeriesFromName(WatchSeriesName(s));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(WatchSeriesFromName("bogus_series").ok());
}

}  // namespace
}  // namespace flexrpc
