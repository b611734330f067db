#include "src/support/timeline.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/support/json.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

// 16 linear sub-buckets per power of two. Buckets 0..31 are exact (the
// sub-bucket stride is 1 for the first two scale groups); from 32 up,
// scale group s covers [16 << s, 32 << s) in strides of 1 << s.
constexpr uint32_t kSubBuckets = 16;

// Highest set bit position (value > 0).
uint32_t HighBit(uint64_t value) {
  uint32_t bit = 0;
  while (value >>= 1) {
    ++bit;
  }
  return bit;
}

}  // namespace

uint32_t QuantileSketch::BucketOf(uint64_t value) {
  if (value < 2 * kSubBuckets) {
    return static_cast<uint32_t>(value);
  }
  uint32_t shift = HighBit(value) - 4;
  return shift * kSubBuckets + static_cast<uint32_t>(value >> shift);
}

uint64_t QuantileSketch::BucketLowValue(uint32_t bucket) {
  if (bucket < 2 * kSubBuckets) {
    return bucket;
  }
  uint32_t shift = bucket / kSubBuckets - 1;
  return static_cast<uint64_t>(bucket - shift * kSubBuckets) << shift;
}

uint64_t QuantileSketch::BucketHighValue(uint32_t bucket) {
  if (bucket < 2 * kSubBuckets) {
    return bucket;
  }
  uint32_t shift = bucket / kSubBuckets - 1;
  return ((static_cast<uint64_t>(bucket - shift * kSubBuckets) + 1) << shift) -
         1;
}

void QuantileSketch::Record(uint64_t value) {
  ++buckets_[BucketOf(value)];
  ++count_;
  sum_ += value;
  if (count_ == 1 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) {
    return;
  }
  for (const auto& [bucket, cells] : other.buckets_) {
    buckets_[bucket] += cells;
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t QuantileSketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) {
    ++rank;  // ceil
  }
  if (rank == 0) {
    rank = 1;
  }
  // The rank-1 sample *is* the minimum and the rank-count sample *is* the
  // maximum, both tracked exactly — substitute them so the extremes carry
  // no bucket error.
  if (rank <= 1) {
    return min();
  }
  if (rank >= count_) {
    return max_;
  }
  uint64_t seen = 0;
  for (const auto& [bucket, cells] : buckets_) {
    seen += cells;
    if (seen >= rank) {
      // Clamp to the exact extremes: the lowest bucket's high bound can
      // overshoot min() and the highest can overshoot max().
      uint64_t high = BucketHighValue(bucket);
      return std::min(std::max(high, min()), max_);
    }
  }
  return max_;
}

QuantileSketch QuantileSketch::FromParts(uint64_t count, uint64_t sum,
                                         uint64_t min, uint64_t max,
                                         std::map<uint32_t, uint64_t> buckets) {
  QuantileSketch sketch;
  sketch.count_ = count;
  sketch.sum_ = sum;
  sketch.min_ = min;
  sketch.max_ = max;
  sketch.buckets_ = std::move(buckets);
  return sketch;
}

namespace {

// Indexed by WatchSeries, generated from the same list as the enum.
constexpr std::string_view kSeriesNames[] = {
#define FLEXRPC_WATCH_SERIES(id, name) name,
#include "src/support/watch_series.def"
#undef FLEXRPC_WATCH_SERIES
};

}  // namespace

std::string_view WatchSeriesName(WatchSeries series) {
  return kSeriesNames[static_cast<size_t>(series)];
}

Result<WatchSeries> WatchSeriesFromName(std::string_view name) {
  for (size_t i = 0; i < static_cast<size_t>(WatchSeries::kCount); ++i) {
    if (kSeriesNames[i] == name) {
      return static_cast<WatchSeries>(i);
    }
  }
  return InvalidArgumentError(
      StrFormat("unknown watch series \"%s\"", std::string(name).c_str()));
}

namespace watch_internal {
std::atomic<TimelineSampler*> g_sampler{nullptr};
}  // namespace watch_internal

TimelineSampler::TimelineSampler(EventQueue* events, uint64_t tick_nanos)
    : events_(events), tick_nanos_(tick_nanos) {
  if (tick_nanos_ == 0) {
    std::abort();  // a zero tick would divide the clock by zero
  }
}

TimelineSampler::~TimelineSampler() {
  if (running_) {
    if (tick_armed_) {
      events_->Cancel(tick_event_);
      tick_armed_ = false;
    }
    watch_internal::g_sampler.store(nullptr, std::memory_order_relaxed);
    running_ = false;
  }
}

void TimelineSampler::AddCounter(std::string name,
                                 std::function<uint64_t()> read) {
  CounterSource source;
  source.read = std::move(read);
  source.index = timeline_.counters.size();
  counter_sources_.push_back(std::move(source));
  timeline_.counters.push_back({std::move(name), {}});
}

void TimelineSampler::AddGauge(std::string name,
                               std::function<uint64_t()> read) {
  GaugeSource source;
  source.read = std::move(read);
  source.index = timeline_.gauges.size();
  gauge_sources_.push_back(std::move(source));
  timeline_.gauges.push_back({std::move(name), {}});
}

void TimelineSampler::Start() {
  TimelineSampler* expected = nullptr;
  if (!watch_internal::g_sampler.compare_exchange_strong(
          expected, this, std::memory_order_relaxed)) {
    std::abort();  // nested samplers are a bug, same as nested recorders
  }
  running_ = true;
  timeline_.tick_nanos = tick_nanos_;
  timeline_.start_nanos = events_->clock()->now_nanos();
  sampled_through_nanos_ = timeline_.start_nanos;
  for (auto& counter : counter_sources_) {
    counter.prev = counter.read();
  }
  ScheduleNextTick();
}

Timeline TimelineSampler::Stop() {
  if (tick_armed_) {
    events_->Cancel(tick_event_);
    tick_armed_ = false;
  }
  if (running_) {
    if (events_->clock()->now_nanos() > sampled_through_nanos_) {
      SampleWindow();  // flush the final partial window
    }
    watch_internal::g_sampler.store(nullptr, std::memory_order_relaxed);
    running_ = false;
  }
  timeline_.end_nanos = events_->clock()->now_nanos();
  return std::move(timeline_);
}

void TimelineSampler::Observe(WatchSeries series, uint32_t dim,
                              uint64_t value) {
  uint64_t now = events_->clock()->now_nanos();
  uint64_t window =
      now <= timeline_.start_nanos
          ? 0
          : (now - timeline_.start_nanos) / tick_nanos_;
  Timeline::SketchKey key;
  key.series = static_cast<uint16_t>(series);
  key.dim = dim;
  key.window = window;
  timeline_.sketches[key].Record(value);
}

void TimelineSampler::ScheduleNextTick() {
  uint64_t deadline =
      timeline_.start_nanos + (timeline_.ticks + 1) * tick_nanos_;
  tick_event_ = events_->ScheduleAt(deadline, [this]() { OnTick(); });
  tick_armed_ = true;
}

void TimelineSampler::OnTick() {
  tick_armed_ = false;
  SampleWindow();
  // Reschedule only while real work remains: the tick itself has already
  // popped, so pending() counts only the simulation's own events. A bare
  // queue means the run is over — stop, or the loop would never drain.
  if (events_->pending() > 0) {
    ScheduleNextTick();
  }
}

void TimelineSampler::SampleWindow() {
  for (auto& counter : counter_sources_) {
    uint64_t value = counter.read();
    timeline_.counters[counter.index].samples.push_back(value - counter.prev);
    counter.prev = value;
  }
  for (auto& gauge : gauge_sources_) {
    timeline_.gauges[gauge.index].samples.push_back(gauge.read());
  }
  ++timeline_.ticks;
  sampled_through_nanos_ = events_->clock()->now_nanos();
}

namespace {

void WriteSeriesArray(JsonWriter& w, std::string_view key,
                      const std::vector<Timeline::Series>& series) {
  w.Key(key).BeginArray();
  for (const auto& s : series) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("samples").BeginArray();
    for (uint64_t sample : s.samples) {
      w.UInt(sample);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace

std::string TimelineToJson(const Timeline& timeline) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("flexrpc-timeline-v1");
  w.Key("tick_nanos").UInt(timeline.tick_nanos);
  w.Key("start_nanos").UInt(timeline.start_nanos);
  w.Key("end_nanos").UInt(timeline.end_nanos);
  w.Key("ticks").UInt(timeline.ticks);
  WriteSeriesArray(w, "counters", timeline.counters);
  WriteSeriesArray(w, "gauges", timeline.gauges);
  w.Key("sketches").BeginArray();
  for (const auto& [key, sketch] : timeline.sketches) {
    w.BeginObject();
    w.Key("series").String(
        WatchSeriesName(static_cast<WatchSeries>(key.series)));
    w.Key("dim").UInt(key.dim);
    w.Key("window").UInt(key.window);
    w.Key("count").UInt(sketch.count());
    w.Key("sum").UInt(sketch.sum());
    w.Key("min").UInt(sketch.min());
    w.Key("max").UInt(sketch.max());
    w.Key("buckets").BeginArray();
    for (const auto& [bucket, cells] : sketch.buckets()) {
      w.BeginArray().UInt(bucket).UInt(cells).EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

namespace {

Result<uint64_t> ReadUInt(const JsonValue& object, std::string_view key,
                          uint64_t max = UINT64_MAX) {
  const JsonValue* v = object.Find(key);
  std::optional<uint64_t> value =
      v != nullptr ? v->AsUInt(max) : std::nullopt;
  if (!value) {
    return InvalidArgumentError(StrFormat(
        "timeline: field \"%s\" is not an integer in [0, %llu]",
        std::string(key).c_str(), static_cast<unsigned long long>(max)));
  }
  return *value;
}

Result<std::vector<Timeline::Series>> ParseSeriesArray(
    const JsonValue& root, std::string_view key) {
  const JsonValue* array = root.Find(key);
  if (array == nullptr || array->kind != JsonValue::Kind::kArray) {
    return InvalidArgumentError(StrFormat(
        "timeline: missing array field \"%s\"", std::string(key).c_str()));
  }
  std::vector<Timeline::Series> out;
  for (const JsonValue& entry : array->array) {
    if (!entry.IsObject()) {
      return InvalidArgumentError("timeline: series entry is not an object");
    }
    const JsonValue* name = entry.Find("name");
    const JsonValue* samples = entry.Find("samples");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        samples == nullptr || samples->kind != JsonValue::Kind::kArray) {
      return InvalidArgumentError("timeline: malformed series entry");
    }
    Timeline::Series series;
    series.name = name->string;
    for (const JsonValue& sample : samples->array) {
      std::optional<uint64_t> value = sample.AsUInt();
      if (!value) {
        return InvalidArgumentError("timeline: sample is not an integer");
      }
      series.samples.push_back(*value);
    }
    out.push_back(std::move(series));
  }
  return out;
}

}  // namespace

Result<Timeline> ParseTimeline(std::string_view json) {
  FLEXRPC_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.IsObject()) {
    return InvalidArgumentError("timeline: document is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->string != "flexrpc-timeline-v1") {
    return InvalidArgumentError("timeline: missing or unknown schema");
  }
  Timeline timeline;
  FLEXRPC_ASSIGN_OR_RETURN(timeline.tick_nanos, ReadUInt(root, "tick_nanos"));
  FLEXRPC_ASSIGN_OR_RETURN(timeline.start_nanos,
                           ReadUInt(root, "start_nanos"));
  FLEXRPC_ASSIGN_OR_RETURN(timeline.end_nanos, ReadUInt(root, "end_nanos"));
  FLEXRPC_ASSIGN_OR_RETURN(timeline.ticks, ReadUInt(root, "ticks"));
  FLEXRPC_ASSIGN_OR_RETURN(timeline.counters,
                           ParseSeriesArray(root, "counters"));
  FLEXRPC_ASSIGN_OR_RETURN(timeline.gauges, ParseSeriesArray(root, "gauges"));

  const JsonValue* sketches = root.Find("sketches");
  if (sketches == nullptr || sketches->kind != JsonValue::Kind::kArray) {
    return InvalidArgumentError("timeline: missing sketches array");
  }
  // Bucket indices past the one holding UINT64_MAX name no value range;
  // BucketHighValue would shift past 64 bits for them.
  const uint64_t max_bucket = QuantileSketch::BucketOf(UINT64_MAX);
  for (const JsonValue& entry : sketches->array) {
    if (!entry.IsObject()) {
      return InvalidArgumentError("timeline: sketch entry is not an object");
    }
    const JsonValue* series_name = entry.Find("series");
    if (series_name == nullptr ||
        series_name->kind != JsonValue::Kind::kString) {
      return InvalidArgumentError("timeline: sketch without a series name");
    }
    FLEXRPC_ASSIGN_OR_RETURN(WatchSeries series,
                             WatchSeriesFromName(series_name->string));
    Timeline::SketchKey key;
    key.series = static_cast<uint16_t>(series);
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t dim,
                             ReadUInt(entry, "dim", UINT32_MAX));
    key.dim = static_cast<uint32_t>(dim);
    FLEXRPC_ASSIGN_OR_RETURN(key.window, ReadUInt(entry, "window"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t count, ReadUInt(entry, "count"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t sum, ReadUInt(entry, "sum"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t min, ReadUInt(entry, "min"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t max, ReadUInt(entry, "max"));
    const JsonValue* buckets = entry.Find("buckets");
    if (buckets == nullptr || buckets->kind != JsonValue::Kind::kArray) {
      return InvalidArgumentError("timeline: sketch without buckets");
    }
    std::map<uint32_t, uint64_t> cells;
    for (const JsonValue& pair : buckets->array) {
      if (pair.kind != JsonValue::Kind::kArray || pair.array.size() != 2) {
        return InvalidArgumentError("timeline: malformed sketch bucket");
      }
      std::optional<uint64_t> bucket = pair.array[0].AsUInt(max_bucket);
      std::optional<uint64_t> cell_count = pair.array[1].AsUInt();
      if (!bucket || !cell_count) {
        return InvalidArgumentError("timeline: malformed sketch bucket");
      }
      cells[static_cast<uint32_t>(*bucket)] = *cell_count;
    }
    timeline.sketches[key] =
        QuantileSketch::FromParts(count, sum, min, max, std::move(cells));
  }
  return timeline;
}

}  // namespace flexrpc
