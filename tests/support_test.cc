// Unit tests for src/support: arenas, byte streams, status, strings, rng,
// the discrete-event queue, and the send path's zero-copy framing.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/support/arena.h"
#include "src/support/bytes.h"
#include "src/support/diag.h"
#include "src/support/event_queue.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/strings.h"
#include "src/support/timing.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = DataLossError("truncated");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "truncated");
  EXPECT_EQ(st.ToString(), "DATA_LOSS: truncated");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, TransportDegradationCodes) {
  // The call engine's graceful-degradation states are first-class
  // codes, not kInternal: callers dispatch on them.
  Status deadline = DeadlineExceededError("virtual deadline passed");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.message(), "virtual deadline passed");
  EXPECT_EQ(deadline.ToString(),
            "DEADLINE_EXCEEDED: virtual deadline passed");
  EXPECT_EQ(StatusCodeName(StatusCode::kDeadlineExceeded),
            "DEADLINE_EXCEEDED");

  Status unavailable = UnavailableError("retry budget exhausted");
  EXPECT_FALSE(unavailable.ok());
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "UNAVAILABLE: retry budget exhausted");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnavailable), "UNAVAILABLE");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return v / 2;
}

Status UseAssignOrReturn(int v, int* out) {
  FLEXRPC_ASSIGN_OR_RETURN(int half, HalveEven(v));
  *out = half;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status st = UseAssignOrReturn(7, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ArenaTest, AllocationsAreDisjointAndOwned) {
  Arena a("a");
  Arena b("b");
  void* pa = a.Allocate(128);
  void* pb = b.Allocate(128);
  EXPECT_NE(pa, pb);
  EXPECT_TRUE(a.Owns(pa));
  EXPECT_FALSE(a.Owns(pb));
  EXPECT_TRUE(b.Owns(pb));
  EXPECT_FALSE(b.Owns(pa));
}

TEST(ArenaTest, AlignmentHonored) {
  Arena a("a");
  a.Allocate(1);  // misalign the bump pointer
  void* p = a.Allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

TEST(ArenaTest, BlockRecycling) {
  Arena a("a");
  void* p1 = a.AllocateBlock(100);
  std::memset(p1, 0xAB, 100);
  a.FreeBlock(p1);
  void* p2 = a.AllocateBlock(100);  // same size class -> recycled
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(a.block_allocs(), 2u);
  EXPECT_EQ(a.block_frees(), 1u);
  EXPECT_EQ(a.live_blocks(), 1u);
}

TEST(ArenaTest, DifferentSizeClassesDoNotMix) {
  Arena a("a");
  void* small = a.AllocateBlock(16);
  a.FreeBlock(small);
  void* large = a.AllocateBlock(4096);
  EXPECT_NE(small, large);
}

TEST(ArenaTest, LargeAllocationsSpanChunks) {
  Arena a("a");
  void* p = a.Allocate(1u << 20);  // 1 MiB, larger than the min chunk
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 1u << 20);  // must be fully addressable
  EXPECT_TRUE(a.Owns(p));
}

TEST(ArenaTest, ResetReclaimsEverything) {
  Arena a("a");
  a.Allocate(1000);
  a.AllocateBlock(64);
  a.Reset();
  EXPECT_EQ(a.bytes_allocated(), 0u);
  EXPECT_EQ(a.live_blocks(), 0u);
}

TEST(ByteStreamTest, ScalarRoundTrip) {
  ByteWriter w;
  w.WriteU8(0x12);
  w.WriteU16Be(0x3456);
  w.WriteU32Be(0x789ABCDE);
  w.WriteU64Be(0x0123456789ABCDEFull);
  ByteReader r(w.span());
  EXPECT_EQ(r.ReadU8().value(), 0x12);
  EXPECT_EQ(r.ReadU16Be().value(), 0x3456);
  EXPECT_EQ(r.ReadU32Be().value(), 0x789ABCDEu);
  EXPECT_EQ(r.ReadU64Be().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteStreamTest, BigEndianLayout) {
  ByteWriter w;
  w.WriteU32Be(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.span()[0], 0x01);
  EXPECT_EQ(w.span()[3], 0x04);
}

TEST(ByteStreamTest, TruncationIsDataLossNotCrash) {
  ByteWriter w;
  w.WriteU16Be(7);
  ByteReader r(w.span());
  EXPECT_TRUE(r.ReadU8().ok());
  Result<uint32_t> big = r.ReadU32Be();
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kDataLoss);
}

TEST(ByteStreamTest, PatchBackfillsLength) {
  ByteWriter w;
  w.WriteU32Be(0);  // placeholder
  w.WriteBytes("abc", 3);
  w.PatchU32Be(0, 3);
  ByteReader r(w.span());
  EXPECT_EQ(r.ReadU32Be().value(), 3u);
}

TEST(ByteStreamTest, ViewAvoidsCopy) {
  ByteWriter w;
  w.WriteBytes("hello", 5);
  ByteReader r(w.span());
  Result<ByteSpan> view = r.ReadView(5);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), w.span().data());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitTrimJoin) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrTrim("  x\t"), "x");
  EXPECT_EQ(StrJoin({"a", "b"}, "::"), "a::b");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(StrStartsWith("foobar", "foo"));
  EXPECT_FALSE(StrStartsWith("fo", "foo"));
  EXPECT_TRUE(StrEndsWith("foobar", "bar"));
  EXPECT_TRUE(IsCIdentifier("_x1"));
  EXPECT_FALSE(IsCIdentifier("1x"));
  EXPECT_FALSE(IsCIdentifier(""));
}

TEST(StringsTest, CamelCaseAndIndent) {
  EXPECT_EQ(ToCamelCase("write_msg"), "WriteMsg");
  EXPECT_EQ(Indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(Indent("a\n\nb", 2), "  a\n\n  b");  // blank lines stay blank
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, RangesRespected) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SpreadsValues) {
  Rng rng(1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    seen.insert(rng.NextBelow(1u << 30));
  }
  EXPECT_GT(seen.size(), 60u);  // no obvious cycle
}

TEST(TimingTest, VirtualClockAccumulates) {
  VirtualClock clock;
  clock.AdvanceNanos(500);
  clock.AdvanceSeconds(1e-6);
  EXPECT_EQ(clock.now_nanos(), 1500u);
  clock.Reset();
  EXPECT_EQ(clock.now_nanos(), 0u);
}

TEST(TimingTest, StopwatchAdvances) {
  Stopwatch sw;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<uint64_t>(i);
  }
  EXPECT_GT(sw.ElapsedNanos(), 0u);
}

TEST(EventQueueTest, RunsInDeadlineOrderAndAdvancesTheClock) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.ScheduleAt(300, [&] { order.push_back(3); });
  q.ScheduleAt(100, [&] { order.push_back(1); });
  q.ScheduleAt(200, [&] { order.push_back(2); });
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(clock.now_nanos(), 100u);
  EXPECT_EQ(q.RunUntilIdle(), 2u);
  EXPECT_EQ(clock.now_nanos(), 300u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(q.RunNext());
}

TEST(EventQueueTest, EqualDeadlinesRunInSchedulingOrder) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.ScheduleAt(1000, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, CancelledEventsNeverRun) {
  VirtualClock clock;
  EventQueue q(&clock);
  int ran = 0;
  EventQueue::EventId keep = q.ScheduleAt(10, [&] { ++ran; });
  EventQueue::EventId gone = q.ScheduleAt(5, [&] { ++ran; });
  EXPECT_TRUE(q.Cancel(gone));
  EXPECT_FALSE(q.Cancel(gone));  // already cancelled
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilIdle();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(q.Cancel(keep));  // already ran
}

TEST(EventQueueTest, PastDeadlineRunsWithoutRewindingTheClock) {
  VirtualClock clock;
  clock.AdvanceNanos(500);
  EventQueue q(&clock);
  uint64_t observed = 0;
  q.ScheduleAt(100, [&] { observed = q.clock()->now_nanos(); });
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(observed, 500u);  // ran "late", clock untouched
  EXPECT_EQ(clock.now_nanos(), 500u);
}

TEST(EventQueueTest, CallbacksMayScheduleAndCancelReentrantly) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  EventQueue::EventId victim = q.ScheduleAt(200, [&] { order.push_back(9); });
  q.ScheduleAt(100, [&] {
    order.push_back(1);
    EXPECT_TRUE(q.Cancel(victim));
    q.ScheduleAt(150, [&] { order.push_back(2); });
    q.ScheduleAfter(200, [&] { order.push_back(3); });  // at 300
  });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now_nanos(), 300u);
}

// The id contract the benchmark's event census relies on: a probe's id
// minus one counts every event scheduled before it, whatever ran or was
// cancelled in between.
TEST(EventQueueTest, IdsStayConsecutiveAcrossScheduleCancelAndRun) {
  VirtualClock clock;
  EventQueue q(&clock);
  EventQueue::EventId expected = 1;
  std::vector<EventQueue::EventId> ids;
  uint64_t scheduled = 0;
  for (int round = 0; round < 300; ++round) {
    for (int j = 0; j < 8; ++j) {
      EventQueue::EventId id =
          q.ScheduleAfter(static_cast<uint64_t>(1 + (round * 7 + j) % 13),
                          [] {});
      ASSERT_EQ(id, expected++);
      ids.push_back(id);
      ++scheduled;
    }
    q.Cancel(ids[ids.size() - 3]);
    q.Cancel(ids[ids.size() / 2]);  // an old id, often long gone
    q.RunNext();
    q.RunNext();
  }
  q.RunUntilIdle();
  EventQueue::EventId probe = q.ScheduleAt(clock.now_nanos(), [] {});
  EXPECT_EQ(probe - 1, scheduled);
  EXPECT_TRUE(q.Cancel(probe));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelIsFalseForInvalidUnissuedRanAndRunningIds) {
  VirtualClock clock;
  EventQueue q(&clock);
  EXPECT_FALSE(q.Cancel(EventQueue::kInvalidEvent));
  EventQueue::EventId self = EventQueue::kInvalidEvent;
  bool self_cancel = true;
  self = q.ScheduleAt(10, [&] { self_cancel = q.Cancel(self); });
  EventQueue::EventId done = q.ScheduleAt(5, [] {});
  EXPECT_FALSE(q.Cancel(done + 1));  // never issued
  q.RunUntilIdle();
  EXPECT_FALSE(self_cancel);  // its own id, from inside its callback
  EXPECT_FALSE(q.Cancel(done));
  EXPECT_FALSE(q.Cancel(self));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, ReusedSlotNeverRunsTheStaleHeapEntry) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<uint64_t> ran_at;
  EventQueue::EventId early = q.ScheduleAt(100, [&] { ran_at.push_back(1); });
  ASSERT_TRUE(q.Cancel(early));
  // Takes the slot `early` freed; the heap still holds early's entry at
  // deadline 100.
  q.ScheduleAt(200, [&] { ran_at.push_back(clock.now_nanos()); });
  EXPECT_EQ(q.RunUntilIdle(), 1u);
  EXPECT_EQ(ran_at, (std::vector<uint64_t>{200}));
}

TEST(EventQueueTest, EqualDeadlinesStayFifoThroughCancelAndReuse) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.ScheduleAt(1000, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 8; i += 2) {
    q.Cancel(ids[i]);
  }
  for (int i = 8; i < 12; ++i) {  // into the freed slots
    q.ScheduleAt(1000, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 8, 9, 10, 11}));
}

// Counts how often it was destroyed (moved-from handles never own one).
struct DestroyCounter {
  explicit DestroyCounter(int* count) : destroyed(count) {}
  ~DestroyCounter() { ++*destroyed; }
  int* destroyed;
};

TEST(EventQueueTest, OversizeAndMoveOnlyCapturesRunAndDieOnce) {
  VirtualClock clock;
  EventQueue q(&clock);
  int runs = 0;
  int destroyed = 0;
  auto token = std::make_shared<int>(0);
  std::array<uint64_t, 16> big{};
  big[15] = 7;
  auto oversize = [&runs, token, big] { runs += static_cast<int>(big[15]); };
  static_assert(sizeof(oversize) > EventQueue::kInlineBytes);
  q.ScheduleAt(1, std::move(oversize));
  q.ScheduleAt(2, [&runs, c = std::make_unique<DestroyCounter>(&destroyed)] {
    runs += 100;
  });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(q.RunUntilIdle(), 2u);
  EXPECT_EQ(runs, 107);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, DestroyingTheQueueReleasesPendingCaptures) {
  VirtualClock clock;
  auto token = std::make_shared<int>(0);
  int destroyed = 0;
  {
    EventQueue q(&clock);
    std::array<uint64_t, 16> big{};
    q.ScheduleAt(1, [token] {});
    q.ScheduleAt(2, [token, big] {});  // boxed on the heap
    q.ScheduleAt(3, [c = std::make_unique<DestroyCounter>(&destroyed)] {});
    EventQueue::EventId gone = q.ScheduleAt(4, [token] {});
    q.Cancel(gone);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(ByteStreamTest, TakeBufferReleasesWithoutCopying) {
  ByteWriter w;
  w.WriteU32Be(0xDEADBEEF);
  w.WriteSpan(ByteSpan(reinterpret_cast<const uint8_t*>("payload"), 7));
  const uint8_t* data_before = w.span().data();
  std::vector<uint8_t> taken = w.TakeBuffer();
  EXPECT_EQ(taken.data(), data_before);  // same allocation, not a copy
  EXPECT_EQ(taken.size(), 11u);
}

TEST(ByteStreamTest, WordsAndRunsMatchAByteAtATimeReference) {
  // Words and runs of every length up to 600 bytes, across the first
  // growth, the room steps and the runs that skip the room.
  ByteWriter w;
  std::vector<uint8_t> expected;
  std::vector<uint8_t> run(600);
  for (size_t i = 0; i < run.size(); ++i) {
    run[i] = static_cast<uint8_t>(i * 7);
  }
  for (uint32_t len = 0; len <= run.size(); len += 37) {
    w.WriteU32Be(len);
    for (int shift = 24; shift >= 0; shift -= 8) {
      expected.push_back(static_cast<uint8_t>(len >> shift));
    }
    w.WriteBytes(run.data(), len);
    expected.insert(expected.end(), run.begin(), run.begin() + len);
    w.WriteU8(0xA5);
    expected.push_back(0xA5);
  }
  EXPECT_EQ(w.size(), expected.size());
  EXPECT_EQ(w.TakeBuffer(), expected);
  EXPECT_EQ(w.size(), 0u);  // TakeBuffer leaves the writer empty
}

TEST(ByteStreamTest, SizedWriterNeverReallocates) {
  ByteWriter w(12);
  const uint8_t* reserved = w.span().data();
  w.WriteU32Be(1);
  w.WriteU32Be(2);
  w.WriteSpan(ByteSpan(reinterpret_cast<const uint8_t*>("four"), 4));
  EXPECT_EQ(w.span().data(), reserved);  // the one reserved allocation
  EXPECT_EQ(w.size(), 12u);
}

TEST(DatagramSendTest, FramingPerformsNoBufferCopy) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  TraceSession session;
  uint8_t payload[64] = {1, 2, 3};
  ch.Send(DatagramChannel::Dir::kAtoB, ByteSpan(payload, sizeof(payload)));
  ch.Send(DatagramChannel::Dir::kAtoB, ByteSpan(payload, sizeof(payload)));
  // The framed bytes move straight from the writer onto the wire queue.
  EXPECT_EQ(session.Report().counter(TraceCounter::kNetFrameCopies), 0u);
}

TEST(DatagramSendTest, OnlyDuplicatedFramesPayForACopy) {
  VirtualClock clock;
  FaultConfig dupper;
  dupper.dup_prob = 1.0;
  DatagramChannel ch(LinkModel(), FaultPlan(dupper), FaultPlan(), &clock);
  TraceSession session;
  uint8_t payload[16] = {7};
  ch.Send(DatagramChannel::Dir::kAtoB, ByteSpan(payload, sizeof(payload)));
  // A duplicated frame needs its own buffer — exactly one copy, ever.
  EXPECT_EQ(session.Report().counter(TraceCounter::kNetFrameCopies), 1u);
  int arrivals = 0;
  while (ch.HasPending(DatagramChannel::Dir::kAtoB)) {
    ASSERT_TRUE(ch.Receive(DatagramChannel::Dir::kAtoB).ok());
    ++arrivals;
  }
  EXPECT_EQ(arrivals, 2);
}

TEST(DiagTest, FormattingAndCounts) {
  DiagnosticSink sink;
  EXPECT_FALSE(sink.HasErrors());
  sink.Error("f.idl", SourcePos{3, 7}, "bad");
  sink.Warning("f.idl", SourcePos{4, 1}, "meh");
  EXPECT_TRUE(sink.HasErrors());
  EXPECT_EQ(sink.error_count(), 1);
  EXPECT_EQ(sink.diagnostics()[0].ToString(), "f.idl:3:7: error: bad");
  EXPECT_NE(sink.ToString().find("warning: meh"), std::string::npos);
}

// The recorder/bench artifacts round-trip through the in-repo JSON layer;
// event names are closed-catalog but user-visible strings (file paths,
// status messages) can carry anything printable or not.
TEST(JsonTest, EscapingRoundTripsControlAndQuoteCharacters) {
  const std::string hostile =
      "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\x07 nul-adjacent:"
      "\x01\x1f slash:/ utf8:\xc3\xa9";
  JsonWriter w;
  w.BeginObject();
  w.Key(hostile).String(hostile);
  w.EndObject();
  const std::string& json = w.str();
  // The serialized form must never contain a raw control character —
  // except the pretty-printer's own inter-element newlines, which sit
  // outside string literals.
  for (char c : json) {
    if (c == '\n') {
      continue;
    }
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte in output";
  }
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);

  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->object.size(), 1u);
  EXPECT_EQ(parsed->object[0].first, hostile);
  EXPECT_EQ(parsed->object[0].second.string, hostile);
}

TEST(JsonTest, EscapingRoundTripsEveryControlByte) {
  std::string all_controls;
  for (int c = 1; c < 0x20; ++c) {  // NUL would truncate a C string, skip
    all_controls.push_back(static_cast<char>(c));
  }
  JsonWriter w;
  w.BeginArray().String(all_controls).EndArray();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->array.size(), 1u);
  EXPECT_EQ(parsed->array[0].string, all_controls);
}

// ParseJson recurses once per array/object level, so nesting past
// kMaxJsonNesting is InvalidArgument instead of a stack overflow.
TEST(JsonTest, NestingPastTheLimitIsRefused) {
  auto arrays = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(ParseJson(arrays(kMaxJsonNesting)).ok());
  for (int depth : {kMaxJsonNesting + 1, 100000}) {
    auto parsed = ParseJson(arrays(depth));
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << depth;
  }
  // Objects count toward the same limit.
  std::string mixed = "{\"k\": " + arrays(kMaxJsonNesting) + "}";
  EXPECT_EQ(ParseJson(mixed).status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, RawNumberEmitsLiteralVerbatim) {
  // RawNumber exists for exact decimal control (Chrome trace timestamps:
  // nanos rendered as microseconds with three decimals); Double's %.9g
  // would round 18446744073709.551 past sub-microsecond precision.
  JsonWriter w;
  w.BeginObject();
  w.Key("ts").RawNumber("18446744073709.551");
  w.Key("plain").RawNumber("42");
  w.EndObject();
  EXPECT_NE(w.str().find("\"ts\": 18446744073709.551"), std::string::npos);
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("plain")->number, 42.0);
}

}  // namespace
}  // namespace flexrpc
