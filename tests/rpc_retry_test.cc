// Unit tests for the lossy-wire substrate (src/net/fault.h,
// src/net/datagram.h) and the at-most-once building blocks
// (src/rpc/retry.h): deterministic fault decisions, checksum framing, the
// LRU reply cache, and (connection, xid)-keyed duplicate suppression. The
// call engine that runs on them is tested in rpc_engine_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/retry.h"

namespace flexrpc {
namespace {

FaultConfig MixedFaults(uint64_t seed) {
  FaultConfig config;
  config.drop_prob = 0.2;
  config.dup_prob = 0.1;
  config.reorder_prob = 0.1;
  config.corrupt_prob = 0.1;
  config.extra_delay_prob = 0.2;
  config.seed = seed;
  return config;
}

TEST(FaultPlanTest, SameSeedSameDecisions) {
  FaultPlan a(MixedFaults(7));
  FaultPlan b(MixedFaults(7));
  for (int i = 0; i < 500; ++i) {
    FaultPlan::Decision da = a.Next();
    FaultPlan::Decision db = b.Next();
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.reorder, db.reorder);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.extra_delay_nanos, db.extra_delay_nanos);
    EXPECT_EQ(da.corrupt_salt, db.corrupt_salt);
  }
  EXPECT_EQ(a.packets_decided(), 500u);
}

TEST(FaultPlanTest, PerfectWireByDefault) {
  FaultPlan plan;
  for (int i = 0; i < 100; ++i) {
    FaultPlan::Decision d = plan.Next();
    EXPECT_FALSE(d.drop || d.duplicate || d.reorder || d.corrupt);
    EXPECT_EQ(d.extra_delay_nanos, 0u);
  }
}

TEST(FaultPlanTest, ScriptedDropRange) {
  FaultPlan plan;  // no probabilistic faults
  plan.DropExactly(2, 4);
  bool expected[] = {false, false, true, true, true, false, false};
  for (bool want : expected) {
    EXPECT_EQ(plan.Next().drop, want);
  }
}

TEST(FaultPlanTest, DropSuppressesOtherFaults) {
  FaultConfig config;
  config.dup_prob = 1.0;
  config.corrupt_prob = 1.0;
  config.extra_delay_prob = 1.0;
  FaultPlan plan(config);
  plan.DropExactly(0, 0);
  FaultPlan::Decision d = plan.Next();
  EXPECT_TRUE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_FALSE(d.corrupt);
  EXPECT_EQ(d.extra_delay_nanos, 0u);
}

ByteSpan Span(const char* s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s), std::strlen(s));
}

TEST(DatagramChannelTest, RoundTripChargesTheClock) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("hello wire"));
  EXPECT_GT(clock.now_nanos(), 0u);
  ASSERT_TRUE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(std::string(got->begin(), got->end()), "hello wire");
  EXPECT_FALSE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  EXPECT_EQ(ch.stats().sent, 1u);
  EXPECT_EQ(ch.stats().delivered, 1u);
}

TEST(DatagramChannelTest, DirectionsAreIndependent) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("request"));
  EXPECT_FALSE(ch.HasPending(DatagramChannel::Dir::kBtoA));
  ch.Send(DatagramChannel::Dir::kBtoA, Span("reply"));
  auto reply = ch.Receive(DatagramChannel::Dir::kBtoA);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::string(reply->begin(), reply->end()), "reply");
}

TEST(DatagramChannelTest, DroppedFrameNeverArrives) {
  VirtualClock clock;
  FaultPlan drops;
  drops.DropExactly(0, 0);
  DatagramChannel ch(LinkModel(), std::move(drops), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("gone"));
  EXPECT_FALSE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  EXPECT_EQ(ch.stats().dropped, 1u);
  EXPECT_GT(clock.now_nanos(), 0u);  // it still occupied the wire
}

TEST(DatagramChannelTest, DuplicateArrivesTwice) {
  VirtualClock clock;
  FaultConfig config;
  config.dup_prob = 1.0;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("twice"));
  EXPECT_EQ(ch.stats().duplicated, 1u);
  int arrivals = 0;
  while (ch.HasPending(DatagramChannel::Dir::kAtoB)) {
    auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::string(got->begin(), got->end()), "twice");
    ++arrivals;
  }
  EXPECT_EQ(arrivals, 2);
}

TEST(DatagramChannelTest, ReorderOvertakesQueuedFrame) {
  VirtualClock clock;
  FaultConfig config;
  config.reorder_prob = 1.0;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("first"));
  ch.Send(DatagramChannel::Dir::kAtoB, Span("second"));
  EXPECT_EQ(ch.stats().reordered, 1u);  // first send had nothing to pass
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->begin(), got->end()), "second");
}

TEST(DatagramChannelTest, ChecksumCatchesCorruption) {
  VirtualClock clock;
  FaultConfig config;
  config.corrupt_prob = 1.0;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("fragile payload bytes"));
  ASSERT_TRUE(ch.HasPending(DatagramChannel::Dir::kAtoB));
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ch.stats().corrupted, 1u);
  EXPECT_EQ(ch.stats().checksum_failures, 1u);
  EXPECT_EQ(ch.stats().delivered, 0u);
}

// Payload bytes for the checksum tests: a fixed pattern in which
// neighbouring bytes always differ.
std::vector<uint8_t> Pattern(size_t size) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return bytes;
}

// Counts the single-byte edits, one offset and mask at a time, that leave
// DatagramChecksum unchanged.
uint64_t ChecksumMisses(std::vector<uint8_t> bytes,
                        const std::vector<uint8_t>& masks) {
  const uint32_t clean = DatagramChecksum(ByteSpan(bytes));
  uint64_t misses = 0;
  for (uint8_t& b : bytes) {
    for (uint8_t mask : masks) {
      b ^= mask;
      misses += DatagramChecksum(ByteSpan(bytes)) == clean;
      b ^= mask;
    }
  }
  return misses;
}

TEST(DatagramChannelTest, EverySingleByteEditChangesTheChecksum) {
  // Sizes 0-70 put an edit in every word of a 32-byte round, in the second
  // round, and at every position of the byte-by-byte tail.
  std::vector<uint8_t> all_masks;
  for (int mask = 1; mask <= 0xFF; ++mask) {
    all_masks.push_back(static_cast<uint8_t>(mask));
  }
  for (size_t size = 0; size <= 70; ++size) {
    EXPECT_EQ(ChecksumMisses(Pattern(size), all_masks), 0u) << size;
  }
  EXPECT_EQ(ChecksumMisses(Pattern(8200), {0x01, 0x80, 0xFF}), 0u);
}

TEST(DatagramChannelTest, ChecksumIsPinnedAndIndependentOfAlignment) {
  // The value of the documented construction (eight little-endian FNV-1a
  // lanes, folded, then the tail), independent of the host.
  const std::vector<uint8_t> bytes = Pattern(70);
  EXPECT_EQ(DatagramChecksum(ByteSpan(bytes)), 0x076621B2u);
  EXPECT_EQ(DatagramChecksum(ByteSpan()), 0x84FEBEEDu);
  for (size_t offset = 1; offset <= 3; ++offset) {
    std::vector<uint8_t> shifted(offset + bytes.size());
    std::copy(bytes.begin(), bytes.end(), shifted.begin() + offset);
    EXPECT_EQ(DatagramChecksum(ByteSpan(shifted).subspan(offset)),
              0x076621B2u)
        << offset;
  }
}

TEST(DatagramChannelTest, RoundTripReturnsEveryPayloadByteForByte) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  std::vector<size_t> sizes;
  for (size_t size = 0; size <= 70; ++size) {
    sizes.push_back(size);
  }
  sizes.push_back(8200);
  for (size_t size : sizes) {
    // Size 0 sends an empty span (an empty vector's data() may be null).
    const std::vector<uint8_t> payload = Pattern(size);
    ch.Send(DatagramChannel::Dir::kAtoB,
            ByteSpan(payload.data(), payload.size()));
    auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
    ASSERT_TRUE(got.ok()) << size << ": " << got.status().ToString();
    EXPECT_EQ(*got, payload) << size;
  }
  EXPECT_EQ(ch.stats().delivered, sizes.size());
}

TEST(DatagramChannelTest, ScriptedCorruptionOfEveryFrameIsDetected) {
  VirtualClock clock;
  FaultPlan corrupt;
  corrupt.CorruptExactly(0, 199);
  DatagramChannel ch(LinkModel(), std::move(corrupt), FaultPlan(), &clock);
  std::map<std::string, int> reasons;
  for (size_t size = 0; size < 200; ++size) {
    const std::vector<uint8_t> payload = Pattern(size);
    ch.Send(DatagramChannel::Dir::kAtoB,
            ByteSpan(payload.data(), payload.size()));
    auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
    ASSERT_FALSE(got.ok()) << size;
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss) << size;
    ++reasons[got.status().message()];
  }
  EXPECT_EQ(ch.stats().corrupted, 200u);
  EXPECT_EQ(ch.stats().checksum_failures, 200u);
  EXPECT_EQ(ch.stats().delivered, 0u);
  // The flipped bytes land in the length field as well as in the checksum
  // and the payload.
  EXPECT_GT(reasons["datagram frame has bad length"], 0);
  EXPECT_GT(reasons["datagram checksum mismatch"], 0);
}

TEST(DatagramChannelTest, ExtraDelayChargedAtDelivery) {
  VirtualClock clock;
  FaultConfig config;
  config.extra_delay_prob = 1.0;
  config.extra_delay_max_nanos = 5'000'000;
  DatagramChannel ch(LinkModel(), FaultPlan(config), FaultPlan(), &clock);
  ch.Send(DatagramChannel::Dir::kAtoB, Span("late"));
  uint64_t after_send = clock.now_nanos();
  ASSERT_TRUE(ch.Receive(DatagramChannel::Dir::kAtoB).ok());
  EXPECT_GT(clock.now_nanos(), after_send);
}

TEST(DatagramChannelTest, EmptyReceiveIsFailedPrecondition) {
  VirtualClock clock;
  DatagramChannel ch(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  auto got = ch.Receive(DatagramChannel::Dir::kAtoB);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReplyCacheTest, FindInsertAndLruEviction) {
  ReplyCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Insert(1, {0xAA});
  cache.Insert(2, {0xBB});
  // The lookup marks xid 1 recently used — a retransmit is probing it.
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ((*cache.Find(1))[0], 0xAA);
  cache.Insert(3, {0xCC});  // evicts xid 2, the least recently used
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(2), nullptr);
  ASSERT_NE(cache.Find(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ReplyCacheTest, InsertOverwriteRefreshesSlot) {
  ReplyCache cache(/*capacity=*/2);
  cache.Insert(1, {0xAA});
  cache.Insert(2, {0xBB});
  // Overwriting xid 1 must refresh its LRU slot, not leave it the oldest.
  cache.Insert(1, {0xA1});
  cache.Insert(3, {0xCC});  // evicts xid 2
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ((*cache.Find(1))[0], 0xA1);
  EXPECT_EQ(cache.Find(2), nullptr);
  ASSERT_NE(cache.Find(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

// --- the at-most-once endpoint, keyed by (connection, xid) ---------------

// Builds a mux-framed request: [xid u32 BE][conn u32 BE][marker].
std::vector<uint8_t> ConnRequest(uint32_t conn, uint32_t xid,
                                 uint8_t marker) {
  return {static_cast<uint8_t>(xid >> 24),  static_cast<uint8_t>(xid >> 16),
          static_cast<uint8_t>(xid >> 8),   static_cast<uint8_t>(xid),
          static_cast<uint8_t>(conn >> 24), static_cast<uint8_t>(conn >> 16),
          static_cast<uint8_t>(conn >> 8),  static_cast<uint8_t>(conn),
          marker};
}

// An endpoint whose handler echoes the request and counts executions per
// (conn, xid) key — the evidence for every at-most-once claim below.
struct ConnEndpointRig {
  explicit ConnEndpointRig(size_t cache_capacity = 256)
      : endpoint(
            [this](ByteSpan request, std::vector<uint8_t>* reply) {
              auto xid = PeekXid(request);
              if (!xid.ok()) {
                return xid.status();
              }
              ++executions[(static_cast<uint64_t>(last_conn) << 32) | *xid];
              reply->assign(request.begin(), request.end());
              return Status::Ok();
            },
            cache_capacity) {}

  Result<AtMostOnceEndpoint::Handled> Handle(uint32_t conn, uint32_t xid,
                                             uint8_t marker) {
    last_conn = conn;
    std::vector<uint8_t> request = ConnRequest(conn, xid, marker);
    return endpoint.Handle(conn, ByteSpan(request.data(), request.size()));
  }

  AtMostOnceEndpoint endpoint;
  std::map<uint64_t, int> executions;
  uint32_t last_conn = 0;
};

TEST(AtMostOnceEndpointTest, LruKeepsRetransmittedXidExactlyOnce) {
  // Capacity 2 with three live xids: the endpoint must keep the xid that
  // is still being retransmitted (touched by every duplicate probe) and
  // evict the idle one. With FIFO eviction xid 1 would age out mid-flight
  // and its retransmit would re-execute the handler — at-most-once broken.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 1, 0x01).ok());  // executes
  ASSERT_TRUE(rig.Handle(1, 2, 0x02).ok());  // executes; cache now full
  auto dup1 = rig.Handle(1, 1, 0x01);  // retransmit of 1 mid-flight: hit
  ASSERT_TRUE(dup1.ok());
  EXPECT_TRUE(dup1->dup_hit);
  ASSERT_TRUE(rig.Handle(1, 3, 0x03).ok());  // overflows: must evict idle 2
  auto dup1_again = rig.Handle(1, 1, 0x01);  // 1 must STILL be suppressed
  ASSERT_TRUE(dup1_again.ok());
  EXPECT_TRUE(dup1_again->dup_hit);
  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 1);  // exactly once
  EXPECT_EQ(rig.executions[(1ull << 32) | 3], 1);
  EXPECT_EQ(rig.endpoint.hits(), 2u);
  EXPECT_EQ(rig.endpoint.misses(), 3u);
}

TEST(AtMostOnceEndpointTest, ConnectionsDoNotShareXidSpace) {
  // Bugfix regression. At-most-once state used to be keyed by bare xid;
  // under the mux every connection allocates xids from 1, so two clients
  // collide immediately: the second connection's FIRST request on xid 1
  // matched the first connection's cached reply — answered with another
  // client's bytes and never executed. Keying by (conn, xid) makes both
  // first requests execute, each with its own reply.
  ConnEndpointRig rig;
  auto first = rig.Handle(/*conn=*/1, /*xid=*/1, /*marker=*/0xA1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->dup_hit);
  std::vector<uint8_t> first_reply = *first->reply;

  auto second = rig.Handle(/*conn=*/2, /*xid=*/1, /*marker=*/0xB2);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->dup_hit);  // pre-fix: dup_hit, handler skipped
  EXPECT_NE(*second->reply, first_reply);
  EXPECT_EQ(second->reply->back(), 0xB2);

  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 1);
  EXPECT_EQ(rig.executions[(2ull << 32) | 1], 1);
  // Each connection's retransmit still hits its own cache.
  auto dup = rig.Handle(/*conn=*/2, /*xid=*/1, /*marker=*/0xB2);
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->dup_hit);
  EXPECT_EQ(rig.executions[(2ull << 32) | 1], 1);
}

TEST(AtMostOnceEndpointTest, PerConnectionCachesIsolateEviction) {
  // Bugfix regression. With one shared fixed-capacity cache, a burst on
  // one connection evicted other connections' in-flight entries — the
  // noisy-neighbor at-most-once hazard. Capacity is per connection now:
  // conn 2 churning through 3x capacity cannot touch conn 1's entry.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 1, 0x11).ok());
  for (uint32_t xid = 1; xid <= 6; ++xid) {
    ASSERT_TRUE(rig.Handle(2, xid, 0x22).ok());  // evicts only conn 2's
  }
  auto dup = rig.Handle(1, 1, 0x11);  // retransmit mid-flight
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->dup_hit);  // pre-fix: evicted, re-executed
  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 1);
  EXPECT_GE(rig.endpoint.CacheFor(2).evictions(), 4u);
  EXPECT_EQ(rig.endpoint.CacheFor(1).evictions(), 0u);
}

TEST(AtMostOnceEndpointTest, EvictionDuringRetransmitIsCountedExactly) {
  // The detector itself: when capacity pressure DOES evict an xid that is
  // still being retransmitted, the re-execution cannot be prevented (the
  // reply bytes are gone) but it must be counted — the endpoint keeps an
  // exact executed-xid memory per connection, so the violation shows up
  // as evicted_reexecs() == 1, which the fleet soak gates at zero.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 1, 0x01).ok());
  ASSERT_TRUE(rig.Handle(1, 2, 0x02).ok());
  ASSERT_TRUE(rig.Handle(1, 3, 0x03).ok());  // evicts xid 1
  EXPECT_EQ(rig.endpoint.evictions(), 1u);
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 0u);
  auto re = rig.Handle(1, 1, 0x01);  // late retransmit of the evicted xid
  ASSERT_TRUE(re.ok());
  EXPECT_FALSE(re->dup_hit);                      // cache cannot help
  EXPECT_EQ(rig.executions[(1ull << 32) | 1], 2);  // violation happened...
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 1u);   // ...and was counted
}

TEST(AtMostOnceEndpointTest, ReorderedFirstDeliveryIsNotAReexec) {
  // No false positives: out-of-order FIRST deliveries (wire reorder) are
  // first executions, not re-executions — the detector tracks the exact
  // executed set, not a high-water mark.
  ConnEndpointRig rig(/*cache_capacity=*/2);
  ASSERT_TRUE(rig.Handle(1, 3, 0x03).ok());  // arrives first
  ASSERT_TRUE(rig.Handle(1, 1, 0x01).ok());  // delayed below the max xid
  ASSERT_TRUE(rig.Handle(1, 2, 0x02).ok());
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 0u);
}

TEST(AtMostOnceEndpointTest, FirstExecutionOfXidZeroIsNotAReexec) {
  // Bugfix regression. The executed-xid memory started out treating xid 0
  // as executed, so the first run of xid 0 — an xid CallChannel::Submit
  // accepts like any other — was counted as an at-most-once violation.
  ConnEndpointRig rig;
  auto first = rig.Handle(/*conn=*/1, /*xid=*/0, /*marker=*/0x00);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->dup_hit);
  EXPECT_EQ(rig.executions[1ull << 32], 1);
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 0u);  // pre-fix: 1
}

TEST(AtMostOnceEndpointTest, EvictedXidZeroReexecIsCounted) {
  // The fix keeps the detector exact for xid 0: evicted from a one-entry
  // cache and executed again, it counts exactly once.
  ConnEndpointRig rig(/*cache_capacity=*/1);
  ASSERT_TRUE(rig.Handle(1, 0, 0x00).ok());
  ASSERT_TRUE(rig.Handle(1, 1, 0x01).ok());  // evicts xid 0
  auto re = rig.Handle(1, 0, 0x00);
  ASSERT_TRUE(re.ok());
  EXPECT_FALSE(re->dup_hit);
  EXPECT_EQ(rig.executions[1ull << 32], 2);
  EXPECT_EQ(rig.endpoint.evicted_reexecs(), 1u);
}

TEST(PeekXidTest, BigEndianAndTruncation) {
  uint8_t bytes[] = {0x01, 0x02, 0x03, 0x04, 0xFF};
  auto xid = PeekXid(ByteSpan(bytes, sizeof(bytes)));
  ASSERT_TRUE(xid.ok());
  EXPECT_EQ(*xid, 0x01020304u);
  auto bad = PeekXid(ByteSpan(bytes, 3));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace flexrpc
