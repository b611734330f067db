// Allocation gate for the call engine's bookkeeping. This binary replaces
// the global operator new with a counting one — which is why it is a
// binary of its own, leaving the main suite's allocator untouched — and
// pins how many heap allocations a warm EventQueue and a warm 1×4
// ServerConnection make. The counts are exact: everything here runs on
// the virtual clock with a fault-free wire, so one build always makes the
// same allocations.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/rpc/dispatch.h"
#include "src/support/event_queue.h"
#include "src/support/timing.h"

namespace {

bool g_counting = false;
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting) {
    ++g_allocs;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Counts the global operator new calls made while it is alive.
class AllocCounter {
 public:
  AllocCounter() : start_(g_allocs) { g_counting = true; }
  ~AllocCounter() { g_counting = false; }
  uint64_t count() const { return g_allocs - start_; }

 private:
  uint64_t start_;
};

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flexrpc {
namespace {

TEST(AllocGateTest, WarmEventQueueSchedulesCancelsAndRunsWithoutAllocating) {
  VirtualClock clock;
  EventQueue q(&clock);
  uint64_t sink = 0;
  std::vector<EventQueue::EventId> ids(64);
  // 64 events with scattered deadlines, every fourth cancelled, the rest
  // run: the engine's schedule/cancel/run mix.
  auto round = [&] {
    for (uint64_t j = 0; j < ids.size(); ++j) {
      auto callback = [s = &sink, j, a = uint64_t{1}, b = uint64_t{2}] {
        *s += j + a + b;
      };
      static_assert(sizeof(callback) == EventQueue::kInlineBytes);
      ids[j] = q.ScheduleAfter(1 + (j * 37) % 1000, callback);
    }
    for (size_t j = 0; j < ids.size(); j += 4) {
      ASSERT_TRUE(q.Cancel(ids[j]));
    }
    ASSERT_EQ(q.RunUntilIdle(), 48u);
  };
  // Warm-up: the slab, the heap and the id index reach their steady size
  // (the index keeps up to ~1k dead ids before it trims them).
  for (int i = 0; i < 64; ++i) {
    round();
  }
  AllocCounter allocs;
  for (int i = 0; i < 64; ++i) {
    round();
  }
  EXPECT_EQ(allocs.count(), 0u);
  EXPECT_GT(sink, 0u);
}

TEST(AllocGateTest, WarmServerConnectionCallsMakeOnlyTheirNamedAllocations) {
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan(), FaultPlan(), &clock);
  EventQueue events(&clock);
  MuxPolicy policy;
  policy.per_conn_window = 4;
  ServerConnection rpc(
      &channel,
      [](ByteSpan request, std::vector<uint8_t>* reply) {
        reply->assign(request.begin(), request.end());
        return Status::Ok();
      },
      policy, &events);
  const uint8_t body[16] = {};
  uint32_t xid = 0;
  int ok = 0;
  // One window's worth of calls, driven to completion.
  auto batch = [&] {
    for (int i = 0; i < 4; ++i) {
      rpc.Submit(++xid, ByteSpan(body, sizeof(body)),
                 [&ok](Status st, std::vector<uint8_t>) { ok += st.ok(); });
    }
    ASSERT_TRUE(rpc.Drive().ok());
  };
  // Warm-up: 800 calls take the event queue's id index and heap, and the
  // dispatch's reply buffers, to their steady size.
  for (int i = 0; i < 200; ++i) {
    batch();
  }
  AllocCounter allocs;
  for (int i = 0; i < 6; ++i) {  // 24 measured calls
    batch();
  }
  uint64_t count = allocs.count();
  EXPECT_EQ(ok, 824);
  // Seven per call:
  //   1. the caller-xid key of ServerConnection's Submit (a hash-set node),
  //   2. the framed [xid][conn][body] request, kept for retransmits,
  //   3. the request's wire frame (DatagramChannel::Send),
  //   4. the handler's reply vector,
  //   5-6. the reply cache entry: its hash-map node and its LRU list node,
  //   7. the reply's wire frame.
  // Plus the std::deque nodes of the channel's two frame queues, one per
  // twelve frames a direction: 2 + 2 here. (The dispatch's queue of
  // run-queue start times takes a node every ~85 calls, none in this
  // stretch.) The event queue, the connection's in-flight table and the
  // parked reply buffers add nothing.
  EXPECT_EQ(count, 24u * 7 + 4);
}

}  // namespace
}  // namespace flexrpc
