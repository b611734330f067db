// Allocation gate for the call engine's bookkeeping and the XDR path. This
// binary replaces the global operator new with a counting one — which is
// why it is a binary of its own, leaving the main suite's allocator
// untouched — and pins how many heap allocations a warm EventQueue, a warm
// 1×4 ServerConnection and each step of one NFS read make. The counts are
// exact: everything here runs on the virtual clock with a fault-free wire,
// so one build always makes the same allocations.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/net/sunrpc.h"
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

// The perfbench nfs_read call, step by step.
struct NfsReadAllocs {
  uint64_t encode = 0;  // EncodeSunRpcCall + NfsClient::EncodeRequest
  uint64_t serve = 0;   // NfsFileServer::Handle
  uint64_t decode = 0;  // DecodeSunRpcReplySuccess + NfsClient::DecodeReply
  bool ok = false;
};

NfsReadAllocs ReadOnce(NfsFileServer* server, NfsClient* client,
                       NfsClient::StubKind kind, uint32_t count,
                       uint8_t* user_dest) {
  static const uint8_t fh[kNfsFhSize] = {};
  const NfsClient::ChunkArgs chunk{fh, 0, count, user_dest};
  NfsReadAllocs allocs;
  bool ok = true;
  XdrWriter request;
  {
    AllocCounter counter;
    EncodeSunRpcCall(&request,
                     SunRpcCall{7, kNfsProgram, kNfsVersion, kNfsProcRead});
    ok = client->EncodeRequest(kind, chunk, &request).ok() && ok;
    allocs.encode = counter.count();
  }
  XdrWriter reply;
  {
    AllocCounter counter;
    ok = server->Handle(request.span(), &reply).ok() && ok;
    allocs.serve = counter.count();
  }
  {
    AllocCounter counter;
    XdrReader r(reply.span());
    ok = DecodeSunRpcReplySuccess(&r, 7).ok() && ok;
    Result<uint32_t> delivered = client->DecodeReply(kind, chunk, &r);
    ok = delivered.ok() && *delivered == count && ok;
    allocs.decode = counter.count();
  }
  allocs.ok = ok;
  return allocs;
}

constexpr NfsClient::StubKind kNfsStubKinds[] = {
    NfsClient::StubKind::kGeneratedConventional,
    NfsClient::StubKind::kGeneratedUserBuffer,
    NfsClient::StubKind::kHandConventional,
    NfsClient::StubKind::kHandUserBuffer,
};

class NfsAllocGateTest : public ::testing::Test {
 protected:
  NfsAllocGateTest()
      : server_(64 * 1024, /*seed=*/3),
        client_(&server_, LinkModel(), RemoteServerModel()),
        user_dest_(static_cast<uint8_t*>(
            client_.user_space()->Allocate(kNfsMaxData))) {}

  // One read of `count` bytes through `kind`, counted warm: the first call
  // grows the client's kernel arena and its free lists, so a warm-up read
  // comes first.
  NfsReadAllocs WarmRead(NfsClient::StubKind kind, uint32_t count) {
    ReadOnce(&server_, &client_, kind, count, user_dest_);
    return ReadOnce(&server_, &client_, kind, count, user_dest_);
  }

  NfsFileServer server_;
  NfsClient client_;
  uint8_t* user_dest_;
};

TEST_F(NfsAllocGateTest, EncodingARequestIsOneAllocationForEveryStub) {
  for (NfsClient::StubKind kind : kNfsStubKinds) {
    NfsReadAllocs allocs = WarmRead(kind, 512);
    ASSERT_TRUE(allocs.ok);
    // One: the request writer's first growth (ByteWriter::kFirstGrowth,
    // 256 bytes) holds the 40-byte SunRPC call header and the 44 bytes of
    // readargs. The generated stubs' ArgVec lives on the stack.
    EXPECT_EQ(allocs.encode, 1u) << "stub kind " << static_cast<int>(kind);
  }
}

TEST_F(NfsAllocGateTest, ServerReplyIsOneAllocationAt512BytesAnd8KB) {
  for (uint32_t count : {512u, static_cast<uint32_t>(kNfsMaxData)}) {
    NfsReadAllocs allocs =
        WarmRead(NfsClient::StubKind::kHandUserBuffer, count);
    ASSERT_TRUE(allocs.ok);
    // One: Handle sizes the reply writer to the reply (88 bytes plus the
    // padded data) before it writes a word.
    EXPECT_EQ(allocs.serve, 1u) << count << "-byte read";
  }
}

TEST_F(NfsAllocGateTest, DecodingAReplyMakesNoAllocationForAnyStub) {
  for (NfsClient::StubKind kind : kNfsStubKinds) {
    NfsReadAllocs allocs = WarmRead(kind, 512);
    ASSERT_TRUE(allocs.ok);
    // None: the reader walks the reply in place, the conventional stubs'
    // kernel buffers come from the warm arena's free lists, and the
    // [special] copy routine fits std::function's inline storage.
    EXPECT_EQ(allocs.decode, 0u) << "stub kind " << static_cast<int>(kind);
  }
}

TEST(AllocGateTest, NfsEngineHandlerWritesItsReplyInOneAllocation) {
  NfsFileServer server(64 * 1024, /*seed=*/3);
  DatagramHandler handler = NfsFileServer::MakeHandler(&server);
  XdrWriter request;
  request.PutU32(41);  // [xid]
  request.PutU32(2);   // [conn]
  const size_t prefix = request.size();
  EncodeSunRpcCall(&request,
                   SunRpcCall{41, kNfsProgram, kNfsVersion, kNfsProcRead});
  const uint8_t fh[kNfsFhSize] = {};
  request.PutBytes(fh, sizeof(fh));
  request.PutU32(4096);  // offset
  request.PutU32(700);   // count
  request.PutU32(700);   // totalcount

  std::vector<uint8_t> reply;
  uint64_t count;
  bool ok;
  {
    AllocCounter allocs;
    ok = handler(request.span(), &reply).ok();
    count = allocs.count();
  }
  ASSERT_TRUE(ok);
  // One: the [xid][conn] prefix and the XDR reply are written into one
  // writer sized to both, whose buffer becomes `reply`.
  EXPECT_EQ(count, 1u);
  // The same bytes as the prefix followed by Handle's reply.
  XdrWriter direct;
  ASSERT_TRUE(server.Handle(request.span().subspan(prefix), &direct).ok());
  std::vector<uint8_t> expected(request.span().begin(),
                                request.span().begin() + prefix);
  expected.insert(expected.end(), direct.span().begin(), direct.span().end());
  EXPECT_EQ(reply, expected);
}

}  // namespace
}  // namespace flexrpc
