// Tests for the NFS experiment (paper §4.1): the file server, the four
// client stub variants, and the network model.

#include <gtest/gtest.h>

#include "src/apps/nfs.h"
#include "src/net/sunrpc.h"

namespace flexrpc {
namespace {

TEST(LinkModelTest, TransferTimeScalesWithBytes) {
  LinkModel link;
  double small = link.TransferSeconds(100);
  double large = link.TransferSeconds(100000);
  EXPECT_GT(large, small * 100);  // dominated by serialization at 10 Mbit/s
  VirtualClock clock;
  link.Transfer(8192, &clock);
  EXPECT_GT(clock.now_nanos(), 0u);
}

TEST(LinkModelTest, EmptyDatagramStillCostsAPacket) {
  LinkModel link;
  EXPECT_GT(link.TransferSeconds(0), 0.0);
}

TEST(SunRpcHeaderTest, CallRoundTrip) {
  XdrWriter w;
  EncodeSunRpcCall(&w, SunRpcCall{12345, 100003, 2, 6});
  XdrReader r(w.span());
  auto call = DecodeSunRpcCall(&r);
  ASSERT_TRUE(call.ok()) << call.status().ToString();
  EXPECT_EQ(call->xid, 12345u);
  EXPECT_EQ(call->program, 100003u);
  EXPECT_EQ(call->version, 2u);
  EXPECT_EQ(call->procedure, 6u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SunRpcHeaderTest, ReplyRoundTrip) {
  XdrWriter w;
  EncodeSunRpcReplySuccess(&w, 777);
  XdrReader r(w.span());
  EXPECT_TRUE(DecodeSunRpcReplySuccess(&r, 777).ok());
  XdrReader r2(w.span());
  EXPECT_FALSE(DecodeSunRpcReplySuccess(&r2, 778).ok());  // xid mismatch
}

TEST(SunRpcHeaderTest, StaleXidIsRetryable) {
  // A well-formed reply carrying a different xid is a late duplicate of an
  // earlier call, not wire damage: the decoder must report it with the
  // retryable kUnavailable so the transport discards it and keeps waiting.
  XdrWriter w;
  EncodeSunRpcReplySuccess(&w, 777);
  XdrReader r(w.span());
  Status st = DecodeSunRpcReplySuccess(&r, 778);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
}

TEST(SunRpcHeaderTest, MalformedReplyIsDataLoss) {
  // Truncated mid-header: the conversation is broken, not retryable.
  XdrWriter w;
  EncodeSunRpcReplySuccess(&w, 5);
  XdrReader truncated(ByteSpan(w.span().data(), 8));
  EXPECT_EQ(DecodeSunRpcReplySuccess(&truncated, 5).code(),
            StatusCode::kDataLoss);
  // Non-SUCCESS accept status is likewise terminal.
  XdrWriter denied;
  denied.PutU32(6);  // xid
  denied.PutU32(1);  // REPLY
  denied.PutU32(1);  // MSG_DENIED
  XdrReader r(denied.span());
  EXPECT_EQ(DecodeSunRpcReplySuccess(&r, 6).code(), StatusCode::kDataLoss);
}

TEST(SunRpcHeaderTest, ReplyToCallMismatchRejected) {
  XdrWriter w;
  EncodeSunRpcCall(&w, SunRpcCall{1, 2, 3, 4});
  XdrReader r(w.span());
  // xid matches but msg_type says CALL — structurally wrong, kDataLoss.
  EXPECT_EQ(DecodeSunRpcReplySuccess(&r, 1).code(), StatusCode::kDataLoss);
}

TEST(NfsFileServerTest, ServesCorrectBytes) {
  NfsFileServer server(64 * 1024, /*seed=*/11);
  XdrWriter request;
  EncodeSunRpcCall(&request, SunRpcCall{1, kNfsProgram, kNfsVersion,
                                        kNfsProcRead});
  uint8_t fh[kNfsFhSize] = {};
  request.PutBytes(fh, sizeof(fh));
  request.PutU32(8192);  // offset
  request.PutU32(4096);  // count
  request.PutU32(4096);  // totalcount

  XdrWriter reply;
  ASSERT_TRUE(server.Handle(request.span(), &reply).ok());
  XdrReader r(reply.span());
  ASSERT_TRUE(DecodeSunRpcReplySuccess(&r, 1).ok());
  EXPECT_EQ(r.GetU32().value(), 0u);  // NFS_OK
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(r.GetU32().ok());  // fattr fields
  }
  EXPECT_EQ(r.GetU32().value(), 4096u);  // data length
  auto bytes = r.GetBytes(4096);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(std::memcmp(*bytes, server.content() + 8192, 4096), 0);
}

TEST(NfsFileServerTest, ReadPastEofReturnsError) {
  NfsFileServer server(1024, 1);
  XdrWriter request;
  EncodeSunRpcCall(&request, SunRpcCall{2, kNfsProgram, kNfsVersion,
                                        kNfsProcRead});
  uint8_t fh[kNfsFhSize] = {};
  request.PutBytes(fh, sizeof(fh));
  request.PutU32(4096);
  request.PutU32(1024);
  request.PutU32(1024);
  XdrWriter reply;
  ASSERT_TRUE(server.Handle(request.span(), &reply).ok());
  XdrReader r(reply.span());
  ASSERT_TRUE(DecodeSunRpcReplySuccess(&r, 2).ok());
  EXPECT_EQ(r.GetU32().value(), 5u);  // NFSERR_IO
}

TEST(NfsFileServerTest, ShortReadAtEof) {
  NfsFileServer server(10000, 3);
  XdrWriter request;
  EncodeSunRpcCall(&request, SunRpcCall{3, kNfsProgram, kNfsVersion,
                                        kNfsProcRead});
  uint8_t fh[kNfsFhSize] = {};
  request.PutBytes(fh, sizeof(fh));
  request.PutU32(8192);
  request.PutU32(8192);
  request.PutU32(8192);
  XdrWriter reply;
  ASSERT_TRUE(server.Handle(request.span(), &reply).ok());
  XdrReader r(reply.span());
  ASSERT_TRUE(DecodeSunRpcReplySuccess(&r, 3).ok());
  EXPECT_EQ(r.GetU32().value(), 0u);
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(r.GetU32().ok());
  }
  EXPECT_EQ(r.GetU32().value(), 1808u);  // 10000 - 8192
}

TEST(NfsFileServerTest, UnknownProcedureRejected) {
  NfsFileServer server(1024, 1);
  XdrWriter request;
  EncodeSunRpcCall(&request, SunRpcCall{4, kNfsProgram, kNfsVersion, 99});
  XdrWriter reply;
  EXPECT_EQ(server.Handle(request.span(), &reply).code(),
            StatusCode::kUnimplemented);
}

class NfsClientTest : public ::testing::TestWithParam<NfsClient::StubKind> {
};

INSTANTIATE_TEST_SUITE_P(
    Stubs, NfsClientTest,
    ::testing::Values(NfsClient::StubKind::kGeneratedConventional,
                      NfsClient::StubKind::kGeneratedUserBuffer,
                      NfsClient::StubKind::kHandConventional,
                      NfsClient::StubKind::kHandUserBuffer),
    [](const auto& param_info) {
      switch (param_info.param) {
        case NfsClient::StubKind::kGeneratedConventional:
          return "GenConventional";
        case NfsClient::StubKind::kGeneratedUserBuffer:
          return "GenUserBuffer";
        case NfsClient::StubKind::kHandConventional:
          return "HandConventional";
        case NfsClient::StubKind::kHandUserBuffer:
          return "HandUserBuffer";
      }
      return "?";
    });

TEST_P(NfsClientTest, ReadsWholeFileCorrectly) {
  // ReadFile verifies content internally; 200 KB keeps the test quick
  // while crossing many 8 KB chunk boundaries.
  NfsFileServer server(200 * 1024, /*seed=*/5);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  auto stats = client.ReadFile(GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes_read, 200u * 1024u);
  EXPECT_EQ(stats->rpc_calls, 25u);
  EXPECT_GT(stats->client_seconds, 0.0);
  EXPECT_GT(stats->network_server_seconds, 0.0);
  // Network time dominates at 10 Mbit/s — as in the paper's Figure 2.
  EXPECT_GT(stats->network_server_seconds, stats->client_seconds);
}

TEST_P(NfsClientTest, ReplyLongerThanItsChunkIsRejectedBeforeCopying) {
  // A 64-byte reply decoded into a 16-byte chunk: every stub must refuse
  // it as the [special] stub's caller-buffer check does, and touch neither
  // the chunk nor the 48 bytes after it.
  NfsFileServer server(4096, /*seed=*/13);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  XdrWriter request;
  EncodeSunRpcCall(&request, SunRpcCall{21, kNfsProgram, kNfsVersion,
                                        kNfsProcRead});
  uint8_t fh[kNfsFhSize] = {};
  request.PutBytes(fh, sizeof(fh));
  request.PutU32(0);   // offset
  request.PutU32(64);  // count
  request.PutU32(64);  // totalcount
  XdrWriter reply;
  ASSERT_TRUE(server.Handle(request.span(), &reply).ok());

  auto* user = static_cast<uint8_t*>(client.user_space()->Allocate(64));
  std::memset(user, 0xEE, 64);
  const size_t kernel_blocks = client.kernel_space()->arena().live_blocks();
  NfsClient::ChunkArgs chunk{fh, 0, 16, user};
  XdrReader r(reply.span());
  ASSERT_TRUE(DecodeSunRpcReplySuccess(&r, 21).ok());
  Result<uint32_t> delivered = client.DecodeReply(GetParam(), chunk, &r);
  EXPECT_EQ(delivered.status().code(), StatusCode::kResourceExhausted);
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(user[i], 0xEE) << "byte " << i << " was written";
  }
  // The conventional stubs' kernel-side buffers are released on this path.
  EXPECT_EQ(client.kernel_space()->arena().live_blocks(), kernel_blocks);
}

TEST_P(NfsClientTest, TruncatedReplyLeaksNothing) {
  // A reply that announces 512 data bytes but carries 100 is DATA_LOSS on
  // every stub, and leaves no kernel block behind.
  NfsFileServer server(4096, /*seed=*/17);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  XdrWriter reply;
  reply.PutU32(0);  // NFS_OK
  for (uint32_t i = 0; i < 14; ++i) {  // fattr
    reply.PutU32(i);
  }
  reply.PutU32(512);
  const uint8_t carried[100] = {};
  reply.PutBytes(carried, sizeof(carried));

  auto* user = static_cast<uint8_t*>(client.user_space()->Allocate(512));
  uint8_t fh[kNfsFhSize] = {};
  const size_t kernel_blocks = client.kernel_space()->arena().live_blocks();
  for (int call = 0; call < 3; ++call) {
    XdrReader r(reply.span());
    Result<uint32_t> delivered =
        client.DecodeReply(GetParam(), {fh, 0, 512, user}, &r);
    EXPECT_EQ(delivered.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(client.kernel_space()->arena().live_blocks(), kernel_blocks)
        << "call " << call;
  }
}

TEST(NfsClientWireTest, AllStubsProduceIdenticalRequests) {
  // The presentation must not change the network contract: all four stub
  // variants emit byte-identical request bodies.
  NfsFileServer server(8192, 9);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  uint8_t dest[8192];
  NfsClient::ChunkArgs chunk{fh, 0, 8192, dest};

  std::vector<std::vector<uint8_t>> bodies;
  for (auto kind : {NfsClient::StubKind::kGeneratedConventional,
                    NfsClient::StubKind::kGeneratedUserBuffer,
                    NfsClient::StubKind::kHandConventional,
                    NfsClient::StubKind::kHandUserBuffer}) {
    XdrWriter w;
    auto r = client.EncodeRequest(kind, chunk, &w);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    bodies.emplace_back(w.span().begin(), w.span().end());
  }
  for (size_t i = 1; i < bodies.size(); ++i) {
    EXPECT_EQ(bodies[i], bodies[0]) << "variant " << i;
  }
}

}  // namespace
}  // namespace flexrpc
