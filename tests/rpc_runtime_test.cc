// End-to-end tests for the RPC runtime: IDL text in, cross-domain calls
// out, covering default and annotated presentations over the fast path.

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/marshal/native.h"
#include "src/rpc/runtime.h"

namespace flexrpc {
namespace {

class RpcRuntimeTest : public ::testing::Test {
 protected:
  void Load(std::string_view idl_src, std::string_view client_pdl = "",
            std::string_view server_pdl = "") {
    DiagnosticSink diags;
    idl_ = ParseCorbaIdl(idl_src, "t.idl", &diags);
    ASSERT_NE(idl_, nullptr) << diags.ToString();
    ASSERT_TRUE(AnalyzeInterfaceFile(idl_.get(), &diags)) << diags.ToString();
    if (client_pdl.empty()) {
      ASSERT_TRUE(ApplyPdl(*idl_, Side::kClient, nullptr, &client_, &diags));
    } else {
      ASSERT_TRUE(ApplyPdlText(*idl_, Side::kClient, client_pdl, "c.pdl",
                               &client_, &diags))
          << diags.ToString();
    }
    if (server_pdl.empty()) {
      ASSERT_TRUE(ApplyPdl(*idl_, Side::kServer, nullptr, &server_, &diags));
    } else {
      ASSERT_TRUE(ApplyPdlText(*idl_, Side::kServer, server_pdl, "s.pdl",
                               &server_, &diags))
          << diags.ToString();
    }
    client_task_ = kernel_.CreateTask("client");
    server_task_ = kernel_.CreateTask("server");
  }

  // Dispatches `request` (opnum, then body) to `server` directly and
  // returns the status code its reply carries.
  uint32_t DispatchRaw(ServerObject* server, const NativeWriter& request) {
    std::vector<uint8_t> reply;
    ServerCall call{request.span().data(), request.span().size(), &reply};
    EXPECT_TRUE(server->Dispatch(&call).ok());
    NativeReader reader(ByteSpan(reply.data(), reply.size()));
    Result<uint32_t> code = reader.GetU32();
    return code.ok() ? *code : ~0u;
  }

  Kernel kernel_;
  FastPath fastpath_{&kernel_};
  std::unique_ptr<InterfaceFile> idl_;
  PresentationSet client_;
  PresentationSet server_;
  Task* client_task_ = nullptr;
  Task* server_task_ = nullptr;
};

TEST_F(RpcRuntimeTest, EchoStringAcrossDomains) {
  Load(R"(
    interface Echo {
      string shout(in string text);
    };
  )");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("Echo"), server_task_);
  server.SetWork("shout", [](ArgVec* args, Arena* arena) {
    const char* in = static_cast<const char*>((*args)[0].ptr());
    size_t len = std::strlen(in);
    char* out = static_cast<char*>(arena->AllocateBlock(len + 2));
    out[0] = '!';
    std::memcpy(out + 1, in, len + 1);
    (*args)[args->size() - 1].set_ptr(out);
    return Status::Ok();
  });
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("Echo"));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const MarshalProgram* prog = (*conn)->ProgramFor("shout");
  ArgVec args(prog->slot_count());
  args[prog->SlotOf("text")].set_ptr("hello");
  ASSERT_TRUE((*conn)->Call("shout", &args).ok());
  EXPECT_STREQ(static_cast<const char*>(args[prog->result_slot()].ptr()),
               "!hello");
  // Server-side request storage was released by the dispatch epilogue; the
  // reply buffer the work function donated was freed after marshaling.
  EXPECT_EQ(server_task_->space().arena().live_blocks(), 0u);
}

TEST_F(RpcRuntimeTest, BindRejectsMismatchedInterface) {
  Load("interface A { void f(in long x); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("A"), server_task_);
  Port* port = ExportServer(&kernel_, &fastpath_, &server);

  DiagnosticSink diags;
  auto other = ParseCorbaIdl("interface A { void f(in string x); };",
                             "o.idl", &diags);
  ASSERT_NE(other, nullptr);
  ASSERT_TRUE(AnalyzeInterfaceFile(other.get(), &diags));
  PresentationSet other_pres;
  ASSERT_TRUE(
      ApplyPdl(*other, Side::kClient, nullptr, &other_pres, &diags));
  auto conn =
      RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port, server,
                          other->interfaces[0], *other_pres.Find("A"));
  EXPECT_EQ(conn.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RpcRuntimeTest, ServerErrorTravelsInBand) {
  Load("interface A { void f(in long x); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("A"), server_task_);
  server.SetWork("f", [](ArgVec*, Arena*) {
    return FailedPreconditionError("not ready");
  });
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("A"));
  ASSERT_TRUE(conn.ok());
  const MarshalProgram* prog = (*conn)->ProgramFor("f");
  ArgVec args(prog->slot_count());
  Status st = (*conn)->Call("f", &args);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.message(), "not ready");
}

TEST_F(RpcRuntimeTest, MissingWorkFunctionReported) {
  Load("interface A { void f(); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("A"), server_task_);
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("A"));
  ASSERT_TRUE(conn.ok());
  ArgVec args((*conn)->ProgramFor("f")->slot_count());
  EXPECT_EQ((*conn)->Call("f", &args).code(), StatusCode::kUnimplemented);
}

TEST_F(RpcRuntimeTest, UnknownOperationReported) {
  Load("interface A { void f(); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("A"), server_task_);
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("A"));
  ASSERT_TRUE(conn.ok());
  ArgVec args(1);
  EXPECT_EQ((*conn)->Call("nope", &args).code(), StatusCode::kNotFound);
}

// A request the server cannot unmarshal is answered DATA_LOSS without
// running the work function, and the blocks the partial unmarshal took
// are released: here the struct block and its first string.
TEST_F(RpcRuntimeTest, TruncatedStructRequestFreesWhatWasRead) {
  Load(R"(
    struct Pair { string a; string b; };
    interface P { void put(in Pair p); };
  )");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("P"), server_task_);
  bool ran = false;
  server.SetWork("put", [&](ArgVec*, Arena*) {
    ran = true;
    return Status::Ok();
  });
  NativeWriter request;
  request.PutU32(itf.ops[0].opnum);
  request.PutU32(5);
  request.PutBytes("alpha", 5);
  request.PutU32(5);
  request.PutBytes("br", 2);  // b is cut short
  EXPECT_EQ(DispatchRaw(&server, request),
            static_cast<uint32_t>(StatusCode::kDataLoss));
  EXPECT_FALSE(ran);
  EXPECT_EQ(server_task_->space().arena().live_blocks(), 0u);
}

// The same for a sequence of strings whose third element is cut short:
// the sequence buffer and the two names already read are released.
TEST_F(RpcRuntimeTest, TruncatedStringSequenceRequestFreesWhatWasRead) {
  Load("interface N { void names(in sequence<string> n); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("N"), server_task_);
  bool ran = false;
  server.SetWork("names", [&](ArgVec*, Arena*) {
    ran = true;
    return Status::Ok();
  });
  NativeWriter request;
  request.PutU32(itf.ops[0].opnum);
  request.PutU32(3);
  request.PutU32(3);
  request.PutBytes("one", 3);
  request.PutU32(3);
  request.PutBytes("two", 3);
  request.PutU32(5);
  request.PutBytes("th", 2);  // the third name is cut short
  EXPECT_EQ(DispatchRaw(&server, request),
            static_cast<uint32_t>(StatusCode::kDataLoss));
  EXPECT_FALSE(ran);
  EXPECT_EQ(server_task_->space().arena().live_blocks(), 0u);
}

// A reply the server cannot marshal is answered INVALID_ARGUMENT, and the
// out values the work function donated ([dealloc(always)], the default
// server presentation) are freed all the same: `a`, which broke its
// bound, and `b` after it.
TEST_F(RpcRuntimeTest, FailedReplyMarshalFreesDonatedStorage) {
  Load("interface G { void get(out string<4> a, out string b); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("G"), server_task_);
  const MarshalProgram* prog = server.ProgramFor(itf.ops[0].opnum);
  ASSERT_NE(prog, nullptr);
  const int a = prog->SlotOf("a");
  const int b = prog->SlotOf("b");
  server.SetWork("get", [a, b](ArgVec* args, Arena* arena) {
    for (const auto& [slot, text] : {std::pair{a, "toolong"}, {b, "fine"}}) {
      char* block =
          static_cast<char*>(arena->AllocateBlock(std::strlen(text) + 1));
      std::strcpy(block, text);
      (*args)[static_cast<size_t>(slot)].set_ptr(block);
    }
    return Status::Ok();
  });
  NativeWriter request;
  request.PutU32(itf.ops[0].opnum);
  EXPECT_EQ(DispatchRaw(&server, request),
            static_cast<uint32_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(server_task_->space().arena().live_blocks(), 0u);
}

// The server's default presentation gives variable-size inout data
// [dealloc(always)]: the reply epilogue frees it, so the request release
// that follows must find the slot empty instead of freeing it again.
TEST_F(RpcRuntimeTest, InOutDonatedDataIsFreedOnceOnTheServer) {
  Load("interface E { void echo(inout string s, inout sequence<long> v); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("E"), server_task_);
  server.SetWork("echo", [](ArgVec*, Arena*) { return Status::Ok(); });
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("E"));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const MarshalProgram* prog = (*conn)->ProgramFor("echo");
  const size_t s = static_cast<size_t>(prog->SlotOf("s"));
  const size_t v = static_cast<size_t>(prog->SlotOf("v"));
  for (int call = 0; call < 3; ++call) {
    char text[16] = "hello";
    int32_t longs[3] = {7, -8, 9};
    ArgVec args(prog->slot_count());
    args[s].set_ptr(text);
    args[s].capacity = sizeof(text);
    args[v].set_ptr(longs);
    args[v].length = 3;
    args[v].capacity = 3;
    Status st = (*conn)->Call("echo", &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_STREQ(text, "hello");
    EXPECT_EQ(args[v].length, 3u);
    EXPECT_EQ(longs[1], -8);
    EXPECT_EQ(server_task_->space().arena().live_blocks(), 0u);
  }
}

// The client's default presentation gives variable-size inout data
// [alloc(stub)]: the reply lands in storage the stub allocates rather than
// over the caller's in-value, which needs no capacity, and ReleaseReply
// returns that storage.
TEST_F(RpcRuntimeTest, InOutReplyLandsInStubStorage) {
  Load("interface E { void echo(inout string s, inout sequence<long> v); };");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("E"), server_task_);
  server.SetWork("echo", [](ArgVec* args, Arena*) {
    for (char* c = static_cast<char*>((*args)[0].ptr()); *c != '\0'; ++c) {
      *c = static_cast<char>(*c - 'a' + 'A');
    }
    auto* v = static_cast<int32_t*>((*args)[1].ptr());
    for (uint32_t i = 0; i < (*args)[1].length; ++i) {
      v[i] = -v[i];
    }
    return Status::Ok();
  });
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("E"));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const MarshalProgram* prog = (*conn)->ProgramFor("echo");
  const size_t s = static_cast<size_t>(prog->SlotOf("s"));
  const size_t v = static_cast<size_t>(prog->SlotOf("v"));
  Arena& arena = client_task_->space().arena();
  const size_t baseline = arena.live_blocks();
  for (int call = 0; call < 3; ++call) {
    char text[] = "hello";
    int32_t longs[3] = {7, -8, 9};
    ArgVec args(prog->slot_count());
    args[s].set_ptr(text);  // no capacity: an in-value, not a buffer
    args[v].set_ptr(longs);
    args[v].length = 3;
    Status st = (*conn)->Call("echo", &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_STREQ(text, "hello");
    EXPECT_EQ(longs[0], 7);
    EXPECT_EQ(longs[1], -8);
    EXPECT_TRUE(arena.Owns(args[s].ptr()));
    EXPECT_STREQ(static_cast<const char*>(args[s].ptr()), "HELLO");
    ASSERT_TRUE(arena.Owns(args[v].ptr()));
    ASSERT_EQ(args[v].length, 3u);
    const auto* echoed = static_cast<const int32_t*>(args[v].ptr());
    EXPECT_EQ(echoed[0], -7);
    EXPECT_EQ(echoed[1], 8);
    EXPECT_EQ(echoed[2], -9);
    prog->ReleaseReply(&arena, &args);
    EXPECT_EQ(arena.live_blocks(), baseline);
  }
}

TEST_F(RpcRuntimeTest, SequenceOutParamWithCallerBuffer) {
  Load(R"(
    interface Blob {
      void fetch(in unsigned long count, out sequence<octet> data);
    };
  )", "Blob_fetch(unsigned long count, char *[alloc(user)] data);", "");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("Blob"), server_task_);
  server.SetWork("fetch", [](ArgVec* args, Arena* arena) {
    uint32_t count = static_cast<uint32_t>((*args)[0].scalar);
    auto* buf = static_cast<uint8_t*>(arena->AllocateBlock(count));
    std::memset(buf, 0xC3, count);
    (*args)[1].set_ptr(buf);
    (*args)[1].length = count;
    return Status::Ok();
  });
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("Blob"));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  const MarshalProgram* prog = (*conn)->ProgramFor("fetch");
  uint8_t mine[256];
  ArgVec args(prog->slot_count());
  args[prog->SlotOf("count")].scalar = 200;
  args[prog->SlotOf("data")].set_ptr(mine);
  args[prog->SlotOf("data")].capacity = sizeof(mine);
  ASSERT_TRUE((*conn)->Call("fetch", &args).ok());
  EXPECT_EQ(args[prog->SlotOf("data")].length, 200u);
  EXPECT_EQ(mine[100], 0xC3);
  // No stub allocation happened in the client's space for the data.
  EXPECT_EQ(client_task_->space().arena().live_blocks(), 0u);
}

TEST_F(RpcRuntimeTest, ManyCallsNoLeaks) {
  Load(R"(
    interface KV {
      sequence<octet> get(in string key);
    };
  )");
  const InterfaceDecl& itf = idl_->interfaces[0];
  ServerObject server(itf, *server_.Find("KV"), server_task_);
  server.SetWork("get", [](ArgVec* args, Arena* arena) {
    const char* key = static_cast<const char*>((*args)[0].ptr());
    size_t n = std::strlen(key) * 3;
    auto* buf = static_cast<uint8_t*>(arena->AllocateBlock(n > 0 ? n : 1));
    std::memset(buf, 0xEE, n);
    (*args)[args->size() - 1].set_ptr(buf);
    (*args)[args->size() - 1].length = static_cast<uint32_t>(n);
    return Status::Ok();
  });
  Port* port = ExportServer(&kernel_, &fastpath_, &server);
  auto conn = RpcConnection::Bind(&kernel_, &fastpath_, client_task_, port,
                                  server, itf, *client_.Find("KV"));
  ASSERT_TRUE(conn.ok());
  const MarshalProgram* prog = (*conn)->ProgramFor("get");
  for (int i = 0; i < 100; ++i) {
    ArgVec args(prog->slot_count());
    args[prog->SlotOf("key")].set_ptr("some-key");
    ASSERT_TRUE((*conn)->Call("get", &args).ok());
    EXPECT_EQ(args[prog->result_slot()].length, 24u);
    // The client frees the donated buffer (move semantics).
    client_task_->space().Free(args[prog->result_slot()].ptr());
  }
  EXPECT_EQ(server_task_->space().arena().live_blocks(), 0u);
  EXPECT_EQ(client_task_->space().arena().live_blocks(), 0u);
}

}  // namespace
}  // namespace flexrpc
