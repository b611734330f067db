// Tests for the presentation-aware marshal engine: cross-presentation
// interoperability (the paper's core claim), [special] routines, explicit
// lengths, allocation policies, and dealloc behavior.

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/engine.h"
#include "src/marshal/layout.h"
#include "src/marshal/native.h"
#include "src/marshal/xdr.h"
#include "src/pdl/apply.h"

namespace flexrpc {
namespace {

struct Compiled {
  std::unique_ptr<InterfaceFile> idl;
  PresentationSet client;
  PresentationSet server;
};

Compiled Compile(std::string_view idl_src, bool sunrpc,
                 std::string_view client_pdl, std::string_view server_pdl) {
  Compiled c;
  DiagnosticSink diags;
  c.idl = sunrpc ? ParseSunRpc(idl_src, "t.x", &diags)
                 : ParseCorbaIdl(idl_src, "t.idl", &diags);
  EXPECT_NE(c.idl, nullptr) << diags.ToString();
  EXPECT_TRUE(AnalyzeInterfaceFile(c.idl.get(), &diags)) << diags.ToString();
  if (client_pdl.empty()) {
    EXPECT_TRUE(ApplyPdl(*c.idl, Side::kClient, nullptr, &c.client, &diags))
        << diags.ToString();
  } else {
    EXPECT_TRUE(ApplyPdlText(*c.idl, Side::kClient, client_pdl, "c.pdl",
                             &c.client, &diags))
        << diags.ToString();
  }
  if (server_pdl.empty()) {
    EXPECT_TRUE(ApplyPdl(*c.idl, Side::kServer, nullptr, &c.server, &diags))
        << diags.ToString();
  } else {
    EXPECT_TRUE(ApplyPdlText(*c.idl, Side::kServer, server_pdl, "s.pdl",
                             &c.server, &diags))
        << diags.ToString();
  }
  return c;
}

constexpr char kSysLogIdl[] = R"(
  interface SysLog {
    void write_msg(in string msg);
  };
)";

// The paper's §1 point: a client using the explicit-length presentation
// interoperates with a server using the default NUL-terminated one, because
// the wire bytes are identical.
TEST(EngineTest, AlternatePresentationInteroperates) {
  Compiled c = Compile(
      kSysLogIdl, false,
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
      /*server_pdl=*/"");
  const InterfaceDecl& itf = c.idl->interfaces[0];
  const OperationDecl& op = itf.ops[0];

  MarshalProgram client_prog = MarshalProgram::Build(
      op, *c.client.Find("SysLog")->FindOp("write_msg"));
  MarshalProgram server_prog = MarshalProgram::Build(
      op, *c.server.Find("SysLog")->FindOp("write_msg"));

  // Client passes an unterminated buffer + explicit length.
  const char buffer[] = {'h', 'e', 'l', 'l', 'o', '!', '!', '!'};
  ArgVec client_args(client_prog.slot_count());
  int msg_slot = client_prog.SlotOf("msg");
  int len_slot = client_prog.SlotOf("length");
  ASSERT_GE(msg_slot, 0);
  ASSERT_GE(len_slot, 0);
  client_args[msg_slot].set_ptr(buffer);
  client_args[len_slot].scalar = 5;  // only "hello"

  XdrWriter wire;
  ASSERT_TRUE(client_prog.MarshalRequest(client_args, &wire).ok());

  // Server (default presentation) sees a NUL-terminated string.
  Arena server_arena("server");
  ArgVec server_args(server_prog.slot_count());
  XdrReader reader(wire.span());
  ASSERT_TRUE(
      server_prog.UnmarshalRequest(&reader, &server_arena, &server_args)
          .ok());
  int s_msg = server_prog.SlotOf("msg");
  EXPECT_STREQ(static_cast<const char*>(server_args[s_msg].ptr()), "hello");

  server_prog.ReleaseRequest(&server_arena, &server_args);
  EXPECT_EQ(server_arena.live_blocks(), 0u);
}

TEST(EngineTest, DefaultStringPresentationUsesStrlen) {
  Compiled c = Compile(kSysLogIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram prog = MarshalProgram::Build(
      op, *c.client.Find("SysLog")->FindOp("write_msg"));
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("msg")].set_ptr("four");
  XdrWriter wire;
  ASSERT_TRUE(prog.MarshalRequest(args, &wire).ok());
  XdrReader r(wire.span());
  EXPECT_EQ(r.GetU32().value(), 4u);
}

constexpr char kFileIoIdl[] = R"(
  interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
  };
)";

TEST(EngineTest, ReadReplyRoundTripDefaultPresentation) {
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& read = c.idl->interfaces[0].ops[0];
  MarshalProgram server_prog =
      MarshalProgram::Build(read, *c.server.Find("FileIO")->FindOp("read"));
  MarshalProgram client_prog =
      MarshalProgram::Build(read, *c.client.Find("FileIO")->FindOp("read"));

  // Server work function "allocated" a buffer and returns it (move).
  Arena server_arena("server");
  void* payload = server_arena.AllocateBlock(1024);
  std::memset(payload, 0x5A, 1024);
  ArgVec server_args(server_prog.slot_count());
  server_args[server_prog.result_slot()].set_ptr(payload);
  server_args[server_prog.result_slot()].length = 1024;

  NativeWriter wire;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &wire, &server_arena).ok());
  // Default server presentation deallocates after marshal (move semantics).
  EXPECT_EQ(server_arena.live_blocks(), 0u);

  Arena client_arena("client");
  ArgVec client_args(client_prog.slot_count());
  NativeReader reader(wire.span());
  ASSERT_TRUE(
      client_prog.UnmarshalReply(&reader, &client_arena, &client_args).ok());
  const ArgValue& result = client_args[client_prog.result_slot()];
  EXPECT_EQ(result.length, 1024u);
  EXPECT_EQ(static_cast<const uint8_t*>(result.ptr())[512], 0x5A);
  // Client owns the returned buffer and must free it.
  EXPECT_EQ(client_arena.live_blocks(), 1u);
  client_prog.ReleaseReply(&client_arena, &client_args);
  EXPECT_EQ(client_arena.live_blocks(), 0u);
}

// [dealloc(always)] donates every out value to the stub, so a reply that
// fails part-way must still free all of them: here `a` breaks its bound,
// and neither `a` nor the `b` after it may stay live.
TEST(EngineTest, FailedReplyStillFreesDonatedStorage) {
  Compiled c = Compile(
      "interface G { void get(out string<4> a, out string b); };", false,
      "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram prog =
      MarshalProgram::Build(op, *c.server.Find("G")->FindOp("get"));

  Arena arena("server");
  for (const char* a : {"toolong", "ok"}) {
    ArgVec args(prog.slot_count());
    for (const auto& [name, text] : {std::pair{"a", a}, {"b", "fine"}}) {
      char* block =
          static_cast<char*>(arena.AllocateBlock(std::strlen(text) + 1));
      std::strcpy(block, text);
      args[prog.SlotOf(name)].set_ptr(block);
    }
    NativeWriter wire;
    Status st = prog.MarshalReply(&args, &wire, &arena);
    if (std::strcmp(a, "ok") == 0) {
      EXPECT_TRUE(st.ok()) << st.ToString();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(st.message(), "string length 7 exceeds bound 4");
    }
    EXPECT_EQ(arena.live_blocks(), 0u) << "a = " << a;
  }
}

TEST(EngineTest, DeallocNeverLeavesServerBufferAlone) {
  // Paper Fig. 5: [dealloc(never)] lets the pipe server return a pointer
  // into its own circular buffer without the stub freeing it.
  Compiled c =
      Compile(kFileIoIdl, false, "", "FileIO_read()[dealloc(never)];");
  const OperationDecl& read = c.idl->interfaces[0].ops[0];
  MarshalProgram prog =
      MarshalProgram::Build(read, *c.server.Find("FileIO")->FindOp("read"));

  Arena arena("server");
  void* circular = arena.AllocateBlock(4096);
  std::memset(circular, 0x7E, 4096);
  ArgVec args(prog.slot_count());
  args[prog.result_slot()].set_ptr(static_cast<uint8_t*>(circular) + 100);
  args[prog.result_slot()].length = 256;

  NativeWriter wire;
  ASSERT_TRUE(prog.MarshalReply(&args, &wire, &arena).ok());
  // The stub must NOT have freed anything: the buffer belongs to the app.
  EXPECT_EQ(arena.live_blocks(), 1u);
  NativeReader r(wire.span());
  EXPECT_EQ(r.GetU32().value(), 256u);
}

TEST(EngineTest, AllocUserUnmarshalsIntoCallerBuffer) {
  Compiled c =
      Compile(kFileIoIdl, false, "FileIO_read()[alloc(user)];", "");
  const OperationDecl& read = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog =
      MarshalProgram::Build(read, *c.client.Find("FileIO")->FindOp("read"));
  MarshalProgram server_prog =
      MarshalProgram::Build(read, *c.server.Find("FileIO")->FindOp("read"));

  Arena server_arena("server");
  void* payload = server_arena.AllocateBlock(64);
  std::memset(payload, 0x11, 64);
  ArgVec server_args(server_prog.slot_count());
  server_args[server_prog.result_slot()].set_ptr(payload);
  server_args[server_prog.result_slot()].length = 64;
  NativeWriter wire;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &wire, &server_arena).ok());

  // Client supplies its own buffer; the stub must not allocate.
  uint8_t my_buffer[128] = {};
  Arena client_arena("client");
  ArgVec client_args(client_prog.slot_count());
  client_args[client_prog.result_slot()].set_ptr(my_buffer);
  client_args[client_prog.result_slot()].capacity = sizeof(my_buffer);
  NativeReader reader(wire.span());
  ASSERT_TRUE(
      client_prog.UnmarshalReply(&reader, &client_arena, &client_args).ok());
  EXPECT_EQ(client_arena.live_blocks(), 0u);  // no stub allocation
  EXPECT_EQ(my_buffer[10], 0x11);
  EXPECT_EQ(client_args[client_prog.result_slot()].length, 64u);
}

TEST(EngineTest, AllocUserCapacityEnforced) {
  Compiled c =
      Compile(kFileIoIdl, false, "FileIO_read()[alloc(user)];", "");
  const OperationDecl& read = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog =
      MarshalProgram::Build(read, *c.client.Find("FileIO")->FindOp("read"));
  MarshalProgram server_prog =
      MarshalProgram::Build(read, *c.server.Find("FileIO")->FindOp("read"));

  Arena server_arena("server");
  void* payload = server_arena.AllocateBlock(64);
  ArgVec server_args(server_prog.slot_count());
  server_args[server_prog.result_slot()].set_ptr(payload);
  server_args[server_prog.result_slot()].length = 64;
  NativeWriter wire;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &wire, &server_arena).ok());

  uint8_t tiny[8];
  Arena client_arena("client");
  ArgVec client_args(client_prog.slot_count());
  client_args[client_prog.result_slot()].set_ptr(tiny);
  client_args[client_prog.result_slot()].capacity = sizeof(tiny);
  NativeReader reader(wire.span());
  Status st =
      client_prog.UnmarshalReply(&reader, &client_arena, &client_args);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(EngineTest, SpecialRoutinesInvokedForByteRuns) {
  // [special] on the write data: the client's copy_out routine must move
  // the bytes (the Linux memcpy_tofs/fromfs analogue).
  Compiled c = Compile(kFileIoIdl, false,
                       "FileIO_write(char *[special] data);", "");
  const OperationDecl& write = c.idl->interfaces[0].ops[1];
  MarshalProgram prog = MarshalProgram::Build(
      write, *c.client.Find("FileIO")->FindOp("write"));

  uint8_t data[32];
  std::memset(data, 0x42, sizeof(data));
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("data")].set_ptr(data);
  args[prog.SlotOf("data")].length = sizeof(data);

  int calls = 0;
  SpecialOps special;
  special.copy_out = [&](uint8_t* dst, const void* src, size_t n) {
    ++calls;
    std::memcpy(dst, src, n);
  };
  NativeWriter wire;
  ASSERT_TRUE(prog.MarshalRequest(args, &wire, &special).ok());
  EXPECT_EQ(calls, 1);

  // And the bytes are on the wire exactly as a normal copy would put them.
  NativeReader r(wire.span());
  EXPECT_EQ(r.GetU32().value(), 32u);
  auto bytes = r.GetBytes(32);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[0], 0x42);
}

TEST(EngineTest, SpecialUnmarshalDeliversToUserBuffer) {
  Compiled c = Compile(
      kFileIoIdl, false,
      "FileIO_read()[special, alloc(user)];", "");
  const OperationDecl& read = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog =
      MarshalProgram::Build(read, *c.client.Find("FileIO")->FindOp("read"));
  MarshalProgram server_prog =
      MarshalProgram::Build(read, *c.server.Find("FileIO")->FindOp("read"));

  Arena server_arena("server");
  void* payload = server_arena.AllocateBlock(16);
  std::memset(payload, 0x33, 16);
  ArgVec server_args(server_prog.slot_count());
  server_args[server_prog.result_slot()].set_ptr(payload);
  server_args[server_prog.result_slot()].length = 16;
  NativeWriter wire;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &wire, &server_arena).ok());

  uint8_t user_space[64] = {};
  int calls = 0;
  SpecialOps special;
  special.copy_in = [&](void* dst, const uint8_t* src, size_t n) {
    ++calls;
    std::memcpy(dst, src, n);  // stands in for copy_to_user
  };
  Arena client_arena("client");
  ArgVec client_args(client_prog.slot_count());
  client_args[client_prog.result_slot()].set_ptr(user_space);
  client_args[client_prog.result_slot()].capacity = sizeof(user_space);
  NativeReader reader(wire.span());
  ASSERT_TRUE(client_prog
                  .UnmarshalReply(&reader, &client_arena, &client_args,
                                  &special)
                  .ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(user_space[5], 0x33);
}

// --- Figure 1: flattened Sun RPC presentation interoperating with the
// default (struct-passing) presentation ---

constexpr char kNfsIdl[] = R"(
const NFS_MAXDATA = 8192;
const NFS_FHSIZE = 32;
enum nfsstat { NFS_OK = 0, NFSERR_IO = 5 };
struct nfs_fh { opaque data[NFS_FHSIZE]; };
struct fattr { unsigned size; unsigned mtime; };
struct readargs {
  nfs_fh file;
  unsigned offset;
  unsigned count;
  unsigned totalcount;
};
struct readokres { fattr attributes; opaque data<NFS_MAXDATA>; };
union readres switch (nfsstat status) {
  case NFS_OK: readokres reply;
  default: void;
};
program NFS_PROGRAM {
  version NFS_VERSION {
    readres NFSPROC_READ(readargs) = 6;
  } = 2;
} = 100003;
)";

constexpr char kNfsClientPdl[] = R"(
  [comm_status] int NFSPROC_READ(file, offset, count, totalcount,
      [special] data, attributes, status);
)";

TEST(EngineTest, FlattenedClientTalksToDefaultServer) {
  Compiled c = Compile(kNfsIdl, true, kNfsClientPdl, "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog = MarshalProgram::Build(
      op, *c.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  MarshalProgram server_prog = MarshalProgram::Build(
      op, *c.server.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));

  // Client passes the readargs fields as individual parameters.
  uint8_t fh[32];
  std::memset(fh, 0xF1, sizeof(fh));
  ArgVec client_args(client_prog.slot_count());
  client_args[client_prog.SlotOf("file")].set_ptr(fh);
  client_args[client_prog.SlotOf("offset")].scalar = 4096;
  client_args[client_prog.SlotOf("count")].scalar = 1024;
  client_args[client_prog.SlotOf("totalcount")].scalar = 1024;

  XdrWriter wire;
  ASSERT_TRUE(client_prog.MarshalRequest(client_args, &wire).ok());

  // Server with the default presentation sees one readargs struct.
  Arena server_arena("server");
  ArgVec server_args(server_prog.slot_count());
  XdrReader reader(wire.span());
  ASSERT_TRUE(
      server_prog.UnmarshalRequest(&reader, &server_arena, &server_args)
          .ok());
  int arg1 = server_prog.SlotOf("arg1");
  ASSERT_GE(arg1, 0);
  const auto* readargs = static_cast<const uint8_t*>(
      server_args[arg1].ptr());
  EXPECT_EQ(readargs[0], 0xF1);  // nfs_fh bytes at offset 0
  uint32_t offset_field;
  std::memcpy(&offset_field, readargs + 32, sizeof(offset_field));
  EXPECT_EQ(offset_field, 4096u);
}

TEST(EngineTest, FlattenedReplyDeliveredThroughOutParams) {
  Compiled c = Compile(kNfsIdl, true, kNfsClientPdl, "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog = MarshalProgram::Build(
      op, *c.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  MarshalProgram server_prog = MarshalProgram::Build(
      op, *c.server.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));

  // Server (default presentation) returns a readres union by value.
  const Type* readres = c.idl->types.FindNamed("readres");
  const Type* readokres = c.idl->types.FindNamed("readokres");
  Arena server_arena("server");
  auto* result = static_cast<uint8_t*>(
      server_arena.AllocateBlock(readres->NativeSize()));
  std::memset(result, 0, readres->NativeSize());
  // status = NFS_OK(0); payload readokres at its overlay offset.
  uint32_t ok = 0;
  std::memcpy(result, &ok, 4);
  size_t payload_off = 8;  // u32 disc aligned up to the union's 8-alignment
  uint8_t* okres = result + payload_off;
  uint32_t size_field = 777;
  std::memcpy(okres, &size_field, 4);  // fattr.size
  uint32_t mtime_field = 888;
  std::memcpy(okres + 4, &mtime_field, 4);  // fattr.mtime
  // readokres.data sequence.
  void* data = server_arena.AllocateBlock(100);
  std::memset(data, 0xD7, 100);
  SeqRep rep{100, 100, data};
  std::memcpy(okres + NativeFieldOffset(readokres, 1), &rep, sizeof(rep));

  ArgVec server_args(server_prog.slot_count());
  server_args[server_prog.result_slot()].set_ptr(result);

  XdrWriter wire;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &wire, &server_arena).ok());

  // Flattened client: data lands in the user buffer via the special
  // routine, attributes and status in their own slots.
  uint8_t user_buffer[8192];
  SpecialOps special;
  special.copy_in = [](void* dst, const uint8_t* src, size_t n) {
    std::memcpy(dst, src, n);
  };
  Arena client_arena("client");
  ArgVec client_args(client_prog.slot_count());
  int data_slot = client_prog.SlotOf("data");
  client_args[data_slot].set_ptr(user_buffer);
  client_args[data_slot].capacity = sizeof(user_buffer);
  // attributes: caller provides fattr storage (fixed-size out param).
  const Type* fattr = c.idl->types.FindNamed("fattr");
  auto* attr_storage = static_cast<uint8_t*>(
      client_arena.AllocateBlock(fattr->NativeSize()));
  client_args[client_prog.SlotOf("attributes")].set_ptr(attr_storage);

  XdrReader reader(wire.span());
  ASSERT_TRUE(client_prog
                  .UnmarshalReply(&reader, &client_arena, &client_args,
                                  &special)
                  .ok());
  EXPECT_EQ(client_args[client_prog.SlotOf("status")].scalar, 0u);
  EXPECT_EQ(client_args[data_slot].length, 100u);
  EXPECT_EQ(user_buffer[50], 0xD7);
  uint32_t got_size;
  std::memcpy(&got_size, attr_storage, 4);
  EXPECT_EQ(got_size, 777u);
}

TEST(EngineTest, FlattenedErrorReplyCarriesOnlyStatus) {
  Compiled c = Compile(kNfsIdl, true, kNfsClientPdl, kNfsClientPdl);
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog = MarshalProgram::Build(
      op, *c.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  MarshalProgram server_prog = MarshalProgram::Build(
      op, *c.server.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));

  // Flattened server reports NFSERR_IO: only the discriminant travels.
  Arena server_arena("server");
  ArgVec server_args(server_prog.slot_count());
  server_args[server_prog.SlotOf("status")].scalar = 5;  // NFSERR_IO

  XdrWriter wire;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &wire, &server_arena).ok());
  EXPECT_EQ(wire.size(), 4u);  // just the discriminant

  Arena client_arena("client");
  ArgVec client_args(client_prog.slot_count());
  XdrReader reader(wire.span());
  ASSERT_TRUE(
      client_prog.UnmarshalReply(&reader, &client_arena, &client_args).ok());
  EXPECT_EQ(client_args[client_prog.SlotOf("status")].scalar, 5u);
}

TEST(EngineTest, FlattenedReleasesFreeEveryField) {
  // Flattened on both sides: ReleaseRequest frees the stub-allocated file
  // handle, ReleaseReply the stub-allocated `data`.
  Compiled c = Compile(kNfsIdl, true, kNfsClientPdl, kNfsClientPdl);
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog = MarshalProgram::Build(
      op, *c.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  MarshalProgram server_prog = MarshalProgram::Build(
      op, *c.server.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));

  uint8_t fh[32] = {};
  uint8_t payload[64] = {};
  alignas(8) uint8_t attributes[64] = {};  // caller storage on both sides
  ArgVec client_args(client_prog.slot_count());
  client_args[client_prog.SlotOf("file")].set_ptr(fh);
  XdrWriter request;
  ASSERT_TRUE(client_prog.MarshalRequest(client_args, &request).ok());

  Arena server_arena("server");
  ArgVec server_args(server_prog.slot_count());
  XdrReader request_reader(request.span());
  ASSERT_TRUE(server_prog
                  .UnmarshalRequest(&request_reader, &server_arena,
                                    &server_args)
                  .ok());
  EXPECT_EQ(server_arena.live_blocks(), 1u);
  server_prog.ReleaseRequest(&server_arena, &server_args);
  EXPECT_EQ(server_arena.live_blocks(), 0u);

  server_args[server_prog.SlotOf("attributes")].set_ptr(attributes);
  server_args[server_prog.SlotOf("data")].set_ptr(payload);
  server_args[server_prog.SlotOf("data")].length = sizeof(payload);
  XdrWriter reply;
  ASSERT_TRUE(server_prog.MarshalReply(&server_args, &reply, nullptr).ok());

  Arena client_arena("client");
  client_args.Reset();
  client_args[client_prog.SlotOf("attributes")].set_ptr(attributes);
  XdrReader reply_reader(reply.span());
  ASSERT_TRUE(
      client_prog.UnmarshalReply(&reply_reader, &client_arena, &client_args)
          .ok());
  EXPECT_EQ(client_arena.live_blocks(), 1u);
  client_prog.ReleaseReply(&client_arena, &client_args);
  EXPECT_EQ(client_arena.live_blocks(), 0u);
}

TEST(EngineTest, InOutParameterTravelsBothWays) {
  Compiled c = Compile(
      "interface Calc { void inc(inout long value); };", false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog =
      MarshalProgram::Build(op, *c.client.Find("Calc")->FindOp("inc"));
  MarshalProgram server_prog =
      MarshalProgram::Build(op, *c.server.Find("Calc")->FindOp("inc"));

  ArgVec client_args(client_prog.slot_count());
  client_args[client_prog.SlotOf("value")].scalar = 41;
  NativeWriter req;
  ASSERT_TRUE(client_prog.MarshalRequest(client_args, &req).ok());

  Arena server_arena("server");
  ArgVec server_args(server_prog.slot_count());
  NativeReader rr(req.span());
  ASSERT_TRUE(
      server_prog.UnmarshalRequest(&rr, &server_arena, &server_args).ok());
  EXPECT_EQ(server_args[server_prog.SlotOf("value")].scalar, 41u);
  server_args[server_prog.SlotOf("value")].scalar = 42;

  NativeWriter rep;
  ASSERT_TRUE(server_prog.MarshalReply(&server_args, &rep, &server_arena)
                  .ok());
  Arena client_arena("client");
  NativeReader rr2(rep.span());
  ASSERT_TRUE(
      client_prog.UnmarshalReply(&rr2, &client_arena, &client_args).ok());
  EXPECT_EQ(client_args[client_prog.SlotOf("value")].scalar, 42u);
}

// Under the client's default presentation an inout string or sequence
// gets its reply in stub storage, while its slot holds the caller's
// in-value. A reply cut inside `s` fails before `v` is read: neither
// caller value may be written, and the release that follows may free only
// what the reply allocated.
TEST(EngineTest, InOutReplyCutShortLeavesCallerStorage) {
  Compiled c = Compile(
      "interface E { void echo(inout string s, inout sequence<long> v); };",
      false, "", "");
  MarshalProgram prog = MarshalProgram::Build(
      c.idl->interfaces[0].ops[0], *c.client.Find("E")->FindOp("echo"));
  Arena arena("client");
  const size_t baseline = arena.live_blocks();
  char text[] = "hello";
  int32_t longs[3] = {7, -8, 9};
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("s")].set_ptr(text);
  args[prog.SlotOf("v")].set_ptr(longs);
  args[prog.SlotOf("v")].length = 3;

  NativeWriter reply;
  reply.PutU32(5);
  reply.PutBytes("HE", 2);
  NativeReader r(reply.span());
  EXPECT_EQ(prog.UnmarshalReply(&r, &arena, &args).code(),
            StatusCode::kDataLoss);
  prog.ReleaseReply(&arena, &args);
  EXPECT_EQ(arena.live_blocks(), baseline);
  EXPECT_STREQ(text, "hello");
  EXPECT_EQ(longs[0], 7);
  EXPECT_EQ(longs[1], -8);
  EXPECT_EQ(longs[2], 9);
}

TEST(EngineTest, TruncatedRequestRejected) {
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& write = c.idl->interfaces[0].ops[1];
  MarshalProgram prog = MarshalProgram::Build(
      write, *c.server.Find("FileIO")->FindOp("write"));
  // A request claiming 100 bytes but providing none.
  NativeWriter w;
  w.PutU32(100);
  Arena arena("server");
  ArgVec args(prog.slot_count());
  NativeReader r(w.span());
  EXPECT_EQ(prog.UnmarshalRequest(&r, &arena, &args).code(),
            StatusCode::kDataLoss);

  // An 8-byte request whose count word claims 2^32-1 longs: rejected
  // before the count can size an allocation.
  Compiled sum =
      Compile("interface Sum { void add(in sequence<long> v); };", false,
              "", "");
  MarshalProgram add = MarshalProgram::Build(
      sum.idl->interfaces[0].ops[0], *sum.server.Find("Sum")->FindOp("add"));
  NativeWriter huge;
  huge.PutU32(0xFFFFFFFF);
  huge.PutU32(7);
  ArgVec add_args(add.slot_count());
  NativeReader huge_reader(huge.span());
  EXPECT_EQ(add.UnmarshalRequest(&huge_reader, &arena, &add_args).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

// Fills `slot` with a two-name sequence<string> whose buffer and strings
// come from `arena` (three blocks).
void FillNames(Arena* arena, ArgValue* slot) {
  auto* names = static_cast<char**>(arena->AllocateBlock(2 * sizeof(char*)));
  for (int i = 0; i < 2; ++i) {
    names[i] = static_cast<char*>(arena->AllocateBlock(4));
    std::memcpy(names[i], i == 0 ? "ada" : "bob", 4);
  }
  slot->set_ptr(names);
  slot->length = 2;
}

TEST(EngineTest, SequenceOfStringsFreedByEveryRelease) {
  // A sequence<string> owns its buffer and one block per name. The server's
  // ReleaseRequest and [dealloc(always)] epilogue and the client's
  // ReleaseReply each return all three.
  Compiled c = Compile(
      "interface Names { sequence<string> echo(in sequence<string> n); };",
      false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client_prog =
      MarshalProgram::Build(op, *c.client.Find("Names")->FindOp("echo"));
  MarshalProgram server_prog =
      MarshalProgram::Build(op, *c.server.Find("Names")->FindOp("echo"));

  Arena caller("caller");
  ArgVec client_args(client_prog.slot_count());
  FillNames(&caller, &client_args[client_prog.SlotOf("n")]);
  NativeWriter request;
  ASSERT_TRUE(client_prog.MarshalRequest(client_args, &request).ok());

  Arena server_arena("server");
  ArgVec server_args(server_prog.slot_count());
  NativeReader request_reader(request.span());
  ASSERT_TRUE(server_prog
                  .UnmarshalRequest(&request_reader, &server_arena,
                                    &server_args)
                  .ok());
  EXPECT_EQ(server_arena.live_blocks(), 3u);
  server_prog.ReleaseRequest(&server_arena, &server_args);
  EXPECT_EQ(server_arena.live_blocks(), 0u);

  FillNames(&server_arena, &server_args[server_prog.result_slot()]);
  NativeWriter reply;
  ASSERT_TRUE(
      server_prog.MarshalReply(&server_args, &reply, &server_arena).ok());
  EXPECT_EQ(server_arena.live_blocks(), 0u);

  Arena client_arena("client");
  NativeReader reply_reader(reply.span());
  ASSERT_TRUE(client_prog
                  .UnmarshalReply(&reply_reader, &client_arena, &client_args)
                  .ok());
  auto* const* names = static_cast<char* const*>(
      client_args[client_prog.result_slot()].ptr());
  EXPECT_STREQ(names[1], "bob");
  EXPECT_EQ(client_arena.live_blocks(), 3u);
  client_prog.ReleaseReply(&client_arena, &client_args);
  EXPECT_EQ(client_arena.live_blocks(), 0u);
}

}  // namespace
}  // namespace flexrpc
