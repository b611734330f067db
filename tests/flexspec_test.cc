// flexspec tests: superinstruction compilation, the reference executors'
// byte-for-byte agreement with the interpreter across every seed signature
// family, engine dispatch + hit/miss counters, the registry, the
// --specialize emitter (including blocked emission on a corrupted stream),
// and the drift guards tying examples/idl/nfs.* to the embedded NFS texts
// the build specializes against.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "src/analysis/spec_verifier.h"
#include "src/apps/nfs.h"
#include "src/codegen/spec_gen.h"
#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/spec.h"
#include "src/marshal/xdr.h"
#include "src/pdl/apply.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {
namespace {

constexpr size_t kMReq = static_cast<size_t>(SpecStream::kMarshalRequest);
constexpr size_t kUReq = static_cast<size_t>(SpecStream::kUnmarshalRequest);
constexpr size_t kURep = static_cast<size_t>(SpecStream::kUnmarshalReply);

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

// Restores the global dispatch switch no matter how the test exits.
struct SpecSwitchGuard {
  bool saved = MarshalSpecializationEnabled();
  ~SpecSwitchGuard() { SetMarshalSpecializationEnabled(saved); }
};

void ExpectSameBytes(const XdrWriter& a, const XdrWriter& b,
                     const char* what) {
  ASSERT_EQ(a.span().size(), b.span().size()) << what;
  EXPECT_EQ(std::memcmp(a.span().data(), b.span().data(), a.span().size()),
            0)
      << what;
}

constexpr char kSysLogIdl[] = R"(
  interface SysLog {
    void write_msg(in string msg);
  };
)";

constexpr char kFileIoIdl[] = R"(
  interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
  };
)";

// --- SpecKey identity -------------------------------------------------------

TEST(SpecKeyTest, StructurallyIdenticalOpsShareOpHash) {
  // Names never enter the op hash: two structurally identical operations
  // share specialized code, as they share a combination signature.
  Compiled a = Compile("interface A { void f(in string s); };", false, "",
                       "");
  Compiled b = Compile("interface B { void g(in string t); };", false, "",
                       "");
  SpecKey ka = ComputeSpecKey(a.idl->interfaces[0].ops[0],
                              *a.client.Find("A")->FindOp("f"));
  SpecKey kb = ComputeSpecKey(b.idl->interfaces[0].ops[0],
                              *b.client.Find("B")->FindOp("g"));
  EXPECT_EQ(ka.op_hash, kb.op_hash);
}

TEST(SpecKeyTest, PresentationChangesKey) {
  Compiled def = Compile(kSysLogIdl, false, "", "");
  Compiled alt = Compile(
      kSysLogIdl, false,
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
      "");
  SpecKey kd = ComputeSpecKey(def.idl->interfaces[0].ops[0],
                              *def.client.Find("SysLog")->FindOp("write_msg"));
  SpecKey ka = ComputeSpecKey(alt.idl->interfaces[0].ops[0],
                              *alt.client.Find("SysLog")->FindOp("write_msg"));
  EXPECT_EQ(kd.op_hash, ka.op_hash);  // same wire contract
  EXPECT_NE(kd.pres_hash, ka.pres_hash);
  EXPECT_FALSE(kd == ka);
}

TEST(SpecKeyTest, SameInputsAreDeterministic) {
  Compiled c1 = Compile(kSysLogIdl, false, "", "");
  Compiled c2 = Compile(kSysLogIdl, false, "", "");
  SpecKey k1 = ComputeSpecKey(c1.idl->interfaces[0].ops[0],
                              *c1.client.Find("SysLog")->FindOp("write_msg"));
  SpecKey k2 = ComputeSpecKey(c2.idl->interfaces[0].ops[0],
                              *c2.client.Find("SysLog")->FindOp("write_msg"));
  EXPECT_EQ(k1, k2);
}

// --- differential: executor vs interpreter, per signature family -----------

TEST(SpecExecutorTest, StringDefaultPresentation) {
  SpecSwitchGuard guard;
  Compiled c = Compile(kSysLogIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres =
      *c.client.Find("SysLog")->FindOp("write_msg");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kMReq]) << plan.rejection[kMReq];
  ASSERT_TRUE(plan.has_stream[kUReq]) << plan.rejection[kUReq];

  ArgVec args(prog.slot_count());
  args[prog.SlotOf("msg")].set_ptr("hello flexspec");
  XdrWriter interp;
  XdrWriter fused;
  SetMarshalSpecializationEnabled(false);
  ASSERT_TRUE(prog.MarshalRequest(args, &interp).ok());
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &fused, nullptr).ok());
  ExpectSameBytes(interp, fused, "string marshal request");

  // Unmarshal side: both paths must produce the same NUL-terminated copy.
  Arena arena_a("interp");
  Arena arena_b("fused");
  ArgVec out_a(prog.slot_count());
  ArgVec out_b(prog.slot_count());
  XdrReader ra(interp.span());
  XdrReader rb(fused.span());
  ASSERT_TRUE(prog.UnmarshalRequest(&ra, &arena_a, &out_a).ok());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &rb, &arena_b, &out_b,
                               nullptr, /*borrow_bytes=*/false)
                  .ok());
  int slot = prog.SlotOf("msg");
  EXPECT_STREQ(static_cast<const char*>(out_a[slot].ptr()),
               static_cast<const char*>(out_b[slot].ptr()));
  EXPECT_EQ(arena_a.live_blocks(), arena_b.live_blocks());
}

TEST(SpecExecutorTest, StringExplicitLengthPresentation) {
  SpecSwitchGuard guard;
  Compiled c = Compile(
      kSysLogIdl, false,
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
      "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres =
      *c.client.Find("SysLog")->FindOp("write_msg");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kMReq]) << plan.rejection[kMReq];

  const char buffer[] = {'h', 'e', 'l', 'l', 'o', 'X', 'X', 'X'};
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("msg")].set_ptr(buffer);
  args[prog.SlotOf("length")].scalar = 5;
  XdrWriter interp;
  XdrWriter fused;
  SetMarshalSpecializationEnabled(false);
  ASSERT_TRUE(prog.MarshalRequest(args, &interp).ok());
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &fused, nullptr).ok());
  ExpectSameBytes(interp, fused, "length_is marshal request");
}

TEST(SpecExecutorTest, SequenceWriteAndArenaReadBack) {
  SpecSwitchGuard guard;
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[1];  // write
  const OpPresentation& pres = *c.client.Find("FileIO")->FindOp("write");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kMReq]) << plan.rejection[kMReq];
  ASSERT_TRUE(plan.has_stream[kUReq]) << plan.rejection[kUReq];

  uint8_t data[100];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("data")].set_ptr(data);
  args[prog.SlotOf("data")].length = sizeof(data);
  XdrWriter interp;
  XdrWriter fused;
  SetMarshalSpecializationEnabled(false);
  ASSERT_TRUE(prog.MarshalRequest(args, &interp).ok());
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &fused, nullptr).ok());
  ExpectSameBytes(interp, fused, "sequence marshal request");

  Arena arena_a("interp");
  Arena arena_b("fused");
  ArgVec out_a(prog.slot_count());
  ArgVec out_b(prog.slot_count());
  XdrReader ra(interp.span());
  XdrReader rb(fused.span());
  ASSERT_TRUE(prog.UnmarshalRequest(&ra, &arena_a, &out_a, nullptr,
                                    /*borrow_bytes=*/false)
                  .ok());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &rb, &arena_b, &out_b,
                               nullptr, /*borrow_bytes=*/false)
                  .ok());
  int slot = prog.SlotOf("data");
  ASSERT_EQ(out_a[slot].length, out_b[slot].length);
  EXPECT_EQ(std::memcmp(out_a[slot].ptr(), out_b[slot].ptr(),
                        out_a[slot].length),
            0);
  EXPECT_EQ(out_a[slot].borrowed, out_b[slot].borrowed);
  EXPECT_EQ(arena_a.live_blocks(), arena_b.live_blocks());
}

TEST(SpecExecutorTest, SequenceBorrowPolicyMatches) {
  SpecSwitchGuard guard;
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[1];  // write
  const OpPresentation& pres = *c.server.Find("FileIO")->FindOp("write");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kUReq]) << plan.rejection[kUReq];

  ArgVec src(prog.slot_count());
  uint8_t data[64];
  std::memset(data, 0xAB, sizeof(data));
  src[prog.SlotOf("data")].set_ptr(data);
  src[prog.SlotOf("data")].length = sizeof(data);
  XdrWriter wire;
  SetMarshalSpecializationEnabled(false);
  ASSERT_TRUE(prog.MarshalRequest(src, &wire).ok());

  // Server-side borrow: both paths must alias the message buffer rather
  // than copy, and flag the slot as borrowed.
  Arena arena_a("interp");
  Arena arena_b("fused");
  ArgVec out_a(prog.slot_count());
  ArgVec out_b(prog.slot_count());
  XdrReader ra(wire.span());
  XdrReader rb(wire.span());
  ASSERT_TRUE(prog.UnmarshalRequest(&ra, &arena_a, &out_a, nullptr,
                                    /*borrow_bytes=*/true)
                  .ok());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &rb, &arena_b, &out_b,
                               nullptr, /*borrow_bytes=*/true)
                  .ok());
  int slot = prog.SlotOf("data");
  EXPECT_TRUE(out_a[slot].borrowed);
  EXPECT_TRUE(out_b[slot].borrowed);
  EXPECT_EQ(arena_a.live_blocks(), 0u);
  EXPECT_EQ(arena_b.live_blocks(), 0u);
  ASSERT_EQ(out_a[slot].length, out_b[slot].length);
  EXPECT_EQ(std::memcmp(out_a[slot].ptr(), out_b[slot].ptr(),
                        out_a[slot].length),
            0);
}

TEST(SpecExecutorTest, ScalarWidthsMarshalIdentically) {
  SpecSwitchGuard guard;
  Compiled c = Compile(R"(
    interface Calc {
      void mix(in octet a, in short b, in unsigned long d,
               in long long e, in boolean f);
    };
  )",
                       false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres = *c.client.Find("Calc")->FindOp("mix");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kMReq]) << plan.rejection[kMReq];

  ArgVec args(prog.slot_count());
  args[prog.SlotOf("a")].scalar = 0xC3;
  args[prog.SlotOf("b")].scalar = 0x1234;
  args[prog.SlotOf("d")].scalar = 0xDEADBEEF;
  args[prog.SlotOf("e")].scalar = 0x0123456789ABCDEFull;
  args[prog.SlotOf("f")].scalar = 1;
  XdrWriter interp;
  XdrWriter fused;
  SetMarshalSpecializationEnabled(false);
  ASSERT_TRUE(prog.MarshalRequest(args, &interp).ok());
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &fused, nullptr).ok());
  ExpectSameBytes(interp, fused, "mixed scalar widths");

  ArgVec out_a(prog.slot_count());
  ArgVec out_b(prog.slot_count());
  Arena arena("scalars");
  XdrReader ra(interp.span());
  XdrReader rb(fused.span());
  ASSERT_TRUE(prog.UnmarshalRequest(&ra, &arena, &out_a).ok());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &rb, &arena, &out_b,
                               nullptr, /*borrow_bytes=*/false)
                  .ok());
  for (const char* name : {"a", "b", "d", "e", "f"}) {
    int slot = prog.SlotOf(name);
    EXPECT_EQ(out_a[slot].scalar, out_b[slot].scalar) << name;
  }
}

TEST(SpecExecutorTest, BoundedSequenceRejectsOverrunExactly) {
  SpecSwitchGuard guard;
  Compiled c = Compile(R"(
    interface Cap {
      void put(in sequence<octet, 16> data);
    };
  )",
                       false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres = *c.client.Find("Cap")->FindOp("put");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kMReq]) << plan.rejection[kMReq];

  uint8_t data[32] = {};
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("data")].set_ptr(data);
  args[prog.SlotOf("data")].length = 32;  // over the declared bound
  XdrWriter interp;
  XdrWriter fused;
  SetMarshalSpecializationEnabled(false);
  Status a = prog.MarshalRequest(args, &interp);
  Status b = RunSpecMarshal(plan.streams[kMReq], args, &fused, nullptr);
  EXPECT_EQ(a.code(), StatusCode::kInvalidArgument) << a.ToString();
  EXPECT_EQ(b.code(), StatusCode::kInvalidArgument) << b.ToString();
  EXPECT_EQ(a.message(), b.message());
}

// The full NFS pair (the texts the build's generated unit specializes):
// flattened [special] client presentation, union-discriminated reply.
class NfsSpecPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = Compile(NfsIdlText(), true, NfsClientPdlText(), "");
    op_ = &c_.idl->interfaces[0].ops[0];
    pres_ = c_.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ");
    ASSERT_NE(pres_, nullptr);
    prog_ = std::make_unique<MarshalProgram>(
        MarshalProgram::Build(*op_, *pres_));
    plan_ = CompileSpecPlan(*op_, *pres_);
  }

  Compiled c_;
  const OperationDecl* op_ = nullptr;
  const OpPresentation* pres_ = nullptr;
  std::unique_ptr<MarshalProgram> prog_;
  SpecPlan plan_;
};

TEST_F(NfsSpecPlanTest, FlattenedRequestMarshalsIdentically) {
  SpecSwitchGuard guard;
  ASSERT_TRUE(plan_.has_stream[kMReq]) << plan_.rejection[kMReq];
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0x3C, sizeof(fh));
  ArgVec args(prog_->slot_count());
  args[prog_->SlotOf("file")].set_ptr(fh);
  args[prog_->SlotOf("offset")].scalar = 4096;
  args[prog_->SlotOf("count")].scalar = 512;
  args[prog_->SlotOf("totalcount")].scalar = 512;
  XdrWriter interp;
  XdrWriter fused;
  SetMarshalSpecializationEnabled(false);
  ASSERT_TRUE(prog_->MarshalRequest(args, &interp).ok());
  ASSERT_TRUE(
      RunSpecMarshal(plan_.streams[kMReq], args, &fused, nullptr).ok());
  ExpectSameBytes(interp, fused, "NFS flattened request");
}

TEST_F(NfsSpecPlanTest, UnionReplyDecodesIdentically) {
  SpecSwitchGuard guard;
  ASSERT_TRUE(plan_.has_stream[kURep]) << plan_.rejection[kURep];

  // Hand-encoded NFS_OK reply: disc + 14-field fattr + 512-byte payload.
  XdrWriter reply;
  reply.PutU32(0);  // NFS_OK
  for (uint32_t i = 0; i < 14; ++i) {
    reply.PutU32(i * 3 + 1);
  }
  uint8_t payload[512];
  for (size_t i = 0; i < sizeof(payload); ++i) {
    payload[i] = static_cast<uint8_t>(i ^ 0x5A);
  }
  reply.PutU32(sizeof(payload));
  reply.PutBytes(payload, sizeof(payload));

  auto decode = [&](bool use_executor, uint8_t* dest, uint8_t* attrs,
                    uint64_t* status, uint32_t* len) {
    Arena arena("nfs");
    ArgVec args(prog_->slot_count());
    int data_slot = prog_->SlotOf("data");
    args[data_slot].set_ptr(dest);
    args[data_slot].capacity = sizeof(payload);
    args[prog_->SlotOf("attributes")].set_ptr(attrs);
    XdrReader r(reply.span());
    Status st =
        use_executor
            ? RunSpecUnmarshal(plan_.streams[kURep], &r, &arena, &args,
                               nullptr, /*borrow_bytes=*/false)
            : prog_->UnmarshalReply(&r, &arena, &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    *status = args[prog_->SlotOf("status")].scalar;
    *len = args[data_slot].length;
  };

  uint8_t dest_a[512] = {};
  uint8_t dest_b[512] = {};
  uint8_t attrs_a[14 * 4] = {};
  uint8_t attrs_b[14 * 4] = {};
  uint64_t status_a = 99;
  uint64_t status_b = 99;
  uint32_t len_a = 0;
  uint32_t len_b = 0;
  SetMarshalSpecializationEnabled(false);
  decode(false, dest_a, attrs_a, &status_a, &len_a);
  decode(true, dest_b, attrs_b, &status_b, &len_b);
  EXPECT_EQ(status_a, 0u);
  EXPECT_EQ(status_b, 0u);
  EXPECT_EQ(len_a, len_b);
  EXPECT_EQ(std::memcmp(dest_a, dest_b, sizeof(dest_a)), 0);
  EXPECT_EQ(std::memcmp(dest_a, payload, sizeof(payload)), 0);
  EXPECT_EQ(std::memcmp(attrs_a, attrs_b, sizeof(attrs_a)), 0);
}

TEST_F(NfsSpecPlanTest, ErrorArmEndsStreamOnBothPaths) {
  SpecSwitchGuard guard;
  ASSERT_TRUE(plan_.has_stream[kURep]) << plan_.rejection[kURep];
  XdrWriter reply;
  reply.PutU32(5);  // NFSERR_IO: default arm is void, stream ends

  for (bool use_executor : {false, true}) {
    Arena arena("nfs");
    ArgVec args(prog_->slot_count());
    uint8_t dest[16] = {};
    uint8_t attrs[14 * 4] = {};
    int data_slot = prog_->SlotOf("data");
    args[data_slot].set_ptr(dest);
    args[data_slot].capacity = sizeof(dest);
    args[prog_->SlotOf("attributes")].set_ptr(attrs);
    XdrReader r(reply.span());
    SetMarshalSpecializationEnabled(false);
    Status st =
        use_executor
            ? RunSpecUnmarshal(plan_.streams[kURep], &r, &arena, &args,
                               nullptr, /*borrow_bytes=*/false)
            : prog_->UnmarshalReply(&r, &arena, &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(args[prog_->SlotOf("status")].scalar, 5u);
    EXPECT_EQ(args[data_slot].length, 0u);
  }
}

TEST_F(NfsSpecPlanTest, SpecialRoutineReceivesTheBytes) {
  SpecSwitchGuard guard;
  ASSERT_TRUE(plan_.has_stream[kURep]) << plan_.rejection[kURep];
  XdrWriter reply;
  reply.PutU32(0);
  for (uint32_t i = 0; i < 14; ++i) {
    reply.PutU32(7);
  }
  uint8_t payload[64];
  std::memset(payload, 0x42, sizeof(payload));
  reply.PutU32(sizeof(payload));
  reply.PutBytes(payload, sizeof(payload));

  // Both paths must route the [special] data run through copy_in — the
  // simulated kernel copyout — rather than a plain memcpy.
  for (bool use_executor : {false, true}) {
    int special_calls = 0;
    SpecialOps special;
    special.copy_in = [&special_calls](void* dst, const uint8_t* src,
                                       size_t n) {
      ++special_calls;
      std::memcpy(dst, src, n);
    };
    Arena arena("nfs");
    ArgVec args(prog_->slot_count());
    uint8_t dest[64] = {};
    uint8_t attrs[14 * 4] = {};
    int data_slot = prog_->SlotOf("data");
    args[data_slot].set_ptr(dest);
    args[data_slot].capacity = sizeof(dest);
    args[prog_->SlotOf("attributes")].set_ptr(attrs);
    XdrReader r(reply.span());
    SetMarshalSpecializationEnabled(false);
    Status st =
        use_executor
            ? RunSpecUnmarshal(plan_.streams[kURep], &r, &arena, &args,
                               &special, /*borrow_bytes=*/false)
            : prog_->UnmarshalReply(&r, &arena, &args, &special);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(special_calls, 1) << "executor=" << use_executor;
    EXPECT_EQ(dest[10], 0x42);
  }
}

// --- the prover sweep over every seed signature family ----------------------

TEST(SpecVerifierSweepTest, AllSeedPlansProveEquivalent) {
  struct Fixture {
    const char* name;
    const char* idl;
    bool sunrpc;
    const char* client_pdl;
    const char* server_pdl;
  };
  const Fixture kFixtures[] = {
      {"syslog-default", kSysLogIdl, false, "", ""},
      {"syslog-length_is", kSysLogIdl, false,
       "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
       ""},
      {"fileio-default", kFileIoIdl, false, "", ""},
      {"fileio-alloc-user", kFileIoIdl, false, "FileIO_read()[alloc(user)];",
       ""},
      {"fileio-special", kFileIoIdl, false,
       "FileIO_write(char *[special] data);", ""},
      {"fileio-dealloc-never", kFileIoIdl, false, "",
       "FileIO_read()[dealloc(never)];"},
      {"nfs-figure1", nullptr, true, nullptr, ""},
  };
  for (const Fixture& fx : kFixtures) {
    Compiled c = Compile(fx.idl != nullptr ? fx.idl : NfsIdlText(),
                         fx.sunrpc,
                         fx.client_pdl != nullptr ? fx.client_pdl
                                                  : NfsClientPdlText(),
                         fx.server_pdl);
    for (const PresentationSet* set : {&c.client, &c.server}) {
      for (const InterfaceDecl& itf : c.idl->interfaces) {
        for (const OperationDecl& op : itf.ops) {
          const OpPresentation* pres = set->Find(itf.name)->FindOp(op.name);
          ASSERT_NE(pres, nullptr) << fx.name << " " << op.name;
          SpecPlan plan = CompileSpecPlan(op, *pres);
          DiagnosticSink diags;
          EXPECT_EQ(VerifySpecPlan(op, *pres, plan, "sweep", &diags), 0)
              << fx.name << " " << op.name << ": " << diags.ToString();
        }
      }
    }
  }
}

// --- registry + engine dispatch ---------------------------------------------

// SpecFns are plain function pointers, so the executor-backed fakes reach
// their SpecPlan through file scope.
SpecPlan* g_dispatch_plan = nullptr;

Status DispatchMarshalRequest(const ArgVec& args, WireWriter* w,
                              const SpecialOps* special) {
  return RunSpecMarshal(g_dispatch_plan->streams[kMReq], args, w, special);
}

TEST(SpecRegistryTest, FirstRegistrationWinsAndUnregisterRemoves) {
  SpecKey key{0xFEEDFACEDEADBEEFull, 0x1111222233334444ull};
  ASSERT_EQ(FindSpecialization(key), nullptr);
  SpecFns first;
  first.marshal_request = &DispatchMarshalRequest;
  SpecFns second;  // all-null table, distinguishable from `first`
  EXPECT_TRUE(RegisterSpecialization(key, first));
  EXPECT_FALSE(RegisterSpecialization(key, second));
  const SpecFns* found = FindSpecialization(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->marshal_request, &DispatchMarshalRequest);
  UnregisterSpecialization(key);
  EXPECT_EQ(FindSpecialization(key), nullptr);
}

TEST(SpecDispatchTest, EngineDispatchesRegisteredFnAndCountsHitMiss) {
  SpecSwitchGuard guard;
  Compiled c = Compile(kSysLogIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres =
      *c.client.Find("SysLog")->FindOp("write_msg");

  static SpecPlan plan;  // outlives the trampoline calls
  plan = CompileSpecPlan(op, pres);
  ASSERT_TRUE(plan.has_stream[kMReq]);
  g_dispatch_plan = &plan;
  SpecFns fns;
  fns.marshal_request = &DispatchMarshalRequest;
  ASSERT_TRUE(RegisterSpecialization(plan.key, fns));

  // Bind after registration: the engine snapshots the table at Build.
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("msg")].set_ptr("dispatch me");

  SetMarshalSpecializationEnabled(true);
  XdrWriter fast;
  {
    TraceSession session;
    ASSERT_TRUE(prog.MarshalRequest(args, &fast).ok());
    TraceSnapshot report = session.Report();
    EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecHits), 1u);
    EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecMisses), 0u);
    // The dispatch-level byte accounting must credit the fused stream.
    EXPECT_GT(report.counter(TraceCounter::kMarshalBytesOut), 0u);
  }

  // Flipping the global switch falls back per call — no rebind needed —
  // and the interpreter produces the same bytes.
  SetMarshalSpecializationEnabled(false);
  XdrWriter slow;
  {
    TraceSession session;
    ASSERT_TRUE(prog.MarshalRequest(args, &slow).ok());
    TraceSnapshot report = session.Report();
    EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecHits), 0u);
    EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecMisses), 1u);
  }
  ExpectSameBytes(fast, slow, "dispatch vs interpreter");

  UnregisterSpecialization(plan.key);
  g_dispatch_plan = nullptr;
}

TEST(SpecDispatchTest, UnregisteredKeyAlwaysMisses) {
  SpecSwitchGuard guard;
  SetMarshalSpecializationEnabled(true);
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[1];
  MarshalProgram prog =
      MarshalProgram::Build(op, *c.client.Find("FileIO")->FindOp("write"));
  uint8_t data[8] = {};
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("data")].set_ptr(data);
  args[prog.SlotOf("data")].length = sizeof(data);
  XdrWriter w;
  TraceSession session;
  ASSERT_TRUE(prog.MarshalRequest(args, &w).ok());
  EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits), 0u);
  EXPECT_GE(session.Report().counter(TraceCounter::kMarshalSpecMisses), 1u);
}

// --- the --specialize emitter -----------------------------------------------

TEST(SpecGenTest, EmitsRegistrarForSupportedPlans) {
  Compiled c = Compile(kSysLogIdl, false, "", "");
  SpecGenOptions options;
  options.ns = "spec_test";
  options.header_name = "t.flexspec.h";
  DiagnosticSink diags;
  SpecGenStats stats;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           options, "t.idl", &diags, &stats);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_GE(stats.plans_emitted, 1u);
  EXPECT_GE(stats.streams_emitted, 2u);
  EXPECT_NE(generated->header.find("RegisterSpecializations"),
            std::string::npos);
  EXPECT_NE(generated->source.find("RegisterSpecialization("),
            std::string::npos);
  EXPECT_NE(generated->source.find("namespace spec_test"),
            std::string::npos);
  // The registered key must be the one the engine computes at bind time.
  SpecKey key = ComputeSpecKey(c.idl->interfaces[0].ops[0],
                               *c.client.Find("SysLog")->FindOp("write_msg"));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key.op_hash));
  EXPECT_NE(generated->source.find(hex), std::string::npos);
}

TEST(SpecGenTest, EachFunctionIsOneStepCallPerOp) {
  // examples/idl/syslog.idl under its client PDL: both sides' plans cover
  // both string opcodes and the kLenSlot and kStrLen length sources.
  Compiled c = Compile(R"(
    interface SysLog {
      void write_msg(in string msg);
      unsigned long message_count();
    };
  )",
                       false,
                       "SysLog_write_msg(,, char *[length_is(length)] msg, "
                       "int length);",
                       "");
  DiagnosticSink diags;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           SpecGenOptions{}, "syslog.idl",
                                           &diags, nullptr);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const std::string& source = generated->source;
  // What an op does lives in its step alone: the unit moves no bytes,
  // copies nothing and allocates nothing itself.
  for (const char* text : {"PutU32", "memcpy", "AllocateBlock"}) {
    EXPECT_EQ(source.find(text), std::string::npos) << text;
  }

  // Every function body is `Status end;`, then one step call per op of
  // its stream in order, then `return end;`: straight-line code.
  static constexpr const char* kSuffix[kSpecStreamCount] = {
      "MarshalRequest", "UnmarshalRequest", "MarshalReply",
      "UnmarshalReply"};
  std::set<SpecKey> seen;
  size_t index = 0;
  size_t calls = 0;
  for (const PresentationSet* set : {&c.client, &c.server}) {
    for (const OperationDecl& op : c.idl->interfaces[0].ops) {
      SpecPlan plan =
          CompileSpecPlan(op, *set->Find("SysLog")->FindOp(op.name));
      if (!seen.insert(plan.key).second) {
        continue;
      }
      for (size_t s = 0; s < kSpecStreamCount; ++s) {
        ASSERT_TRUE(plan.has_stream[s]) << op.name << " " << s;
        std::string head = StrFormat("Status Spec%zu%s(", index, kSuffix[s]);
        size_t begin = source.find(head);
        ASSERT_NE(begin, std::string::npos) << head;
        begin = source.find('\n', begin) + 1;
        size_t end = source.find("\n}\n", begin);
        std::istringstream body(source.substr(begin, end - begin));
        std::string line;
        ASSERT_TRUE(std::getline(body, line));
        EXPECT_EQ(line, "  Status end;") << head;
        for (const SpecOp& spec_op : plan.streams[s].ops) {
          ASSERT_TRUE(std::getline(body, line)) << head;
          std::string call =
              StrFormat("  if (!%s({.kind = %s",
                        s % 2 == 0 ? "MarshalStep" : "UnmarshalStep",
                        std::string(SpecOpKindName(spec_op.kind)).c_str());
          EXPECT_EQ(line.rfind(call, 0), 0u) << head << ": " << line;
          EXPECT_TRUE(line.ends_with(", &end)) return end;")) << line;
          ++calls;
        }
        ASSERT_TRUE(std::getline(body, line));
        EXPECT_EQ(line, "  return end;") << head;
        EXPECT_FALSE(std::getline(body, line)) << head << ": " << line;
      }
      ++index;
    }
  }
  EXPECT_EQ(index, 4u);  // both operations under both presentations
  EXPECT_EQ(calls, 8u);
}

TEST(SpecGenTest, CorruptedStreamBlocksEmission) {
  // The acceptance gate: a deliberately broken specialization (one opcode
  // dropped) must trip the stage-3 prover and block the whole unit.
  Compiled c = Compile(kSysLogIdl, false, "", "");
  SpecGenOptions options;
  options.mutate_for_test = [](SpecPlan* plan) {
    for (size_t s = 0; s < kSpecStreamCount; ++s) {
      if (plan->has_stream[s] && !plan->streams[s].ops.empty()) {
        plan->streams[s].ops.pop_back();
        return;
      }
    }
  };
  DiagnosticSink diags;
  SpecGenStats stats;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           options, "t.idl", &diags, &stats);
  EXPECT_FALSE(generated.ok());
  EXPECT_GE(diags.CountCode("FLEX201"), 1) << diags.ToString();
}

// --- NFS end to end: the build-time generated unit --------------------------

TEST(NfsSpecE2ETest, GeneratedUnitIsRegisteredAndHit) {
  SpecSwitchGuard guard;
  SetMarshalSpecializationEnabled(true);
  NfsFileServer server(/*file_size=*/64u << 10, /*seed=*/1995);
  NfsClient client(&server, LinkModel(), RemoteServerModel());

  // The ctor's RegisterSpecializations() installed the idlc-generated
  // functions; a small-chunk read must hit them on every call.
  TraceSession session;
  auto stats =
      client.ReadFile(NfsClient::StubKind::kGeneratedUserBuffer, 512);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes_read, 64u << 10);
  EXPECT_GT(session.Report().counter(TraceCounter::kMarshalSpecHits), 0u);
}

TEST(NfsSpecE2ETest, SpecializedAndInterpretedReadsDeliverSameBytes) {
  // ReadFile verifies every delivered byte against the server's content,
  // so a pass on both settings is a byte-identity proof end to end.
  SpecSwitchGuard guard;
  NfsFileServer server(/*file_size=*/32u << 10, /*seed=*/7);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  SetMarshalSpecializationEnabled(true);
  auto fast = client.ReadFile(NfsClient::StubKind::kGeneratedUserBuffer,
                              512);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  SetMarshalSpecializationEnabled(false);
  auto slow = client.ReadFile(NfsClient::StubKind::kGeneratedUserBuffer,
                              512);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(fast->bytes_read, slow->bytes_read);
  EXPECT_EQ(fast->rpc_calls, slow->rpc_calls);
}

TEST(NfsSpecE2ETest, RequestWireBytesIdenticalAcrossDispatch) {
  SpecSwitchGuard guard;
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  uint8_t dest[512];
  NfsClient::ChunkArgs chunk{fh, /*offset=*/0, /*count=*/512, dest};
  for (NfsClient::StubKind kind :
       {NfsClient::StubKind::kGeneratedConventional,
        NfsClient::StubKind::kGeneratedUserBuffer}) {
    XdrWriter fast;
    XdrWriter slow;
    SetMarshalSpecializationEnabled(true);
    ASSERT_TRUE(client.EncodeRequest(kind, chunk, &fast).ok());
    SetMarshalSpecializationEnabled(false);
    ASSERT_TRUE(client.EncodeRequest(kind, chunk, &slow).ok());
    ExpectSameBytes(fast, slow, "NFS request across dispatch");
  }
}

// --- drift guards: examples/idl inputs vs the embedded texts ----------------

#ifdef FLEXRPC_SOURCE_DIR

std::string ReadSourceFile(const std::string& relative) {
  std::ifstream in(std::string(FLEXRPC_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Collapses all whitespace runs to single spaces: the checked-in files and
// the embedded raw strings differ only in indentation.
std::string NormalizeWs(std::string_view text) {
  std::string out;
  bool in_ws = true;  // swallows leading whitespace
  for (char ch : text) {
    if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
      if (!in_ws) {
        out.push_back(' ');
      }
      in_ws = true;
    } else {
      out.push_back(ch);
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') {
    out.pop_back();
  }
  return out;
}

// The build generates nfs.flexspec.cc from examples/idl/nfs.x + the PDL
// file, while NfsClient builds its programs from the embedded texts. The
// registry lookup only connects them while both pairs stay structurally
// identical — so drift must fail loudly here, not as a silent spec miss.
TEST(NfsSpecDriftTest, ExamplesMatchEmbeddedTexts) {
  EXPECT_EQ(NormalizeWs(ReadSourceFile("examples/idl/nfs.x")),
            NormalizeWs(NfsIdlText()));
  EXPECT_EQ(NormalizeWs(ReadSourceFile("examples/idl/nfs_client.pdl")),
            NormalizeWs(NfsClientPdlText()));
}

TEST(NfsSpecDriftTest, ExamplesProduceTheEmbeddedSpecKey) {
  Compiled from_files = Compile(ReadSourceFile("examples/idl/nfs.x"), true,
                                ReadSourceFile("examples/idl/nfs_client.pdl"),
                                "");
  Compiled embedded = Compile(NfsIdlText(), true, NfsClientPdlText(), "");
  SpecKey file_key = ComputeSpecKey(
      from_files.idl->interfaces[0].ops[0],
      *from_files.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  SpecKey embedded_key = ComputeSpecKey(
      embedded.idl->interfaces[0].ops[0],
      *embedded.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  EXPECT_EQ(file_key, embedded_key)
      << "generated specializations would never be dispatched";
}

#endif  // FLEXRPC_SOURCE_DIR

}  // namespace
}  // namespace flexrpc
