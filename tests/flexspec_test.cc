// flexspec tests: stream compilation (total over every seed signature
// family), the reference executor against wire references and the
// hand-coded NFS stubs, union arms, nested byte sequences, loops and
// strings at an offset against what the value walk they replaced gave
// (captured as literals), on the reference executor and on generated
// code, engine dispatch + hit/miss counters, the registry, and the
// --specialize emitter (including blocked emission on a corrupted stream
// or loop, and the sources it embeds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "loop_shapes.flexspec.h"
#include "src/analysis/spec_verifier.h"
#include "src/apps/nfs.h"
#include "src/codegen/spec_gen.h"
#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/layout.h"
#include "src/marshal/native.h"
#include "src/marshal/spec.h"
#include "src/marshal/value.h"
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

// The bytes `hex` spells (spaces ignored).
std::vector<uint8_t> Hex(std::string_view hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < hex.size(); ++i) {
    if (hex[i] != ' ') {
      bytes.push_back(static_cast<uint8_t>(
          std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
      ++i;
    }
  }
  return bytes;
}

// Expects `w` to hold exactly the bytes `hex` spells.
void ExpectWire(const XdrWriter& w, std::string_view hex, const char* what) {
  EXPECT_EQ(std::vector<uint8_t>(w.span().begin(), w.span().end()), Hex(hex))
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

TEST(SpecKeyTest, TypesDifferingOnlyDeepDownGetDistinctKeys) {
  // S0 holds S1 ... holds S33, which holds the one scalar: `long` in one
  // interface, `long long` in the other, 34 structs below the parameter.
  auto nested = [](const char* leaf) {
    std::string idl = StrFormat("struct S33 { %s v; };\n", leaf);
    for (int i = 32; i >= 0; --i) {
      idl += StrFormat("struct S%d { S%d f; };\n", i, i + 1);
    }
    return idl + "interface I { void f(in S0 v); };";
  };
  Compiled narrow = Compile(nested("long"), false, "", "");
  Compiled wide = Compile(nested("long long"), false, "", "");
  SpecKey kn = ComputeSpecKey(narrow.idl->interfaces[0].ops[0],
                              *narrow.client.Find("I")->FindOp("f"));
  SpecKey kw = ComputeSpecKey(wide.idl->interfaces[0].ops[0],
                              *wide.client.Find("I")->FindOp("f"));
  EXPECT_NE(kn.op_hash, kw.op_hash);
}

// --- the reference executor against wire references -------------------------
//
// Each expected byte string, status message and ArgVec effect below is what
// the plan-walking interpreter the reference executor replaced produced for
// the same input.

TEST(SpecExecutorTest, StringDefaultPresentation) {
  Compiled c = Compile(kSysLogIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres =
      *c.client.Find("SysLog")->FindOp("write_msg");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);

  ArgVec args(prog.slot_count());
  args[prog.SlotOf("msg")].set_ptr("hello flexspec");
  XdrWriter wire;
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &wire, nullptr).ok());
  ExpectWire(wire, "0000000e 68656c6c 6f20666c 65787370 65630000",
             "string marshal request");

  // Unmarshal side: a NUL-terminated copy in one arena block.
  Arena arena("spec");
  ArgVec out(prog.slot_count());
  XdrReader r(wire.span());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &r, &arena, &out,
                               nullptr, /*borrow_bytes=*/false)
                  .ok());
  int slot = prog.SlotOf("msg");
  EXPECT_STREQ(static_cast<const char*>(out[slot].ptr()), "hello flexspec");
  EXPECT_EQ(out[slot].length, 14u);
  EXPECT_EQ(arena.live_blocks(), 1u);
}

TEST(SpecExecutorTest, StringExplicitLengthPresentation) {
  Compiled c = Compile(
      kSysLogIdl, false,
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
      "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  const OpPresentation& pres =
      *c.client.Find("SysLog")->FindOp("write_msg");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);

  const char buffer[] = {'h', 'e', 'l', 'l', 'o', 'X', 'X', 'X'};
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("msg")].set_ptr(buffer);
  args[prog.SlotOf("length")].scalar = 5;
  XdrWriter wire;
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &wire, nullptr).ok());
  ExpectWire(wire, "00000005 68656c6c 6f000000", "length_is marshal request");
}

TEST(SpecExecutorTest, SequenceWriteAndArenaReadBack) {
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[1];  // write
  const OpPresentation& pres = *c.client.Find("FileIO")->FindOp("write");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);

  uint8_t data[100];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("data")].set_ptr(data);
  args[prog.SlotOf("data")].length = sizeof(data);
  XdrWriter wire;
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &wire, nullptr).ok());
  // The u32 count, then the bytes as they are (100 needs no padding).
  std::vector<uint8_t> want = {0, 0, 0, 100};
  want.insert(want.end(), data, data + sizeof(data));
  EXPECT_EQ(std::vector<uint8_t>(wire.span().begin(), wire.span().end()),
            want);

  Arena arena("spec");
  ArgVec out(prog.slot_count());
  XdrReader r(wire.span());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &r, &arena, &out,
                               nullptr, /*borrow_bytes=*/false)
                  .ok());
  int slot = prog.SlotOf("data");
  ASSERT_EQ(out[slot].length, sizeof(data));
  EXPECT_EQ(std::memcmp(out[slot].ptr(), data, sizeof(data)), 0);
  EXPECT_FALSE(out[slot].borrowed);
  EXPECT_EQ(arena.live_blocks(), 1u);
}

TEST(SpecExecutorTest, SequenceBorrowPolicyMatches) {
  Compiled c = Compile(kFileIoIdl, false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[1];  // write
  const OpPresentation& pres = *c.server.Find("FileIO")->FindOp("write");
  MarshalProgram prog = MarshalProgram::Build(op, pres);
  SpecPlan plan = CompileSpecPlan(op, pres);

  uint8_t data[64];
  std::memset(data, 0xAB, sizeof(data));
  XdrWriter wire;
  wire.PutU32(sizeof(data));
  wire.PutBytes(data, sizeof(data));

  // Server-side borrow: the slot aliases the message buffer instead of
  // copying, and is flagged as borrowed.
  Arena arena("spec");
  ArgVec out(prog.slot_count());
  XdrReader r(wire.span());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &r, &arena, &out,
                               nullptr, /*borrow_bytes=*/true)
                  .ok());
  int slot = prog.SlotOf("data");
  EXPECT_TRUE(out[slot].borrowed);
  EXPECT_EQ(out[slot].ptr(), wire.span().data() + 4);
  EXPECT_EQ(out[slot].length, sizeof(data));
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(SpecExecutorTest, ScalarWidthsMarshalIdentically) {
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

  const std::pair<const char*, uint64_t> kValues[] = {
      {"a", 0xC3},
      {"b", 0x1234},
      {"d", 0xDEADBEEF},
      {"e", 0x0123456789ABCDEFull},
      {"f", 1}};
  ArgVec args(prog.slot_count());
  for (const auto& [name, value] : kValues) {
    args[prog.SlotOf(name)].scalar = value;
  }
  XdrWriter wire;
  ASSERT_TRUE(
      RunSpecMarshal(plan.streams[kMReq], args, &wire, nullptr).ok());
  // XDR widens the octet, short and boolean to four bytes.
  ExpectWire(wire, "000000c3 00001234 deadbeef 01234567 89abcdef 00000001",
             "mixed scalar widths");

  ArgVec out(prog.slot_count());
  Arena arena("scalars");
  XdrReader r(wire.span());
  ASSERT_TRUE(RunSpecUnmarshal(plan.streams[kUReq], &r, &arena, &out,
                               nullptr, /*borrow_bytes=*/false)
                  .ok());
  for (const auto& [name, value] : kValues) {
    EXPECT_EQ(out[prog.SlotOf(name)].scalar, value) << name;
  }
}

TEST(SpecExecutorTest, BoundedSequenceRejectsOverrunExactly) {
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

  uint8_t data[32] = {};
  ArgVec args(prog.slot_count());
  args[prog.SlotOf("data")].set_ptr(data);
  args[prog.SlotOf("data")].length = 32;  // over the declared bound
  XdrWriter wire;
  Status st = RunSpecMarshal(plan.streams[kMReq], args, &wire, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(st.message(), "sequence length 32 exceeds bound 16");
  EXPECT_EQ(wire.span().size(), 0u);
}

// --- loops: what the value walk moved whole ----------------------------------
//
// These run the engine's entry points, releases included. Each literal is
// what the recursive value walk, which moved these shapes whole before
// they compiled to loops, gave for the same input. `push` and `set` run on the reference executor
// and, with specialization on, on the loop-shapes unit's generated code
// (tests/data/loop_shapes.idl declares both); `cap` and `fetch` have no
// generated code.

constexpr char kLongSeqIdl[] = R"(
  interface V {
    void push(in sequence<long> v);
    void cap(in sequence<long, 2> v);
    void fetch(out sequence<long> v);
  };
)";

// Runs `body` once on the reference executor and once with
// specialization on (generated code wherever a unit registered the key).
template <typename Fn>
void OnBothExecutors(Fn body) {
  flexspec_loops::RegisterSpecializations();
  SpecSwitchGuard guard;
  for (bool generated : {false, true}) {
    SCOPED_TRACE(generated ? "generated" : "reference executor");
    SetMarshalSpecializationEnabled(generated);
    body();
  }
}

TEST(SpecExecutorTest, LoopSequenceOfLongs) {
  OnBothExecutors([] {
    Compiled c = Compile(kLongSeqIdl, false, "V_fetch(long *[alloc(user)] v);",
                         "");
    const InterfaceDecl& itf = c.idl->interfaces[0];
    MarshalProgram client =
        MarshalProgram::Build(itf.ops[0], *c.client.Find("V")->FindOp("push"));
    MarshalProgram server =
        MarshalProgram::Build(itf.ops[0], *c.server.Find("V")->FindOp("push"));
    // A loop over one scalar per element, its run checked per element.
    ASSERT_EQ(client.Stream(SpecStream::kMarshalRequest).ops.size(), 4u);
    EXPECT_EQ(client.Stream(SpecStream::kMarshalRequest).ops[0].kind,
              SpecOpKind::kLoop);
    EXPECT_EQ(client.Stream(SpecStream::kMarshalRequest).ops[1].kind,
              SpecOpKind::kRun);

    int32_t v[3] = {1, -2, 0x7FFFFFFF};
    ArgVec args(client.slot_count());
    args[0].set_ptr(v);
    args[0].length = 3;
    XdrWriter three;
    ASSERT_TRUE(client.MarshalRequest(args, &three).ok());
    ExpectWire(three, "00000003 00000001 fffffffe 7fffffff", "sequence<long>");

    Arena arena("seq");
    Status st;
    {
      ArgVec out(server.slot_count());
      XdrReader r(three.span());
      ASSERT_TRUE(server.UnmarshalRequest(&r, &arena, &out).ok());
      ASSERT_EQ(out[0].length, 3u);
      EXPECT_EQ(std::memcmp(out[0].ptr(), v, sizeof(v)), 0);
      EXPECT_EQ(arena.live_blocks(), 1u);
      server.ReleaseRequest(&arena, &out);
      EXPECT_EQ(arena.live_blocks(), 0u);
    }

    // The declared bound, on both sides.
    MarshalProgram cap_client =
        MarshalProgram::Build(itf.ops[1], *c.client.Find("V")->FindOp("cap"));
    MarshalProgram cap_server =
        MarshalProgram::Build(itf.ops[1], *c.server.Find("V")->FindOp("cap"));
    XdrWriter unused;
    st = cap_client.MarshalRequest(args, &unused);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), "sequence length 3 exceeds bound 2");
    EXPECT_EQ(unused.span().size(), 0u);
    {
      ArgVec out(cap_server.slot_count());
      XdrReader r(three.span());
      st = cap_server.UnmarshalRequest(&r, &arena, &out);
      EXPECT_EQ(st.code(), StatusCode::kDataLoss);
      EXPECT_EQ(st.message(), "wire sequence length 3 exceeds bound 2");
    }

    // A count the bytes left cannot hold sizes no allocation.
    {
      XdrWriter big;
      big.PutU32(1000);
      big.PutU32(1);
      big.PutU32(2);
      ArgVec out(server.slot_count());
      XdrReader r(big.span());
      st = server.UnmarshalRequest(&r, &arena, &out);
      EXPECT_EQ(st.code(), StatusCode::kDataLoss);
      EXPECT_EQ(st.message(),
                "wire sequence length 1000 exceeds the 8 bytes left");
      EXPECT_EQ(out[0].ptr(), nullptr);
      EXPECT_EQ(arena.live_blocks(), 0u);
    }

    // A truncated element: the length is set before any element is read,
    // so the release frees the zeroed block.
    {
      XdrWriter cut;
      cut.PutU32(3);
      cut.PutU32(5);
      cut.PutU32(6);
      ArgVec out(server.slot_count());
      XdrReader r(cut.span());
      st = server.UnmarshalRequest(&r, &arena, &out);
      EXPECT_EQ(st.code(), StatusCode::kDataLoss);
      EXPECT_EQ(st.message(), "XDR stream truncated reading u32");
      EXPECT_EQ(out[0].length, 3u);
      EXPECT_EQ(arena.live_blocks(), 1u);
      server.ReleaseRequest(&arena, &out);
      EXPECT_EQ(arena.live_blocks(), 0u);
    }

    // [alloc(user)]: the caller's capacity, in elements, bounds the count.
    MarshalProgram fetch =
        MarshalProgram::Build(itf.ops[2], *c.client.Find("V")->FindOp("fetch"));
    for (uint32_t capacity : {2u, 4u}) {
      int32_t mine[4] = {};
      ArgVec out(fetch.slot_count());
      out[0].set_ptr(mine);
      out[0].capacity = capacity;
      XdrReader r(three.span());
      st = fetch.UnmarshalReply(&r, &arena, &out);
      if (capacity == 2) {
        EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
        EXPECT_EQ(st.message(), "caller buffer too small for sequence");
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(out[0].length, 3u);
        EXPECT_EQ(std::memcmp(mine, v, sizeof(v)), 0);
        EXPECT_EQ(mine[3], 0);
      }
      EXPECT_EQ(arena.live_blocks(), 0u);
    }
  });
}

TEST(SpecExecutorTest, LoopArrayOfStructs) {
  OnBothExecutors([] {
    // 100 two-long structs: a loop over the two fields of one, with a
    // constant count, however many elements.
    Compiled c = Compile(R"(
      struct P { long x; long y; };
      typedef P Pts[100];
      interface Poly { void set(in Pts pts); };
    )",
                         false, "", "");
    const OperationDecl& op = c.idl->interfaces[0].ops[0];
    MarshalProgram client =
        MarshalProgram::Build(op, *c.client.Find("Poly")->FindOp("set"));
    MarshalProgram server =
        MarshalProgram::Build(op, *c.server.Find("Poly")->FindOp("set"));
    ASSERT_EQ(client.Stream(SpecStream::kMarshalRequest).ops.size(), 5u);
    EXPECT_EQ(client.Stream(SpecStream::kMarshalRequest).ops[0].kind,
              SpecOpKind::kLoop);
    EXPECT_EQ(client.Stream(SpecStream::kMarshalRequest).ops[0].len_src,
              SpecLenSource::kConstant);

    int32_t pts[200];
    XdrWriter want;
    for (int i = 0; i < 100; ++i) {
      pts[2 * i] = i;
      pts[2 * i + 1] = -i;
      want.PutU32(static_cast<uint32_t>(i));
      want.PutU32(static_cast<uint32_t>(-i));
    }
    ArgVec args(client.slot_count());
    args[0].set_ptr(pts);
    XdrWriter wire;
    ASSERT_TRUE(client.MarshalRequest(args, &wire).ok());
    ExpectSameBytes(wire, want, "Pts");

    Arena arena("array");
    ArgVec out(server.slot_count());
    XdrReader r(wire.span());
    ASSERT_TRUE(server.UnmarshalRequest(&r, &arena, &out).ok());
    EXPECT_EQ(std::memcmp(out[0].ptr(), pts, sizeof(pts)), 0);
    EXPECT_EQ(arena.live_blocks(), 1u);
  });
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
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0x3C, sizeof(fh));
  ArgVec args(prog_->slot_count());
  args[prog_->SlotOf("file")].set_ptr(fh);
  args[prog_->SlotOf("offset")].scalar = 4096;
  args[prog_->SlotOf("count")].scalar = 512;
  args[prog_->SlotOf("totalcount")].scalar = 512;
  XdrWriter wire;
  ASSERT_TRUE(
      RunSpecMarshal(plan_.streams[kMReq], args, &wire, nullptr).ok());
  ExpectWire(wire,
             "3c3c3c3c 3c3c3c3c 3c3c3c3c 3c3c3c3c 3c3c3c3c 3c3c3c3c "
             "3c3c3c3c 3c3c3c3c 00001000 00000200 00000200",
             "NFS flattened request");

  // The hand-coded stub writes the same request longhand.
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  uint8_t dest[512];
  XdrWriter hand;
  ASSERT_TRUE(client
                  .EncodeRequest(NfsClient::StubKind::kHandUserBuffer,
                                 {fh, 4096, 512, dest}, &hand)
                  .ok());
  ExpectSameBytes(wire, hand, "hand-coded request");
}

TEST_F(NfsSpecPlanTest, UnionReplyDecodesIdentically) {
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

  Arena arena("nfs");
  ArgVec args(prog_->slot_count());
  uint8_t dest[512] = {};
  uint32_t attrs[14] = {};
  int data_slot = prog_->SlotOf("data");
  args[data_slot].set_ptr(dest);
  args[data_slot].capacity = sizeof(payload);
  args[prog_->SlotOf("attributes")].set_ptr(attrs);
  XdrReader r(reply.span());
  Status st = RunSpecUnmarshal(plan_.streams[kURep], &r, &arena, &args,
                               nullptr, /*borrow_bytes=*/false);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(args[prog_->SlotOf("status")].scalar, 0u);
  EXPECT_EQ(args[data_slot].length, sizeof(payload));
  EXPECT_EQ(std::memcmp(dest, payload, sizeof(payload)), 0);
  for (uint32_t i = 0; i < 14; ++i) {
    EXPECT_EQ(attrs[i], i * 3 + 1) << i;
  }
  EXPECT_EQ(arena.live_blocks(), 0u);  // caller storage only

  // The hand-coded stub delivers the same bytes into user space.
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  auto* user =
      static_cast<uint8_t*>(client.user_space()->Allocate(sizeof(payload)));
  uint8_t fh[kNfsFhSize] = {};
  XdrReader hand_reader(reply.span());
  Result<uint32_t> delivered = client.DecodeReply(
      NfsClient::StubKind::kHandUserBuffer,
      {fh, 0, static_cast<uint32_t>(sizeof(payload)), user}, &hand_reader);
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(*delivered, sizeof(payload));
  EXPECT_EQ(std::memcmp(user, dest, sizeof(payload)), 0);
}

TEST_F(NfsSpecPlanTest, ErrorArmEndsStreamOnBothPaths) {
  // Both paths: the reference executor, and the entry point that runs the
  // build's generated function when specialization is on.
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1);
  NfsClient registers(&server, LinkModel(), RemoteServerModel());
  MarshalProgram prog = MarshalProgram::Build(*op_, *pres_);
  SpecSwitchGuard guard;
  XdrWriter reply;
  reply.PutU32(5);  // NFSERR_IO: default arm is void, stream ends

  for (bool generated : {false, true}) {
    SetMarshalSpecializationEnabled(generated);
    Arena arena("nfs");
    ArgVec args(prog.slot_count());
    uint8_t dest[16] = {};
    uint8_t attrs[14 * 4] = {};
    int data_slot = prog.SlotOf("data");
    args[data_slot].set_ptr(dest);
    args[data_slot].capacity = sizeof(dest);
    args[prog.SlotOf("attributes")].set_ptr(attrs);
    XdrReader r(reply.span());
    TraceSession session;
    Status st = prog.UnmarshalReply(&r, &arena, &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits),
              generated ? 1u : 0u);
    EXPECT_EQ(args[prog.SlotOf("status")].scalar, 5u);
    EXPECT_EQ(args[data_slot].length, 0u);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST_F(NfsSpecPlanTest, SpecialRoutineReceivesTheBytes) {
  XdrWriter reply;
  reply.PutU32(0);
  for (uint32_t i = 0; i < 14; ++i) {
    reply.PutU32(7);
  }
  uint8_t payload[64];
  std::memset(payload, 0x42, sizeof(payload));
  reply.PutU32(sizeof(payload));
  reply.PutBytes(payload, sizeof(payload));

  // The [special] data run goes through copy_in — the simulated kernel
  // copyout — rather than a plain memcpy, once.
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
  Status st = RunSpecUnmarshal(plan_.streams[kURep], &r, &arena, &args,
                               &special, /*borrow_bytes=*/false);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(special_calls, 1);
  EXPECT_EQ(std::memcmp(dest, payload, sizeof(payload)), 0);
}

// --- union arms and nested byte sequences as ops ----------------------------
//
// A union and a byte sequence inside a struct compile to leaf ops. Each
// literal wire image, status and message below is what the recursive
// value walk, which moved these values whole before they compiled to leaf
// ops, gave for the same input. Each case runs on the
// reference executor; the NFS cases also run the build's generated
// function.

enum class Path { kGenerated, kReference };

const char* PathName(Path path) {
  switch (path) {
    case Path::kGenerated:
      return "generated";
    case Path::kReference:
      return "reference executor";
  }
  return "?";
}

// NFS_OK, the fattr words 1..14, then a five-byte "hello" and its pad.
constexpr char kReadresOkWire[] =
    "00000000 00000001 00000002 00000003 00000004 00000005 00000006 "
    "00000007 00000008 00000009 0000000a 0000000b 0000000c 0000000d "
    "0000000e 00000005 68656c6c 6f000000";

// NFS under both default presentations: readres in one result slot, the
// conventional stub's reply on the client and its twin on the server.
class NfsDefaultOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = Compile(NfsIdlText(), true, "", "");
    const OperationDecl& op = c_.idl->interfaces[0].ops[0];
    client_ = std::make_unique<MarshalProgram>(MarshalProgram::Build(
        op, *c_.client.Find("NFS_VERSION")->FindOp("NFSPROC_READ")));
    server_ = std::make_unique<MarshalProgram>(MarshalProgram::Build(
        op, *c_.server.Find("NFS_VERSION")->FindOp("NFSPROC_READ")));
    readres_ = c_.idl->types.FindNamed("readres")->Resolve();
    payload_ = UnionPayloadOffset(readres_);
    data_offset_ =
        payload_ + NativeFieldOffset(c_.idl->types.FindNamed("readokres"), 1);
  }

  // A native readres with discriminant `status`; an NFS_OK one carries
  // the fattr words 1..14 and `data`.
  std::vector<uint8_t> Native(uint32_t status, const char* data) {
    std::vector<uint8_t> value(readres_->NativeSize());
    std::memcpy(value.data(), &status, sizeof(status));
    if (status == 0) {
      for (uint32_t i = 0; i < 14; ++i) {
        const uint32_t word = i + 1;
        std::memcpy(value.data() + payload_ + 4 * i, &word, sizeof(word));
      }
      const auto len = static_cast<uint32_t>(std::strlen(data));
      SeqRep rep{len, len, const_cast<char*>(data)};
      std::memcpy(value.data() + data_offset_, &rep, sizeof(rep));
    }
    return value;
  }

  // The server's reply stream over the readres at `value`.
  Status Encode(Path path, void* value, XdrWriter* w) {
    ArgVec args(server_->slot_count());
    const int slot = server_->result_slot();
    args[static_cast<size_t>(slot)].set_ptr(value);
    SpecSwitchGuard guard;
    SetMarshalSpecializationEnabled(path == Path::kGenerated);
    TraceSession session;
    Status st = server_->MarshalReply(&args, w, /*arena=*/nullptr);
    EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits),
              path == Path::kGenerated ? 1u : 0u);
    return st;
  }

  // The client's reply stream into `args`, as the conventional stub runs
  // it.
  Status Decode(Path path, ByteSpan wire, Arena* arena, ArgVec* args) {
    XdrReader r(wire);
    SpecSwitchGuard guard;
    SetMarshalSpecializationEnabled(path == Path::kGenerated);
    TraceSession session;
    Status st = client_->UnmarshalReply(&r, arena, args);
    EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits),
              path == Path::kGenerated ? 1u : 0u);
    return st;
  }

  static constexpr Path kPaths[] = {Path::kReference, Path::kGenerated};

  // Constructing a client registers the build's NFS unit.
  NfsFileServer file_server_{/*file_size=*/4096, /*seed=*/1};
  NfsClient registrar_{&file_server_, LinkModel(), RemoteServerModel()};
  Compiled c_;
  std::unique_ptr<MarshalProgram> client_;
  std::unique_ptr<MarshalProgram> server_;
  const Type* readres_ = nullptr;
  size_t payload_ = 0;
  size_t data_offset_ = 0;
};

TEST_F(NfsDefaultOpsTest, StreamsCompileToLeafOpsWithArmBranches) {
  // ensure, the discriminant's run, the NFS_OK arm (the run of 14 fattr
  // words, the data sequence, its end), and the void default arm has no
  // op.
  const std::vector<SpecOp>& reply =
      client_->Stream(SpecStream::kUnmarshalReply).ops;
  ASSERT_EQ(reply.size(), 21u);
  EXPECT_EQ(reply[0].kind, SpecOpKind::kEnsureStorage);
  EXPECT_EQ(reply[1].kind, SpecOpKind::kRun);
  EXPECT_EQ(reply[1].run_bytes[0], 4u);
  EXPECT_EQ(reply[2].kind, SpecOpKind::kGetScalarMem);
  EXPECT_EQ(reply[3].kind, SpecOpKind::kArm);
  EXPECT_EQ(reply[3].label, 0u);
  EXPECT_EQ(reply[3].count, 17u);
  EXPECT_EQ(reply[4].kind, SpecOpKind::kRun);
  EXPECT_EQ(reply[4].run_bytes[0], 56u);
  EXPECT_EQ(reply[19].kind, SpecOpKind::kGetSeqBytesMem);
  EXPECT_EQ(reply[19].offset, data_offset_);
  EXPECT_EQ(reply[19].bound, 8192u);
  EXPECT_EQ(reply[20].kind, SpecOpKind::kArmEnd);
  EXPECT_EQ(reply[20].count, 0u);
}

TEST_F(NfsDefaultOpsTest, NfsOkArmMatchesTheValuePath) {
  std::vector<uint8_t> native = Native(0, "hello");
  const std::vector<uint8_t> wire = Hex(kReadresOkWire);
  for (Path path : kPaths) {
    SCOPED_TRACE(PathName(path));
    XdrWriter w;
    Status st = Encode(path, native.data(), &w);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectWire(w, kReadresOkWire, PathName(path));

    Arena arena("nfs");
    ArgVec args(client_->slot_count());
    st = Decode(path, ByteSpan(wire), &arena, &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(ValueEquals(readres_, args[client_->result_slot()].ptr(),
                            native.data()));
    EXPECT_EQ(arena.live_blocks(), 2u);  // the readres and its data
    client_->ReleaseReply(&arena, &args);
    EXPECT_EQ(arena.live_blocks(), 0u);
  }
}

TEST_F(NfsDefaultOpsTest, NfserrIoTakesTheVoidDefaultArm) {
  std::vector<uint8_t> native = Native(5, nullptr);
  const std::vector<uint8_t> wire = Hex("00000005");
  for (Path path : kPaths) {
    SCOPED_TRACE(PathName(path));
    XdrWriter w;
    ASSERT_TRUE(Encode(path, native.data(), &w).ok());
    ExpectWire(w, "00000005", PathName(path));

    Arena arena("nfs");
    ArgVec args(client_->slot_count());
    Status st = Decode(path, ByteSpan(wire), &arena, &args);
    ASSERT_TRUE(st.ok()) << st.ToString();
    uint32_t status = 0;
    std::memcpy(&status, args[client_->result_slot()].ptr(), sizeof(status));
    EXPECT_EQ(status, 5u);
    EXPECT_EQ(arena.live_blocks(), 1u);
    client_->ReleaseReply(&arena, &args);
    EXPECT_EQ(arena.live_blocks(), 0u);
  }
}

TEST_F(NfsDefaultOpsTest, ReplyCutAtEveryByteFailsAlikeAndLeaksNothing) {
  const std::vector<uint8_t> wire = Hex(kReadresOkWire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    SCOPED_TRACE(StrFormat("cut at %zu", cut));
    // The value walk's status: short of the data's bytes, its last word
    // (or a word before it) was cut.
    const char* want = cut < 64 ? "XDR stream truncated reading u32"
                                : "XDR stream truncated reading opaque bytes";
    for (Path path : kPaths) {
      Arena arena("nfs");
      ArgVec args(client_->slot_count());
      Status st = Decode(path, ByteSpan(wire.data(), cut), &arena, &args);
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << PathName(path);
      EXPECT_EQ(st.message(), want) << PathName(path);
      client_->ReleaseReply(&arena, &args);
      EXPECT_EQ(arena.live_blocks(), 0u) << PathName(path);
    }
  }
}

constexpr char kShapeIdl[] = R"(
  struct pair { unsigned long x; unsigned long y; };
  union shape switch (long) {
    case 1: unsigned long radius;
    case 2: pair box;
  };
  interface Shapes { void draw(in shape s); shape last(); };
)";

TEST(SpecUnionOpsTest, TwoArmsWithoutDefaultMatchTheValuePath) {
  Compiled c = Compile(kShapeIdl, false, "", "");
  const OperationDecl& draw = c.idl->interfaces[0].ops[0];
  const OpPresentation& client_pres = *c.client.Find("Shapes")->FindOp("draw");
  const OpPresentation& server_pres = *c.server.Find("Shapes")->FindOp("draw");
  MarshalProgram client = MarshalProgram::Build(draw, client_pres);
  MarshalProgram server = MarshalProgram::Build(draw, server_pres);
  EXPECT_TRUE(CompileSpecPlan(draw, client_pres).Emits(kMReq));
  EXPECT_TRUE(CompileSpecPlan(draw, server_pres).Emits(kUReq));
  const Type* shape = c.idl->types.FindNamed("shape")->Resolve();
  const size_t payload = UnionPayloadOffset(shape);
  const SpecProgram& put = client.Stream(SpecStream::kMarshalRequest);
  const SpecProgram& get = server.Stream(SpecStream::kUnmarshalRequest);

  struct Case {
    uint32_t kind, x, y;
    const char* wire;
  };
  for (const Case& k : {Case{1, 9, 0, "00000001 00000009"},
                        Case{2, 3, 4, "00000002 00000003 00000004"}}) {
    SCOPED_TRACE(StrFormat("arm %u", k.kind));
    std::vector<uint8_t> native(shape->NativeSize());
    std::memcpy(native.data(), &k.kind, 4);
    std::memcpy(native.data() + payload, &k.x, 4);
    std::memcpy(native.data() + payload + 4, &k.y, 4);
    ArgVec args(client.slot_count());
    args[0].set_ptr(native.data());
    XdrWriter w;
    Status st = RunSpecMarshal(put, args, &w, nullptr);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectWire(w, k.wire, "shape");

    Arena arena("shape");
    ArgVec out(server.slot_count());
    XdrReader r(w.span());
    st = RunSpecUnmarshal(get, &r, &arena, &out, nullptr,
                          /*borrow_bytes=*/false);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(ValueEquals(shape, out[0].ptr(), native.data()));
    server.ReleaseRequest(&arena, &out);
    EXPECT_EQ(arena.live_blocks(), 0u);
  }

  // Discriminant 3 matches neither arm, and there is no default.
  std::vector<uint8_t> stray(shape->NativeSize());
  const uint32_t three = 3;
  std::memcpy(stray.data(), &three, 4);
  ArgVec args(client.slot_count());
  args[0].set_ptr(stray.data());
  XdrWriter w;
  Status st = RunSpecMarshal(put, args, &w, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "union discriminant 3 matches no arm");

  const std::vector<uint8_t> wire = Hex("00000003 00000009");
  Arena arena("shape");
  ArgVec out(server.slot_count());
  XdrReader r{ByteSpan(wire)};
  st = RunSpecUnmarshal(get, &r, &arena, &out, nullptr,
                        /*borrow_bytes=*/false);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "wire union discriminant 3 matches no arm");
  server.ReleaseRequest(&arena, &out);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

constexpr char kBlobIdl[] = R"(
  struct blob { unsigned long id; sequence<octet, 16> data;
                unsigned long tail; };
  interface Blobs { void put(in blob b); blob get(); };
)";

TEST(SpecNestedBytesTest, ByteSequenceInAStructMatchesTheValuePath) {
  Compiled c = Compile(kBlobIdl, false, "", "");
  const OperationDecl& put = c.idl->interfaces[0].ops[0];
  const OpPresentation& client_pres = *c.client.Find("Blobs")->FindOp("put");
  const OpPresentation& server_pres = *c.server.Find("Blobs")->FindOp("put");
  MarshalProgram client = MarshalProgram::Build(put, client_pres);
  MarshalProgram server = MarshalProgram::Build(put, server_pres);
  EXPECT_TRUE(CompileSpecPlan(put, client_pres).Emits(kMReq));
  EXPECT_TRUE(CompileSpecPlan(put, server_pres).Emits(kUReq));
  const Type* blob = c.idl->types.FindNamed("blob");
  const size_t data_at = NativeFieldOffset(blob, 1);
  const size_t tail_at = NativeFieldOffset(blob, 2);
  const SpecProgram& put_request = client.Stream(SpecStream::kMarshalRequest);
  const SpecProgram& get_request =
      server.Stream(SpecStream::kUnmarshalRequest);

  auto native = [&](uint32_t len) {
    static char bytes[32] = "abcdefghijklmnopqrstuvwxyz";
    std::vector<uint8_t> value(blob->NativeSize());
    const uint32_t id = 7;
    const uint32_t tail = 9;
    SeqRep rep{len, len, bytes};
    std::memcpy(value.data(), &id, 4);
    std::memcpy(value.data() + data_at, &rep, sizeof(rep));
    std::memcpy(value.data() + tail_at, &tail, 4);
    return value;
  };
  std::vector<uint8_t> three = native(3);
  ArgVec args(client.slot_count());
  args[0].set_ptr(three.data());
  XdrWriter w;
  ASSERT_TRUE(RunSpecMarshal(put_request, args, &w, nullptr).ok());
  ExpectWire(w, "00000007 00000003 61626300 00000009", "blob");

  // Unmarshal always copies the bytes into their own arena block.
  Arena arena("blob");
  {
    ArgVec out(server.slot_count());
    XdrReader r(w.span());
    Status st = RunSpecUnmarshal(get_request, &r, &arena, &out, nullptr,
                                 /*borrow_bytes=*/true);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(ValueEquals(blob, out[0].ptr(), three.data()));
    EXPECT_EQ(arena.live_blocks(), 2u);
    server.ReleaseRequest(&arena, &out);
    EXPECT_EQ(arena.live_blocks(), 0u);
  }

  // The declared bound, on both sides.
  std::vector<uint8_t> long_one = native(17);
  args[0].set_ptr(long_one.data());
  XdrWriter unused;
  Status st = RunSpecMarshal(put_request, args, &unused, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "sequence length 17 exceeds bound 16");
  const std::vector<uint8_t> wire =
      Hex("00000007 00000011 61626364 65666768 696a6b6c 6d6e6f70 "
          "71000000 00000009");
  ArgVec out(server.slot_count());
  XdrReader r{ByteSpan(wire)};
  st = RunSpecUnmarshal(get_request, &r, &arena, &out, nullptr,
                        /*borrow_bytes=*/true);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "wire sequence length 17 exceeds bound 16");
  server.ReleaseRequest(&arena, &out);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

// --- loops and strings at an offset -----------------------------------------
//
// tests/data/loop_shapes.idl, whose unit the build links into this binary
// and whose header carries the IDL text (kIdlSource). Each LoopShapes
// operation echoes one shape: the request carries it and the reply
// returns it. Each case runs on the reference executor and on the unit's
// generated code, against the wire bytes, statuses and live blocks the
// recursive value walk, which moved every one of these shapes whole before
// they compiled to loops, gave for the same input.

// The native layouts of the IDL's Entry and Item.
struct EntryN {
  const char* name;
  int32_t id;
};
struct ItemN {
  uint32_t disc;
  union {
    int32_t n;
    const char* s;
  };
};

constexpr char kCutWord[] = "XDR stream truncated reading u32";
constexpr char kCutBytes[] = "XDR stream truncated reading opaque bytes";

// "wire sequence length `count` exceeds the `left` bytes left".
std::string CountPastWire(uint32_t count, uint32_t left) {
  return StrFormat("wire sequence length %u exceeds the %u bytes left",
                   count, left);
}

// The status a cut reply fails with from cut `from` on, up to the next
// entry's cut.
struct CutStatus {
  size_t from;
  std::string message;
};

class LoopShapesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flexspec_loops::RegisterSpecializations();
    c_ = Compile(flexspec_loops::kIdlSource, false, "", "");
  }

  const OperationDecl& Op(const char* itf, const char* name) const {
    for (const OperationDecl& op : c_.idl->FindInterface(itf)->ops) {
      if (op.name == name) {
        return op;
      }
    }
    ADD_FAILURE() << "no operation " << name;
    return c_.idl->interfaces[0].ops[0];
  }
  MarshalProgram Build(const PresentationSet& set, const char* itf,
                       const char* name) const {
    return MarshalProgram::Build(Op(itf, name),
                                 *set.Find(itf)->FindOp(name));
  }

  // Storage for the reply `client` decodes: the caller's when its result
  // is [alloc(user)] (a fixed-size result under the default client
  // presentation), otherwise none.
  static void* ReplyStorage(const MarshalProgram& client,
                            std::vector<uint8_t>* storage) {
    if (client.presentation().result.alloc != AllocPolicy::kUser) {
      return nullptr;
    }
    storage->assign(client.op().result->Resolve()->NativeSize(), 0);
    return storage->data();
  }

  // Echoes `value` (`length` elements of a sequence) through LoopShapes
  // operation `name` on each executor: the request and the reply are
  // `wire`, the server's unmarshal leaves `live` blocks (the client's too,
  // less the caller's storage), the decoded reply marshals to `wire`
  // again, and each release frees every block.
  void Echo(const char* name, void* value, uint32_t length,
            const std::vector<uint8_t>& wire, size_t live) {
    MarshalProgram client = Build(c_.client, "LoopShapes", name);
    MarshalProgram server = Build(c_.server, "LoopShapes", name);
    const auto result = static_cast<size_t>(server.result_slot());
    SpecSwitchGuard guard;
    for (bool generated : {false, true}) {
      SCOPED_TRACE(generated ? "generated" : "reference executor");
      SetMarshalSpecializationEnabled(generated);
      TraceSession session;
      ArgVec args(client.slot_count());
      args[0].set_ptr(value);
      args[0].length = length;
      XdrWriter request;
      ASSERT_TRUE(client.MarshalRequest(args, &request).ok());
      ExpectWire(request, HexOf(wire), "request");

      Arena server_arena("server");
      ArgVec in(server.slot_count());
      XdrReader r(request.span());
      Status st = server.UnmarshalRequest(&r, &server_arena, &in);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(server_arena.live_blocks(), live);
      ArgVec out(server.slot_count());
      out[result] = in[0];
      XdrWriter reply;
      ASSERT_TRUE(server.MarshalReply(&out, &reply, /*arena=*/nullptr).ok());
      ExpectWire(reply, HexOf(wire), "reply");
      server.ReleaseRequest(&server_arena, &in);
      EXPECT_EQ(server_arena.live_blocks(), 0u);

      Arena client_arena("client");
      std::vector<uint8_t> storage;
      ArgVec back(client.slot_count());
      back[result].set_ptr(ReplyStorage(client, &storage));
      XdrReader reply_reader(reply.span());
      st = client.UnmarshalReply(&reply_reader, &client_arena, &back);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(client_arena.live_blocks(), storage.empty() ? live : 0u);
      ArgVec again(client.slot_count());
      again[0] = back[result];
      XdrWriter echo;
      ASSERT_TRUE(client.MarshalRequest(again, &echo).ok());
      ExpectWire(echo, HexOf(wire), "decoded reply");
      client.ReleaseReply(&client_arena, &back);
      EXPECT_EQ(client_arena.live_blocks(), 0u);
      EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits),
                generated ? 5u : 0u);
    }
  }

  // Cuts the reply `wire` of LoopShapes operation `name` at every byte:
  // on each executor the client's reply stream fails with DATA_LOSS and
  // the value walk's message (`want`), and its release leaves no block.
  void CutReplies(const char* name, const std::vector<uint8_t>& wire,
                  const std::vector<CutStatus>& want) {
    MarshalProgram client = Build(c_.client, "LoopShapes", name);
    const auto result = static_cast<size_t>(client.result_slot());
    SpecSwitchGuard guard;
    for (bool generated : {false, true}) {
      SetMarshalSpecializationEnabled(generated);
      size_t next = 0;
      for (size_t cut = 0; cut < wire.size(); ++cut) {
        SCOPED_TRACE(StrFormat("%s, cut at %zu",
                               generated ? "generated" : "reference executor",
                               cut));
        while (next < want.size() && want[next].from <= cut) {
          ++next;
        }
        Arena arena("client");
        std::vector<uint8_t> storage;
        ArgVec args(client.slot_count());
        args[result].set_ptr(ReplyStorage(client, &storage));
        XdrReader r{ByteSpan(wire.data(), cut)};
        Status st = client.UnmarshalReply(&r, &arena, &args);
        EXPECT_EQ(st.code(), StatusCode::kDataLoss);
        EXPECT_EQ(st.message(), want[next - 1].message);
        client.ReleaseReply(&arena, &args);
        EXPECT_EQ(arena.live_blocks(), 0u);
      }
    }
  }

  static std::string HexOf(const std::vector<uint8_t>& bytes) {
    std::string hex;
    for (size_t i = 0; i < bytes.size(); ++i) {
      hex += StrFormat(i > 0 && i % 4 == 0 ? " %02x" : "%02x", bytes[i]);
    }
    return hex;
  }

  Compiled c_;
};

TEST_F(LoopShapesTest, SequenceOfLongs) {
  int32_t v[3] = {1, -2, 0x7FFFFFFF};
  const std::vector<uint8_t> wire =
      Hex("00000003 00000001 fffffffe 7fffffff");
  Echo("longs", v, 3, wire, 1);
  CutReplies("longs", wire,
             {{0, kCutWord},
              {4, CountPastWire(3, 0)},
              {5, CountPastWire(3, 1)},
              {6, CountPastWire(3, 2)},
              {7, kCutWord}});
}

TEST_F(LoopShapesTest, SequenceOfStructsHoldingAString) {
  EntryN entries[3] = {{"ab", 1}, {"", 2}, {"xyz", -1}};
  const std::vector<uint8_t> wire =
      Hex("00000003 00000002 61620000 00000001 00000000 00000002 "
          "00000003 78797a00 ffffffff");
  // The buffer and one block per name, the empty one's NUL included.
  Echo("entries", entries, 3, wire, 4);
  CutReplies("entries", wire,
             {{0, kCutWord},
              {4, CountPastWire(3, 0)},
              {5, CountPastWire(3, 1)},
              {6, CountPastWire(3, 2)},
              {7, kCutWord},
              {8, kCutBytes},
              {12, kCutWord},
              {28, kCutBytes},
              {32, kCutWord}});

  // A null name marshals as the empty string.
  OnBothExecutors([&] {
    MarshalProgram client = Build(c_.client, "LoopShapes", "entries");
    EntryN two[2] = {{nullptr, 5}, {"q", 6}};
    ArgVec args(client.slot_count());
    args[0].set_ptr(two);
    args[0].length = 2;
    XdrWriter w;
    ASSERT_TRUE(client.MarshalRequest(args, &w).ok());
    ExpectWire(w, "00000002 00000000 00000005 00000001 71000000 00000006",
               "null name");
  });
}

TEST_F(LoopShapesTest, SequenceOfByteSequences) {
  SeqRep blobs[3] = {{5, 5, const_cast<char*>("hello")},
                     {0, 0, nullptr},
                     {2, 2, const_cast<char*>("\x01\x02")}};
  const std::vector<uint8_t> wire =
      Hex("00000003 00000005 68656c6c 6f000000 00000000 00000002 01020000");
  Echo("blobs", blobs, 3, wire, 4);
  CutReplies("blobs", wire,
             {{0, kCutWord},
              {4, CountPastWire(3, 0)},
              {5, CountPastWire(3, 1)},
              {6, CountPastWire(3, 2)},
              {7, kCutWord},
              {8, kCutBytes},
              {16, kCutWord},
              {24, kCutBytes}});
}

TEST_F(LoopShapesTest, NestedLoops) {
  int32_t row0[3] = {1, 2, 3};
  int32_t row2[1] = {-1};
  SeqRep matrix[3] = {{3, 3, row0}, {0, 0, nullptr}, {1, 1, row2}};
  const std::vector<uint8_t> wire =
      Hex("00000003 00000003 00000001 00000002 00000003 00000000 "
          "00000001 ffffffff");
  Echo("matrix", matrix, 3, wire, 4);
  CutReplies("matrix", wire,
             {{0, kCutWord},
              {4, CountPastWire(3, 0)},
              {5, CountPastWire(3, 1)},
              {6, CountPastWire(3, 2)},
              {7, kCutWord},
              {8, CountPastWire(3, 0)},
              {9, CountPastWire(3, 1)},
              {10, CountPastWire(3, 2)},
              {11, kCutWord},
              {28, CountPastWire(1, 0)},
              {29, kCutWord}});
}

TEST_F(LoopShapesTest, SequenceOfUnions) {
  ItemN items[3] = {};
  items[0].disc = 1;
  items[0].n = 7;
  items[1].disc = 2;
  items[1].s = "hi";
  items[2].disc = 1;
  items[2].n = -1;
  const std::vector<uint8_t> wire =
      Hex("00000003 00000001 00000007 00000002 00000002 68690000 "
          "00000001 ffffffff");
  Echo("items", items, 3, wire, 2);
  CutReplies("items", wire,
             {{0, kCutWord},
              {4, CountPastWire(3, 0)},
              {5, CountPastWire(3, 1)},
              {6, CountPastWire(3, 2)},
              {7, kCutWord},
              {20, kCutBytes},
              {24, kCutWord}});

  // Discriminant 3 matches neither arm, and there is no default: the
  // branch inside the loop ends the stream.
  OnBothExecutors([&] {
    MarshalProgram client = Build(c_.client, "LoopShapes", "items");
    MarshalProgram server = Build(c_.server, "LoopShapes", "items");
    ItemN stray[2] = {};
    stray[0].disc = 1;
    stray[0].n = 7;
    stray[1].disc = 3;
    stray[1].n = 9;
    ArgVec args(client.slot_count());
    args[0].set_ptr(stray);
    args[0].length = 2;
    XdrWriter w;
    Status st = client.MarshalRequest(args, &w);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), "union discriminant 3 matches no arm");

    const std::vector<uint8_t> wire_in =
        Hex("00000002 00000001 00000007 00000003 00000009");
    Arena arena("server");
    ArgVec out(server.slot_count());
    XdrReader r{ByteSpan(wire_in)};
    st = server.UnmarshalRequest(&r, &arena, &out);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    EXPECT_EQ(st.message(), "wire union discriminant 3 matches no arm");
    EXPECT_EQ(out[0].length, 2u);
    server.ReleaseRequest(&arena, &out);
    EXPECT_EQ(arena.live_blocks(), 0u);
  });
}

TEST_F(LoopShapesTest, ArrayOfStructs) {
  int32_t pts[200];
  XdrWriter want;
  for (int i = 0; i < 100; ++i) {
    pts[2 * i] = i;
    pts[2 * i + 1] = -i;
    want.PutU32(static_cast<uint32_t>(i));
    want.PutU32(static_cast<uint32_t>(-i));
  }
  const std::vector<uint8_t> wire(want.span().begin(), want.span().end());
  // The server's block for the array; the client decodes into the
  // caller's storage.
  Echo("points", pts, 0, wire, 1);
  CutReplies("points", wire, {{0, kCutWord}});
}

TEST_F(LoopShapesTest, StructHoldingAString) {
  EntryN entry = {"name", 42};
  const std::vector<uint8_t> wire = Hex("00000004 6e616d65 0000002a");
  // The struct's block and the name's.
  Echo("entry", &entry, 0, wire, 2);
  CutReplies("entry", wire, {{0, kCutWord}, {4, kCutBytes}, {8, kCutWord}});
}

// A request whose count the wire bytes allow but whose storage (count ×
// 1 KiB) an arena cannot hold is refused before anything is allocated.
TEST_F(LoopShapesTest, CountPastTheStorageLimitIsRefused) {
  OnBothExecutors([&] {
    MarshalProgram server = Build(c_.server, "Bulk", "push");
    std::vector<uint8_t> request(4 + 70000, 0);
    const uint32_t count = 70000;
    for (int i = 0; i < 4; ++i) {
      request[static_cast<size_t>(i)] =
          static_cast<uint8_t>(count >> (24 - 8 * i));
    }
    Arena arena("server");
    ArgVec out(server.slot_count());
    XdrReader r{ByteSpan(request)};
    Status st = server.UnmarshalRequest(&r, &arena, &out);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(st.message(),
              "wire sequence length 70000 needs 71680000 bytes of storage, "
              "past the 33554432-byte limit");
    EXPECT_EQ(arena.live_blocks(), 0u);
    server.ReleaseRequest(&arena, &out);
    EXPECT_EQ(arena.live_blocks(), 0u);
  });
}

// A count whose storage is exactly kMaxNativeSize allocates, and the
// stream fails on the first element the wire does not hold; the release
// frees the block.
TEST_F(LoopShapesTest, CountAtTheStorageLimitAllocates) {
  OnBothExecutors([&] {
    MarshalProgram server = Build(c_.server, "Bulk", "push");
    const uint32_t count = kMaxNativeSize / 1024;
    std::vector<uint8_t> request(4 + count, 0);
    for (int i = 0; i < 4; ++i) {
      request[static_cast<size_t>(i)] =
          static_cast<uint8_t>(count >> (24 - 8 * i));
    }
    Arena arena("server");
    ArgVec out(server.slot_count());
    XdrReader r{ByteSpan(request)};
    Status st = server.UnmarshalRequest(&r, &arena, &out);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    EXPECT_EQ(st.message(), kCutWord);
    EXPECT_EQ(out[0].length, count);
    EXPECT_EQ(arena.live_blocks(), 1u);
    server.ReleaseRequest(&arena, &out);
    EXPECT_EQ(arena.live_blocks(), 0u);
  });
}

// The deepest sequence the parsers accept nests kMaxSequenceNesting loops,
// each with its own base register.
TEST(SpecLoopDepthTest, LoopsNestToTheDepthLimit) {
  std::string type = "long";
  for (int i = 0; i < kMaxSequenceNesting; ++i) {
    type = "sequence<" + type + " >";
  }
  Compiled c = Compile("interface D { void f(in " + type + " x); };", false,
                       "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client =
      MarshalProgram::Build(op, *c.client.Find("D")->FindOp("f"));
  MarshalProgram server =
      MarshalProgram::Build(op, *c.server.Find("D")->FindOp("f"));
  const std::vector<SpecOp>& ops =
      server.Stream(SpecStream::kUnmarshalRequest).ops;
  ASSERT_EQ(ops.size(), 2u * kMaxSequenceNesting + 2);  // the leaf's kRun
  EXPECT_EQ(ops[kMaxSequenceNesting - 1].depth, kMaxSequenceNesting - 1);

  // One element at every level: level k's SeqRep holds level k + 1's.
  int32_t leaf = 7;
  SeqRep reps[kMaxSequenceNesting];
  for (int k = kMaxSequenceNesting - 1; k >= 1; --k) {
    void* inner = k == kMaxSequenceNesting - 1
                      ? static_cast<void*>(&leaf)
                      : static_cast<void*>(&reps[k + 1]);
    reps[k] = SeqRep{1, 1, inner};
  }
  ArgVec args(client.slot_count());
  args[0].set_ptr(&reps[1]);
  args[0].length = 1;
  XdrWriter w;
  ASSERT_TRUE(client.MarshalRequest(args, &w).ok());
  XdrWriter want;
  for (int k = 0; k < kMaxSequenceNesting; ++k) {
    want.PutU32(1);
  }
  want.PutU32(7);
  ExpectSameBytes(w, want, "nested to the limit");

  Arena arena("server");
  ArgVec out(server.slot_count());
  XdrReader r(w.span());
  ASSERT_TRUE(server.UnmarshalRequest(&r, &arena, &out).ok());
  EXPECT_EQ(arena.live_blocks(), static_cast<size_t>(kMaxSequenceNesting));
  XdrWriter again;
  ASSERT_TRUE(client.MarshalRequest(out, &again).ok());
  ExpectSameBytes(again, want, "decoded value");
  server.ReleaseRequest(&arena, &out);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

// --- the prover sweep over every seed signature family ----------------------

struct SweepFixture {
  const char* name;
  const char* idl;  // null: the NFS text
  bool sunrpc;
  const char* client_pdl;  // null: the NFS [special] PDL
  const char* server_pdl;
};

const SweepFixture kSweepFixtures[] = {
    {"syslog-default", kSysLogIdl, false, "", ""},
    {"syslog-length_is", kSysLogIdl, false,
     "SysLog_write_msg(,, char *[length_is(length)] msg, int length);", ""},
    {"fileio-default", kFileIoIdl, false, "", ""},
    {"fileio-alloc-user", kFileIoIdl, false, "FileIO_read()[alloc(user)];",
     ""},
    {"fileio-special", kFileIoIdl, false,
     "FileIO_write(char *[special] data);", ""},
    {"fileio-dealloc-never", kFileIoIdl, false, "",
     "FileIO_read()[dealloc(never)];"},
    {"nfs-figure1", nullptr, true, nullptr, ""},
    {"nfs-direct-union", nullptr, true, "", ""},
    {"sequence-of-long", kLongSeqIdl, false, "", ""},
    {"struct-holding-string", R"(
      struct Entry { string name; long id; };
      interface Dir { void add(in Entry e); Entry get(in long id); };
    )",
     false, "", ""},
    {"array-of-structs", R"(
      struct P { long x; long y; };
      typedef P Pts[100];
      interface Poly { void set(in Pts pts); Pts get(); };
    )",
     false, "", ""},
    {"union-two-arms", kShapeIdl, false, "", ""},
    {"struct-holding-bytes", kBlobIdl, false, "", ""},
    {"loop-shapes", flexspec_loops::kIdlSource, false, "", ""},
};

// Calls `fn(op, pres)` for every operation of every sweep fixture under
// both side presentations.
template <typename Fn>
void ForEachSweepPlan(Fn fn) {
  for (const SweepFixture& fx : kSweepFixtures) {
    SCOPED_TRACE(fx.name);
    Compiled c = Compile(fx.idl != nullptr ? fx.idl : NfsIdlText(),
                         fx.sunrpc,
                         fx.client_pdl != nullptr ? fx.client_pdl
                                                  : NfsClientPdlText(),
                         fx.server_pdl);
    for (const PresentationSet* set : {&c.client, &c.server}) {
      for (const InterfaceDecl& itf : c.idl->interfaces) {
        for (const OperationDecl& op : itf.ops) {
          const OpPresentation* pres = set->Find(itf.name)->FindOp(op.name);
          ASSERT_NE(pres, nullptr) << op.name;
          fn(op, *pres);
        }
      }
    }
  }
}

TEST(SpecVerifierSweepTest, AllSeedPlansProveEquivalent) {
  ForEachSweepPlan([](const OperationDecl& op, const OpPresentation& pres) {
    SpecPlan plan = CompileSpecPlan(op, pres);
    DiagnosticSink diags;
    EXPECT_EQ(VerifySpecPlan(op, pres, plan, "sweep", &diags), 0)
        << op.name << ": " << diags.ToString();
  });
}

// Compilation is total: every stream of every fixture compiles to ops that
// lower to the plan's own effects, the engine runs that very program, and
// `idlc --specialize` emits it (no fixture runs past the op budget).
TEST(SpecCompileTest, EverySweepFixtureStreamCompiles) {
  ForEachSweepPlan([](const OperationDecl& op, const OpPresentation& pres) {
    SpecPlan plan = CompileSpecPlan(op, pres);
    MarshalProgram prog = MarshalProgram::Build(op, pres);
    for (size_t s = 0; s < kSpecStreamCount; ++s) {
      const SpecStream stream = static_cast<SpecStream>(s);
      EXPECT_TRUE(plan.Emits(s)) << op.name << " " << SpecStreamName(stream)
                                 << ": " << plan.rejection[s];
      EXPECT_EQ(SpecStreamEffects(plan.streams[s]),
                PlanStreamEffects(op, pres, stream))
          << op.name << " " << SpecStreamName(stream);
      EXPECT_EQ(prog.Stream(stream).ops, plan.streams[s].ops)
          << op.name << " " << SpecStreamName(stream);
    }
  });
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
    // Either executor credits the stream's wire delta.
    EXPECT_EQ(report.counter(TraceCounter::kMarshalBytesOut),
              fast.span().size());
  }

  // Flipping the global switch falls back per call — no rebind needed —
  // and the reference executor produces the same bytes.
  SetMarshalSpecializationEnabled(false);
  XdrWriter slow;
  {
    TraceSession session;
    ASSERT_TRUE(prog.MarshalRequest(args, &slow).ok());
    TraceSnapshot report = session.Report();
    EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecHits), 0u);
    EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecMisses), 1u);
    EXPECT_EQ(report.counter(TraceCounter::kMarshalBytesOut),
              slow.span().size());
  }
  ExpectSameBytes(fast, slow, "dispatch vs reference executor");

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
  auto generated =
      GenerateSpecializations(*c.idl, c.client, c.server, options, "t.idl",
                              kSysLogIdl, "", &diags, &stats);
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

// The bytes between `name`'s raw-string delimiters in `header`, read as
// the compiler reads them: up to the first `)<delimiter>"`.
std::string EmbeddedSource(const std::string& header, const char* name) {
  const std::string head =
      StrFormat("inline constexpr char %s[] = R\"", name);
  size_t open = header.find(head);
  if (open == std::string::npos) {
    return "<no such constant>";
  }
  open += head.size();
  const size_t paren = header.find('(', open);
  const std::string close = ")" + header.substr(open, paren - open) + "\"";
  const size_t end = header.find(close, paren + 1);
  return header.substr(paren + 1, end - paren - 1);
}

TEST(SpecGenTest, HeaderEmbedsTheSourcesByteForByte) {
  // Comments carry what a literal could trip on: the emitter's first-choice
  // raw-string terminator, quotes, backslashes and a tab.
  const std::string idl =
      "// )src\" ends the first-choice literal; \"q\" C:\\dir\\ \t tab\n" +
      std::string(kSysLogIdl);
  const std::string pdl =
      "// \"\\\" )src\" \t\n"
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);\n";
  Compiled c = Compile(idl, false, pdl, "");
  DiagnosticSink diags;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           SpecGenOptions{}, "t.idl", idl,
                                           pdl, &diags, nullptr);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(EmbeddedSource(generated->header, "kIdlSource"), idl);
  EXPECT_EQ(EmbeddedSource(generated->header, "kClientPdlSource"), pdl);

  // Without a client PDL its constant is empty.
  Compiled defaults = Compile(kSysLogIdl, false, "", "");
  auto unit = GenerateSpecializations(*defaults.idl, defaults.client,
                                      defaults.server, SpecGenOptions{},
                                      "t.idl", kSysLogIdl, "", &diags,
                                      nullptr);
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_EQ(EmbeddedSource(unit->header, "kIdlSource"), kSysLogIdl);
  EXPECT_EQ(EmbeddedSource(unit->header, "kClientPdlSource"), "");
}

TEST(SpecGenTest, EachFunctionIsOneStepCallPerOp) {
  // examples/idl/syslog.idl under its client PDL: both sides' plans cover
  // both string opcodes and the kLenSlot and kStrLen length sources.
  constexpr char kIdl[] = R"(
    interface SysLog {
      void write_msg(in string msg);
      unsigned long message_count();
    };
  )";
  constexpr char kClientPdl[] =
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);";
  Compiled c = Compile(kIdl, false, kClientPdl, "");
  DiagnosticSink diags;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           SpecGenOptions{}, "syslog.idl",
                                           kIdl, kClientPdl, &diags, nullptr);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const std::string& source = generated->source;
  // What an op does lives in its step alone: the unit moves no bytes,
  // copies nothing and allocates nothing itself.
  for (const char* text : {"PutU32", "memcpy", "AllocateBlock"}) {
    EXPECT_EQ(source.find(text), std::string::npos) << text;
  }

  // Every wire stream's body is `Status end;` and the run pointer, then
  // one step call per op of its stream in order, then `return end;`:
  // straight-line code, a template over the codec that the registered
  // function instantiates for the wire's format. A release's body is one
  // step call per op. An empty stream's body is `Status end;` and
  // `return end;`, or nothing.
  static constexpr const char* kSuffix[kSpecStreamCount] = {
      "MarshalRequest", "UnmarshalRequest", "MarshalReply",
      "UnmarshalReply", "ReleaseRequest",   "ReleaseReply"};
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
        ASSERT_TRUE(plan.Emits(s)) << op.name << " " << s;
        const bool release = s >= kWireStreamCount;
        const bool marshal = s % 2 == 0;
        const std::vector<SpecOp>& ops = plan.streams[s].ops;
        std::string head =
            release ? StrFormat("void Spec%zu%s(", index, kSuffix[s])
            : ops.empty()
                ? StrFormat("Status Spec%zu%s(", index, kSuffix[s])
                : StrFormat("Status Spec%zu%sOn(", index, kSuffix[s]);
        size_t begin = source.find(head);
        ASSERT_NE(begin, std::string::npos) << head;
        if (release && ops.empty()) {
          EXPECT_EQ(source.substr(begin, source.find('\n', begin) - begin),
                    head + "Arena*, ArgVec*, bool) {}");
          continue;
        }
        begin = source.find('\n', begin) + 1;
        size_t end = source.find("\n}\n", begin);
        std::istringstream body(source.substr(begin, end - begin));
        std::string line;
        if (!release) {
          ASSERT_TRUE(std::getline(body, line));
          EXPECT_EQ(line, "  Status end;") << head;
        }
        if (!release && !ops.empty()) {
          ASSERT_TRUE(std::getline(body, line));
          EXPECT_EQ(line, marshal ? "  uint8_t* run = nullptr;"
                                  : "  const uint8_t* run = nullptr;")
              << head;
        }
        for (const SpecOp& spec_op : ops) {
          ASSERT_TRUE(std::getline(body, line)) << head;
          const char* step = release   ? "ReleaseStep"
                             : marshal ? "MarshalStep"
                                       : "UnmarshalStep";
          std::string call = StrFormat(
              release ? "  %s({.kind = %s" : "  if (!%s({.kind = %s", step,
              std::string(SpecOpKindName(spec_op.kind)).c_str());
          EXPECT_EQ(line.rfind(call, 0), 0u) << head << ": " << line;
          EXPECT_TRUE(line.ends_with(release ? ", arena, args, donated);"
                                             : ", &run, &end)) return end;"))
              << line;
          ++calls;
        }
        if (!release) {
          ASSERT_TRUE(std::getline(body, line));
          EXPECT_EQ(line, "  return end;") << head;
        }
        EXPECT_FALSE(std::getline(body, line)) << head << ": " << line;
      }
      ++index;
    }
  }
  EXPECT_EQ(index, 4u);  // both operations under both presentations
  // Per presentation: write_msg's string op each way and its release's
  // kFreeSlot; message_count's result scalar each way, behind its kRun.
  EXPECT_EQ(calls, 14u);
}

TEST(SpecGenTest, CorruptedStreamBlocksEmission) {
  // The acceptance gate: a deliberately broken specialization (one opcode
  // dropped) must trip the stage-3 prover and block the whole unit.
  Compiled c = Compile(kSysLogIdl, false, "", "");
  SpecGenOptions options;
  options.mutate_for_test = [](SpecPlan* plan) {
    for (size_t s = 0; s < kSpecStreamCount; ++s) {
      if (!plan->streams[s].ops.empty()) {
        plan->streams[s].ops.pop_back();
        return;
      }
    }
  };
  DiagnosticSink diags;
  SpecGenStats stats;
  auto generated =
      GenerateSpecializations(*c.idl, c.client, c.server, options, "t.idl",
                              kSysLogIdl, "", &diags, &stats);
  EXPECT_FALSE(generated.ok());
  EXPECT_GE(diags.CountCode("FLEX201"), 1) << diags.ToString();
}

TEST(SpecGenTest, CorruptedArmBlocksEmissionWithFlex207) {
  // An arm that tests the wrong label, or skips the wrong number of ops,
  // would decode the wrong arm: the prover must refuse the unit.
  Compiled c = Compile(NfsIdlText(), true, "", "");
  for (bool label : {true, false}) {
    SCOPED_TRACE(label ? "label" : "count");
    SpecGenOptions options;
    options.mutate_for_test = [label](SpecPlan* plan) {
      for (SpecProgram& stream : plan->streams) {
        for (SpecOp& op : stream.ops) {
          if (op.kind == SpecOpKind::kArm) {
            if (label) {
              op.label += 1;
            } else {
              op.count -= 1;
            }
            return;
          }
        }
      }
    };
    DiagnosticSink diags;
    auto generated =
        GenerateSpecializations(*c.idl, c.client, c.server, options, "nfs.x",
                                NfsIdlText(), "", &diags, nullptr);
    EXPECT_FALSE(generated.ok());
    EXPECT_GE(diags.CountCode("FLEX207"), 1) << diags.ToString();
  }
}

TEST(SpecGenTest, CorruptedReleaseBlocksEmissionWithFlex201) {
  // A release that drops a free leaks the block, and one that adds a free
  // frees a block twice: the prover must refuse the unit either way.
  Compiled c = Compile(NfsIdlText(), true, "", "");
  for (bool drop : {true, false}) {
    SCOPED_TRACE(drop ? "free dropped" : "free added");
    SpecGenOptions options;
    options.mutate_for_test = [drop](SpecPlan* plan) {
      for (size_t s = kWireStreamCount; s < kSpecStreamCount; ++s) {
        std::vector<SpecOp>& ops = plan->streams[s].ops;
        for (size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].kind == SpecOpKind::kFreeMem) {
            if (drop) {
              ops.erase(ops.begin() + static_cast<ptrdiff_t>(i));
            } else {
              ops.insert(ops.begin() + static_cast<ptrdiff_t>(i), ops[i]);
            }
            return;
          }
        }
      }
      ADD_FAILURE() << "no release frees a nested block";
    };
    DiagnosticSink diags;
    auto generated =
        GenerateSpecializations(*c.idl, c.client, c.server, options, "nfs.x",
                                NfsIdlText(), "", &diags, nullptr);
    EXPECT_FALSE(generated.ok());
    EXPECT_GE(diags.CountCode("FLEX201"), 1) << diags.ToString();
    EXPECT_NE(diags.ToString().find("release_"), std::string::npos)
        << diags.ToString();
  }
}

TEST(SpecGenTest, BranchIntoARunBlocksEmissionWithFlex204) {
  // A union's run left open past its default arm: the labeled arm's
  // kArmEnd lands inside it, past the kRun that checks the scalar after
  // the union, which would then move bytes no run claimed. Both lowerings
  // would agree on such a stream if both grouped runs that way, so the
  // prover checks where the compiled stream's runs lie on its own.
  constexpr char kIdl[] = R"(
    union U switch (long) { case 1: long a; default: long b; };
    struct S { U u; long x; };
    interface I { void f(in S s); };
  )";
  Compiled c = Compile(kIdl, false, "", "");
  SpecGenOptions options;
  options.mutate_for_test = [](SpecPlan* plan) {
    // kRun, disc, kArm, kRun, a, kArmEnd, kRun, b, kRun, x: x's run joins
    // b's, and the kArmEnd, which skips two ops, lands on x.
    std::vector<SpecOp>& ops = plan->streams[kMReq].ops;
    ASSERT_EQ(ops.size(), 10u);
    ASSERT_EQ(ops[5].kind, SpecOpKind::kArmEnd);
    ASSERT_EQ(ops[6].kind, SpecOpKind::kRun);
    ASSERT_EQ(ops[8].kind, SpecOpKind::kRun);
    for (size_t f = 0; f < kWireFormatCount; ++f) {
      ops[6].run_bytes[f] += ops[8].run_bytes[f];
    }
    ops.erase(ops.begin() + 8);
  };
  DiagnosticSink diags;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           options, "t.idl", kIdl, "", &diags,
                                           nullptr);
  EXPECT_FALSE(generated.ok());
  EXPECT_GE(diags.CountCode("FLEX204"), 1) << diags.ToString();
  EXPECT_NE(diags.ToString().find("marshal_request: effect 8, where a branch "
                                  "lands, lies inside the run at effect 6"),
            std::string::npos)
      << diags.ToString();
}

TEST(SpecGenTest, CorruptedLoopBlocksEmission) {
  // A loop that takes its count from the wrong place, steps the wrong
  // stride or spans the wrong body would move the wrong bytes: the prover
  // must refuse the unit, each under its own code.
  Compiled c = Compile(flexspec_loops::kIdlSource, false, "", "");
  struct Corruption {
    const char* what;
    void (*mutate)(SpecOp*);
    const char* code;
  };
  const Corruption corruptions[] = {
      {"count source",
       [](SpecOp* op) { op->len_src = SpecLenSource::kConstant; },
       "FLEX204"},
      {"stride", [](SpecOp* op) { op->stride += 4; }, "FLEX203"},
      {"body length", [](SpecOp* op) { op->count -= 1; }, "FLEX204"},
  };
  for (const Corruption& k : corruptions) {
    SCOPED_TRACE(k.what);
    SpecGenOptions options;
    options.mutate_for_test = [&k](SpecPlan* plan) {
      for (SpecProgram& stream : plan->streams) {
        for (SpecOp& op : stream.ops) {
          if (op.kind == SpecOpKind::kLoop) {
            k.mutate(&op);
            return;
          }
        }
      }
    };
    DiagnosticSink diags;
    auto generated = GenerateSpecializations(
        *c.idl, c.client, c.server, options, "loop_shapes.idl",
        flexspec_loops::kIdlSource, "", &diags, nullptr);
    EXPECT_FALSE(generated.ok());
    EXPECT_GE(diags.CountCode(k.code), 1) << diags.ToString();
  }
}

TEST(SpecGenTest, EachLoopIsOneFor) {
  // The loop shapes: every stream is emitted, each kLoop is its step call
  // and then one `for` whose increment is the kLoopEnd's NextElement, and
  // each op inside is one step call that addresses the loops.
  Compiled c = Compile(flexspec_loops::kIdlSource, false, "", "");
  DiagnosticSink diags;
  SpecGenStats stats;
  auto generated = GenerateSpecializations(
      *c.idl, c.client, c.server, SpecGenOptions{}, "loop_shapes.idl",
      flexspec_loops::kIdlSource, "", &diags, &stats);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(diags.CountCode("FLEX205"), 0) << diags.ToString();
  EXPECT_EQ(stats.streams_emitted, kSpecStreamCount * stats.plans_emitted);
  // A wire step ends its stream on failure; a release step never fails.
  auto passes_loops = [](const std::string& line) {
    return line.ends_with(", loops)) return end;") ||
           line.ends_with(", donated, loops);");
  };
  size_t loops = 0;
  size_t fors = 0;
  std::istringstream source(generated->source);
  std::string previous;
  for (std::string line; std::getline(source, line); previous = line) {
    if (line.find("({.kind = kLoop,") != std::string::npos) {
      ++loops;
      EXPECT_TRUE(passes_loops(line)) << line;
    } else if (line.find("for (; loops[") != std::string::npos) {
      ++fors;
      EXPECT_NE(previous.find("({.kind = kLoop,"), std::string::npos)
          << line;
      EXPECT_NE(line.find("NextElement({.kind = kLoopEnd,"),
                std::string::npos)
          << line;
    } else if (line.find(".depth = ") != std::string::npos &&
               line.find("Step(") != std::string::npos) {
      EXPECT_TRUE(passes_loops(line)) << line;
    }
  }
  EXPECT_GT(loops, 0u);
  EXPECT_EQ(fors, loops);
}

TEST(SpecGenTest, ArmBranchesAreForwardGotos) {
  // NFS's default presentations: every stream is emitted, and each union
  // arm is an `if (SkippedOps(...)) goto` to a label further down.
  Compiled c = Compile(NfsIdlText(), true, "", "");
  DiagnosticSink diags;
  SpecGenStats stats;
  auto generated = GenerateSpecializations(*c.idl, c.client, c.server,
                                           SpecGenOptions{}, "nfs.x",
                                           NfsIdlText(), "", &diags, &stats);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(diags.CountCode("FLEX205"), 0) << diags.ToString();
  EXPECT_EQ(stats.plans_emitted, 2u);  // client and server default
  EXPECT_EQ(stats.streams_emitted, 12u);
  std::istringstream source(generated->source);
  std::set<std::string> pending;  // labels jumped to, not yet seen
  size_t branches = 0;
  for (std::string line; std::getline(source, line);) {
    if (line.rfind("  if (SkippedOps({.kind = kArm", 0) == 0) {
      const size_t go = line.find(")) goto ");
      ASSERT_NE(go, std::string::npos) << line;
      EXPECT_TRUE(line.ends_with(";")) << line;
      pending.insert(line.substr(go + 8, line.size() - go - 9));
      ++branches;
    } else if (!line.empty() && line.back() == ':' && line[0] != ' ') {
      pending.erase(line.substr(0, line.size() - 1));
    } else if (line == "}") {
      EXPECT_TRUE(pending.empty()) << "a branch jumps out of its function";
      pending.clear();
    }
  }
  // kArm and kArmEnd in four reply streams and in both reply releases.
  EXPECT_EQ(branches, 12u);
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
  // so a pass with the generated code and with the reference executor is
  // a byte-identity proof end to end.
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
  XdrWriter hand;
  ASSERT_TRUE(client
                  .EncodeRequest(NfsClient::StubKind::kHandConventional,
                                 chunk, &hand)
                  .ok());
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
    ExpectSameBytes(slow, hand, "NFS request against the hand-coded stub");
  }
}

TEST(NfsSpecE2ETest, UnitServesTheFigure1PdlAndBothDefaults) {
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1);
  NfsClient registers(&server, LinkModel(), RemoteServerModel());
  Compiled figure1 = Compile(NfsIdlText(), true, NfsClientPdlText(), "");
  Compiled defaults = Compile(NfsIdlText(), true, "", "");
  const std::pair<const Compiled*, const PresentationSet*> plans[] = {
      {&figure1, &figure1.client},
      {&defaults, &defaults.client},
      {&defaults, &defaults.server}};
  for (const auto& [compiled, set] : plans) {
    const OperationDecl& op = compiled->idl->interfaces[0].ops[0];
    const SpecFns* fns = FindSpecialization(ComputeSpecKey(
        op, *set->Find("NFS_VERSION")->FindOp("NFSPROC_READ")));
    ASSERT_NE(fns, nullptr);
    EXPECT_NE(fns->marshal_request, nullptr);
    EXPECT_NE(fns->unmarshal_request, nullptr);
    EXPECT_NE(fns->marshal_reply, nullptr);
    EXPECT_NE(fns->unmarshal_reply, nullptr);
  }
}

TEST(NfsSpecE2ETest, ConventionalReadRunsOnlyGeneratedCode) {
  SpecSwitchGuard guard;
  SetMarshalSpecializationEnabled(true);
  NfsFileServer server(/*file_size=*/64u << 10, /*seed=*/1995);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  TraceSession session;
  auto stats =
      client.ReadFile(NfsClient::StubKind::kGeneratedConventional, 512);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes_read, 64u << 10);
  TraceSnapshot report = session.Report();
  EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecMisses), 0u);
  EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecHits),
            2 * stats->rpc_calls);
}

// --- Both codecs against the reference executor ----------------------------
//
// Each generated wire stream is a template over the concrete codec, and the
// registered function runs the XdrReader/XdrWriter or the NativeReader/
// NativeWriter instantiation by the wire's format tag. For every stream the
// build's NFS and loop-shapes units register, on each codec, the generated
// code and the reference executor must give the same status and message,
// the same wire bytes and the same live blocks, on whole and on cut input.

enum class Codec { kXdr, kNative };

// Writes a sample value of `type`: each scalar the next count of
// `*counter`, strings "ab", two elements per sequence (one under a bound
// of 1). `arm` picks each union's alternative: a labeled arm by index, or
// past the last one a label that matches none (the default arm, or the
// no-arm error, after which nothing more is written).
bool WriteSample(const Type* type, uint32_t arm, uint32_t* counter,
                 WireWriter* w) {
  const Type* t = type->Resolve();
  switch (t->kind()) {
    case TypeKind::kVoid:
      return true;
    case TypeKind::kString: {
      const uint32_t len = t->bound() == 1 ? 1 : 2;
      w->PutU32(len);
      w->PutBytes("ab", len);
      return true;
    }
    case TypeKind::kSequence:
    case TypeKind::kArray: {
      const bool array = t->kind() == TypeKind::kArray;
      const uint32_t n = array ? t->bound() : t->bound() == 1 ? 1 : 2;
      if (!array) {
        w->PutU32(n);
      }
      if (IsByteElem(t->element())) {
        std::vector<uint8_t> bytes(n);
        for (uint8_t& b : bytes) {
          b = static_cast<uint8_t>(++*counter);
        }
        w->PutBytes(bytes.data(), n);
        return true;
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (!WriteSample(t->element(), arm, counter, w)) {
          return false;
        }
      }
      return true;
    }
    case TypeKind::kStruct:
      for (const StructField& f : t->fields()) {
        if (!WriteSample(f.type, arm, counter, w)) {
          return false;
        }
      }
      return true;
    case TypeKind::kUnion: {
      std::vector<const UnionArm*> labeled;
      const UnionArm* fallback = nullptr;
      uint32_t unused = 0;
      for (const UnionArm& a : t->arms()) {
        if (a.is_default) {
          fallback = &a;
        } else {
          labeled.push_back(&a);
          unused = std::max(unused, a.label + 1);
        }
      }
      const UnionArm* chosen =
          arm < labeled.size() ? labeled[arm] : fallback;
      w->PutU32(arm < labeled.size() ? chosen->label : unused);
      return chosen != nullptr && WriteSample(chosen->type, arm, counter, w);
    }
    default: {
      const uint64_t v = ++*counter * 0x0101010101010101ull;
      switch (WireScalarWidth(t->kind())) {
        case 1:
          w->PutU8(static_cast<uint8_t>(v & 0x7f));
          return true;
        case 2:
          w->PutU16(static_cast<uint16_t>(v));
          return true;
        case 4:
          w->PutU32(static_cast<uint32_t>(v));
          return true;
        default:
          w->PutU64(v);
          return true;
      }
    }
  }
}

// One message of `op` in `codec`'s format, every item a sample.
std::vector<uint8_t> SampleMessage(const OperationDecl& op,
                                   const OpPresentation& pres, bool request,
                                   uint32_t arm, Codec codec) {
  const MarshalPlanView plan = BuildMarshalPlan(op, pres);
  XdrWriter xdr;
  NativeWriter native;
  WireWriter* w = codec == Codec::kXdr ? static_cast<WireWriter*>(&xdr)
                                       : static_cast<WireWriter*>(&native);
  uint32_t counter = 0;
  for (const PlanItemView& item : request ? plan.request : plan.reply) {
    if (!WriteSample(item.type, arm, &counter, w)) {
      break;
    }
  }
  return std::vector<uint8_t>(w->span().begin(), w->span().end());
}

// What one path made of one message: the unmarshal's status, the blocks it
// left, the message marshaled back from what it decoded, and the blocks
// left after the side's release.
struct CodecOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;
  size_t unread = 0;  // the bytes the unmarshal left in the input
  size_t live_after_unmarshal = 0;
  std::vector<uint8_t> remarshaled;
  std::string remarshal_status;
  size_t live_after_release = 0;

  bool operator==(const CodecOutcome&) const = default;
};

// Decodes `wire` with `prog`'s request or reply stream on `codec`, then
// marshals the same message back from the decoded slots (a reply through
// MarshalReply's [dealloc(always)] epilogue) and releases the side.
CodecOutcome RunCodec(const MarshalProgram& prog, bool request, Codec codec,
                      bool generated, ByteSpan wire) {
  SpecSwitchGuard guard;
  SetMarshalSpecializationEnabled(generated);
  TraceSession session;
  CodecOutcome out;
  Arena arena("codec");
  ArgVec args(prog.slot_count());
  XdrReader xdr_in(wire);
  NativeReader native_in(wire);
  WireReader* r = codec == Codec::kXdr ? static_cast<WireReader*>(&xdr_in)
                                       : static_cast<WireReader*>(&native_in);
  Status st = request ? prog.UnmarshalRequest(r, &arena, &args)
                      : prog.UnmarshalReply(r, &arena, &args);
  out.code = st.code();
  out.message = st.message();
  out.unread = r->remaining();
  out.live_after_unmarshal = arena.live_blocks();
  size_t streams = 1;
  if (st.ok()) {
    XdrWriter xdr_out;
    NativeWriter native_out;
    WireWriter* w = codec == Codec::kXdr
                        ? static_cast<WireWriter*>(&xdr_out)
                        : static_cast<WireWriter*>(&native_out);
    st = request ? prog.MarshalRequest(args, w)
                 : prog.MarshalReply(&args, w, &arena);
    out.remarshaled.assign(w->span().begin(), w->span().end());
    out.remarshal_status = st.ToString();
    ++streams;
  }
  if (request) {
    prog.ReleaseRequest(&arena, &args);
  } else {
    prog.ReleaseReply(&arena, &args);
  }
  out.live_after_release = arena.live_blocks();
  // Every wire stream ran generated code, or none did; a release counts
  // neither a hit nor a miss.
  const TraceSnapshot report = session.Report();
  EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecHits),
            generated ? streams : 0u);
  EXPECT_EQ(report.counter(TraceCounter::kMarshalSpecMisses),
            generated ? 0u : streams);
  return out;
}

// Runs every message of every operation of `itf` under `pres_set` on both
// codecs, whole and cut at every byte, on generated code and on the
// reference executor, and expects the same outcome from both. A whole
// message that decodes is read to its last byte and marshals back to
// itself. Each cut lies in a heap block of its own size, so a read past
// it is an overflow the ASan build reports.
void ExpectCodecsMatchReference(const InterfaceDecl& itf,
                                const PresentationSet& pres_set) {
  for (const OperationDecl& op : itf.ops) {
    const OpPresentation& pres = *pres_set.Find(itf.name)->FindOp(op.name);
    const SpecFns* fns = FindSpecialization(ComputeSpecKey(op, pres));
    ASSERT_NE(fns, nullptr) << op.name;
    ASSERT_NE(fns->marshal_request, nullptr) << op.name;
    ASSERT_NE(fns->unmarshal_request, nullptr) << op.name;
    ASSERT_NE(fns->marshal_reply, nullptr) << op.name;
    ASSERT_NE(fns->unmarshal_reply, nullptr) << op.name;
    ASSERT_NE(fns->release_request, nullptr) << op.name;
    ASSERT_NE(fns->release_reply, nullptr) << op.name;
    const MarshalProgram prog = MarshalProgram::Build(op, pres);
    for (bool request : {true, false}) {
      for (uint32_t arm = 0; arm < 3; ++arm) {
        for (Codec codec : {Codec::kXdr, Codec::kNative}) {
          const std::vector<uint8_t> wire =
              SampleMessage(op, pres, request, arm, codec);
          for (size_t cut = 0; cut <= wire.size(); ++cut) {
            SCOPED_TRACE(StrFormat(
                "%s %s, arm %u, %s, cut at %zu of %zu", op.name.c_str(),
                request ? "request" : "reply", arm,
                codec == Codec::kXdr ? "XDR" : "native", cut, wire.size()));
            const std::vector<uint8_t> in(
                wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
            const CodecOutcome reference = RunCodec(
                prog, request, codec, /*generated=*/false, ByteSpan(in));
            const CodecOutcome generated = RunCodec(
                prog, request, codec, /*generated=*/true, ByteSpan(in));
            if (cut == wire.size() && arm == 0) {
              // Whole, with every union on its first arm: a valid message.
              EXPECT_EQ(reference.code, StatusCode::kOk) << reference.message;
              EXPECT_EQ(reference.remarshal_status, "OK");
            }
            if (cut == wire.size() && reference.code == StatusCode::kOk) {
              EXPECT_EQ(reference.unread, 0u);
              EXPECT_EQ(reference.remarshaled, wire);
            }
            EXPECT_EQ(generated.code, reference.code);
            EXPECT_EQ(generated.message, reference.message);
            EXPECT_EQ(generated.live_after_unmarshal,
                      reference.live_after_unmarshal);
            EXPECT_EQ(generated.remarshaled, reference.remarshaled);
            EXPECT_EQ(generated.remarshal_status, reference.remarshal_status);
            EXPECT_EQ(generated.live_after_release, 0u);
            EXPECT_EQ(reference.live_after_release, 0u);
            if (generated != reference) {
              return;  // one report per message is enough
            }
          }
        }
      }
    }
  }
}

TEST(SpecCodecTest, NfsUnitMatchesTheReferenceExecutorOnBothCodecs) {
  NfsFileServer server(/*file_size=*/4096, /*seed=*/1);
  NfsClient registers(&server, LinkModel(), RemoteServerModel());
  Compiled figure1 = Compile(NfsIdlText(), true, NfsClientPdlText(), "");
  Compiled defaults = Compile(NfsIdlText(), true, "", "");
  for (const auto& [compiled, set] :
       {std::pair{&figure1, &figure1.client},
        std::pair{&defaults, &defaults.client},
        std::pair{&defaults, &defaults.server}}) {
    ExpectCodecsMatchReference(compiled->idl->interfaces[0], *set);
  }
}

TEST(SpecCodecTest, LoopShapesUnitMatchesTheReferenceExecutorOnBothCodecs) {
  flexspec_loops::RegisterSpecializations();
  Compiled c = Compile(flexspec_loops::kIdlSource, false, "", "");
  for (const InterfaceDecl& itf : c.idl->interfaces) {
    SCOPED_TRACE(itf.name);
    ExpectCodecsMatchReference(itf, c.client);
    ExpectCodecsMatchReference(itf, c.server);
  }
}

TEST(SpecCodecTest, RunSumsFollowEachCodec) {
  // One run: XDR widens the octet and the short to a word each and pads
  // the five bytes to eight (4 + 4 + 8 + 8); the native format moves
  // them as they are (1 + 2 + 5 + 8).
  Compiled c = Compile(R"(
    struct mix { octet a; short b; octet c[5]; long long d; };
    interface M { void put(in mix m); };
  )",
                       false, "", "");
  const OperationDecl& op = c.idl->interfaces[0].ops[0];
  MarshalProgram client =
      MarshalProgram::Build(op, *c.client.Find("M")->FindOp("put"));
  MarshalProgram server =
      MarshalProgram::Build(op, *c.server.Find("M")->FindOp("put"));
  for (const MarshalProgram* prog : {&client, &server}) {
    for (SpecStream stream :
         {SpecStream::kMarshalRequest, SpecStream::kUnmarshalRequest}) {
      const std::vector<SpecOp>& ops = prog->Stream(stream).ops;
      const size_t first = stream == SpecStream::kUnmarshalRequest ? 1 : 0;
      ASSERT_EQ(ops.size(), first + 5);
      EXPECT_EQ(ops[first].kind, SpecOpKind::kRun);
      EXPECT_EQ(ops[first].run_bytes[static_cast<size_t>(WireFormat::kXdr)],
                24u);
      EXPECT_EQ(
          ops[first].run_bytes[static_cast<size_t>(WireFormat::kNative)],
          16u);
    }
  }

  struct Mix {
    uint8_t a;
    int16_t b;
    uint8_t c[5];
    int64_t d;
  };
  ASSERT_EQ(c.idl->types.FindNamed("mix")->Resolve()->NativeSize(),
            sizeof(Mix));
  Mix m{0x81, -2, {1, 2, 3, 4, 5}, 0x0102030405060708};
  ArgVec args(client.slot_count());
  args[0].set_ptr(&m);
  XdrWriter xdr;
  ASSERT_TRUE(client.MarshalRequest(args, &xdr).ok());
  ExpectWire(xdr,
             "00000081 0000fffe 01020304 05000000 01020304 05060708",
             "XDR");
  NativeWriter native;
  ASSERT_TRUE(client.MarshalRequest(args, &native).ok());
  EXPECT_EQ(std::vector<uint8_t>(native.span().begin(), native.span().end()),
            Hex("81 feff 0102030405 0807060504030201"));
}

// --- A value after a union whose default arm holds one ---------------------
//
// Every labeled arm's kArmEnd lands after the union, past the default arm's
// ops, so what follows the union opens a run of its own: the scalar after
// Dflt in DfltThen, and the parameter after a Dflt (loop_shapes.idl,
// Arms.pick). On each arm, codec and executor the request and the reply
// are the image the codec's own writer makes item by item, each decode
// reads every byte and gets every value back, and input cut at every byte
// fails with the status of the first item cut short and leaves no block.

// The native layouts of loop_shapes.idl's Dflt and DfltThen.
struct DfltN {
  uint32_t disc;
  union {
    uint32_t a;
    const char* s;
    int32_t b;
  };
};
struct DfltThenN {
  DfltN v;
  uint32_t x;
};

// A wire image built one item at a time with the codec's writer, with the
// message a read cut short inside each item fails with.
class WireImage {
 public:
  explicit WireImage(Codec codec) : codec_(codec) {}

  void Word(uint32_t v) {
    writer()->PutU32(v);
    Mark(codec_ == Codec::kXdr ? kCutWord
                               : "native stream truncated reading scalar");
  }
  void Str(const char* s) {
    const auto len = static_cast<uint32_t>(std::strlen(s));
    Word(len);
    writer()->PutBytes(s, len);
    Mark(codec_ == Codec::kXdr ? kCutBytes
                               : "native stream truncated reading bytes");
  }
  void Dflt(const DfltN& u) {
    Word(u.disc);
    switch (u.disc) {
      case 1:
        Word(u.a);
        return;
      case 2:
        Str(u.s);
        return;
      default:
        Word(static_cast<uint32_t>(u.b));
        return;
    }
  }

  std::vector<uint8_t> bytes() {
    return std::vector<uint8_t>(writer()->span().begin(),
                                writer()->span().end());
  }
  // The message a read of the image cut at `cut` fails with.
  std::string CutMessage(size_t cut) const {
    for (const auto& [end, message] : items_) {
      if (cut < end) {
        return message;
      }
    }
    return "";
  }

 private:
  WireWriter* writer() {
    return codec_ == Codec::kXdr ? static_cast<WireWriter*>(&xdr_) : &native_;
  }
  void Mark(const char* message) {
    items_.emplace_back(writer()->size(), message);
  }

  Codec codec_;
  XdrWriter xdr_;
  NativeWriter native_;
  std::vector<std::pair<size_t, std::string>> items_;
};

// A reader of `bytes` in `codec`'s format.
class CodecReader {
 public:
  CodecReader(Codec codec, ByteSpan bytes)
      : xdr_(bytes), native_(bytes), codec_(codec) {}

  WireReader* get() {
    return codec_ == Codec::kXdr ? static_cast<WireReader*>(&xdr_) : &native_;
  }

 private:
  XdrReader xdr_;
  NativeReader native_;
  Codec codec_;
};

// Whether `got` holds the arm and the value `want` holds.
bool SameDflt(const DfltN& got, const DfltN& want) {
  if (got.disc != want.disc) {
    return false;
  }
  switch (want.disc) {
    case 1:
      return got.a == want.a;
    case 2:
      return got.s != nullptr && std::strcmp(got.s, want.s) == 0;
    default:
      return got.b == want.b;
  }
}

TEST(SpecDefaultArmTest, ValuesAfterTheUnionOnEveryArmCodecAndExecutor) {
  flexspec_loops::RegisterSpecializations();
  Compiled c = Compile(flexspec_loops::kIdlSource, false, "", "");
  const OperationDecl& op = c.idl->FindInterface("Arms")->ops[0];
  const OpPresentation& client_pres = *c.client.Find("Arms")->FindOp("pick");
  const OpPresentation& server_pres = *c.server.Find("Arms")->FindOp("pick");
  ASSERT_NE(FindSpecialization(ComputeSpecKey(op, client_pres)), nullptr);
  ASSERT_NE(FindSpecialization(ComputeSpecKey(op, server_pres)), nullptr);
  const Type* dflt = c.idl->types.FindNamed("Dflt")->Resolve();
  ASSERT_EQ(UnionPayloadOffset(dflt), offsetof(DfltN, a));
  ASSERT_EQ(c.idl->types.FindNamed("DfltThen")->Resolve()->NativeSize(),
            sizeof(DfltThenN));
  const MarshalProgram client = MarshalProgram::Build(op, client_pres);
  const MarshalProgram server = MarshalProgram::Build(op, server_pres);
  ASSERT_EQ(client.result_slot(), 3);
  ASSERT_EQ(server.result_slot(), 3);
  constexpr size_t kResult = 3;
  // The client's storage for the reply, when the default presentation
  // makes the result [alloc(user)].
  const bool caller_storage = client.presentation().result.alloc ==
                              AllocPolicy::kUser;

  // Arm `disc`: 1 (a word), 2 (a string) or 9 (the default arm's word).
  auto sample = [](uint32_t disc, uint32_t seed) {
    DfltN u{};
    u.disc = disc;
    if (disc == 1) {
      u.a = seed;
    } else if (disc == 2) {
      u.s = seed % 2 == 0 ? "ab" : "xyz";
    } else {
      u.b = -static_cast<int32_t>(seed);
    }
    return u;
  };

  SpecSwitchGuard guard;
  for (uint32_t disc : {1u, 2u, 9u}) {
    for (uint32_t other : {1u, 2u, 9u}) {
      DfltThenN s{sample(disc, 10 + disc), 0xA1A2A3A4};
      const DfltN u = sample(other, 21 + other);
      const uint32_t y = 0xB1B2B3B4;
      for (Codec codec : {Codec::kXdr, Codec::kNative}) {
        WireImage request(codec);
        request.Dflt(s.v);
        request.Word(s.x);
        request.Dflt(u);
        request.Word(y);
        WireImage reply(codec);
        reply.Dflt(s.v);
        reply.Word(s.x);
        for (bool generated : {false, true}) {
          SCOPED_TRACE(StrFormat(
              "arms %u and %u, %s, %s", disc, other,
              codec == Codec::kXdr ? "XDR" : "native",
              generated ? "generated" : "reference executor"));
          SetMarshalSpecializationEnabled(generated);
          TraceSession session;
          XdrWriter xdr_out;
          NativeWriter native_out;
          WireWriter* w = codec == Codec::kXdr
                              ? static_cast<WireWriter*>(&xdr_out)
                              : &native_out;
          ArgVec args(client.slot_count());
          args[0].set_ptr(&s);
          args[1].set_ptr(&u);
          args[2].scalar = y;
          ASSERT_TRUE(client.MarshalRequest(args, w).ok());
          EXPECT_EQ(std::vector<uint8_t>(w->span().begin(), w->span().end()),
                    request.bytes());

          const std::vector<uint8_t> request_bytes = request.bytes();
          Arena server_arena("server");
          ArgVec in(server.slot_count());
          CodecReader request_in(codec, ByteSpan(request_bytes));
          Status st =
              server.UnmarshalRequest(request_in.get(), &server_arena, &in);
          ASSERT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(request_in.get()->remaining(), 0u);
          const auto* got_s = static_cast<const DfltThenN*>(in[0].ptr());
          EXPECT_TRUE(SameDflt(got_s->v, s.v));
          EXPECT_EQ(got_s->x, s.x);
          EXPECT_TRUE(SameDflt(*static_cast<const DfltN*>(in[1].ptr()), u));
          EXPECT_EQ(in[2].scalar, y);

          // The reply returns the request's struct.
          ArgVec out(server.slot_count());
          out[kResult] = in[0];
          XdrWriter xdr_reply;
          NativeWriter native_reply;
          WireWriter* rw = codec == Codec::kXdr
                               ? static_cast<WireWriter*>(&xdr_reply)
                               : &native_reply;
          ASSERT_TRUE(server.MarshalReply(&out, rw, /*arena=*/nullptr).ok());
          EXPECT_EQ(
              std::vector<uint8_t>(rw->span().begin(), rw->span().end()),
              reply.bytes());
          server.ReleaseRequest(&server_arena, &in);
          EXPECT_EQ(server_arena.live_blocks(), 0u);

          const std::vector<uint8_t> reply_bytes = reply.bytes();
          Arena client_arena("client");
          DfltThenN storage{};
          ArgVec back(client.slot_count());
          if (caller_storage) {
            back[kResult].set_ptr(&storage);
          }
          CodecReader reply_in(codec, ByteSpan(reply_bytes));
          st = client.UnmarshalReply(reply_in.get(), &client_arena, &back);
          ASSERT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(reply_in.get()->remaining(), 0u);
          const auto* got_r = static_cast<const DfltThenN*>(back[kResult].ptr());
          EXPECT_TRUE(SameDflt(got_r->v, s.v));
          EXPECT_EQ(got_r->x, s.x);
          client.ReleaseReply(&client_arena, &back);
          EXPECT_EQ(client_arena.live_blocks(), 0u);
          EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits),
                    generated ? 4u : 0u);

          // Cut at every byte, each cut in a heap block of its own size, so
          // a read past it is an overflow the ASan build reports.
          for (bool is_request : {true, false}) {
            WireImage& image = is_request ? request : reply;
            const std::vector<uint8_t> whole = image.bytes();
            for (size_t cut = 0; cut < whole.size(); ++cut) {
              SCOPED_TRACE(StrFormat("%s cut at %zu",
                                     is_request ? "request" : "reply", cut));
              const std::vector<uint8_t> part(
                  whole.begin(), whole.begin() + static_cast<ptrdiff_t>(cut));
              CodecReader r(codec, ByteSpan(part));
              Arena arena("cut");
              DfltThenN cut_storage{};
              ArgVec slots((is_request ? server : client).slot_count());
              if (!is_request && caller_storage) {
                slots[kResult].set_ptr(&cut_storage);
              }
              st = is_request ? server.UnmarshalRequest(r.get(), &arena, &slots)
                              : client.UnmarshalReply(r.get(), &arena, &slots);
              EXPECT_EQ(st.code(), StatusCode::kDataLoss);
              EXPECT_EQ(st.message(), image.CutMessage(cut));
              if (is_request) {
                server.ReleaseRequest(&arena, &slots);
              } else {
                client.ReleaseReply(&arena, &slots);
              }
              EXPECT_EQ(arena.live_blocks(), 0u);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace flexrpc
