// Tests for the wire formats, the native layout and the value walks that
// stay (FreeValue, ValueEquals, CopyValue), and round-trip property tests
// over random values of every shape through the marshal engine, with XDR
// golden vectors.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "loop_shapes.flexspec.h"
#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/marshal/layout.h"
#include "src/marshal/native.h"
#include "src/marshal/spec.h"
#include "src/marshal/value.h"
#include "src/marshal/xdr.h"
#include "src/pdl/apply.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "tests/value_testutil.h"

namespace flexrpc {
namespace {

TEST(XdrFormatTest, ScalarsWidenedTo32Bits) {
  XdrWriter w;
  w.PutU8(0xAB);
  EXPECT_EQ(w.size(), 4u);  // XDR: everything is at least 4 bytes
  EXPECT_EQ(w.span()[3], 0xAB);
  EXPECT_EQ(w.span()[0], 0x00);
}

TEST(XdrFormatTest, OpaquePadding) {
  XdrWriter w;
  w.PutBytes("abcde", 5);
  EXPECT_EQ(w.size(), 8u);  // padded to 4-byte boundary
  EXPECT_EQ(w.span()[5], 0);
  EXPECT_EQ(w.span()[6], 0);
  EXPECT_EQ(w.span()[7], 0);
  // A cleared writer reuses its buffer, whose old bytes must not show
  // through the padding of a run or of a reserved region.
  const uint8_t ones[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  w.Clear();
  w.PutBytes(ones, sizeof(ones));
  w.Clear();
  w.PutBytes("abcde", 5);
  std::memcpy(w.ReserveBytes(2), "fg", 2);
  const uint8_t expected[] = {'a', 'b', 'c', 'd', 'e', 0, 0, 0,
                              'f', 'g', 0, 0};
  ASSERT_EQ(w.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(w.span().data(), expected, sizeof(expected)), 0);
}

TEST(XdrFormatTest, GoldenU32) {
  // RFC 1014: integers are big-endian two's complement.
  XdrWriter w;
  w.PutU32(0x01020304);
  const uint8_t expected[] = {0x01, 0x02, 0x03, 0x04};
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(std::memcmp(w.span().data(), expected, 4), 0);
}

TEST(XdrFormatTest, GoldenU64) {
  XdrWriter w;
  w.PutU64(0x0102030405060708ull);
  const uint8_t expected[] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_EQ(w.size(), 8u);
  EXPECT_EQ(std::memcmp(w.span().data(), expected, 8), 0);
}

TEST(XdrFormatTest, ReaderConsumesPadding) {
  XdrWriter w;
  w.PutBytes("ab", 2);
  w.PutU32(7);
  XdrReader r(w.span());
  auto bytes = r.GetBytes(2);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ((*bytes)[0], 'a');
  EXPECT_EQ(r.GetU32().value(), 7u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(XdrFormatTest, TruncationReported) {
  XdrWriter w;
  w.PutU32(1);
  XdrReader r(w.span());
  EXPECT_TRUE(r.GetU32().ok());
  EXPECT_FALSE(r.GetU32().ok());
  EXPECT_FALSE(r.GetBytes(1).ok());
}

TEST(NativeFormatTest, CompactLayout) {
  NativeWriter w;
  w.PutU8(1);
  w.PutU16(2);
  w.PutU32(3);
  w.PutU64(4);
  EXPECT_EQ(w.size(), 15u);  // no padding
  NativeReader r(w.span());
  EXPECT_EQ(r.GetU8().value(), 1);
  EXPECT_EQ(r.GetU16().value(), 2);
  EXPECT_EQ(r.GetU32().value(), 3u);
  EXPECT_EQ(r.GetU64().value(), 4u);
}

TEST(NativeFormatTest, ReserveBytesWritable) {
  NativeWriter w;
  uint8_t* p = w.ReserveBytes(4);
  std::memcpy(p, "wxyz", 4);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.span()[0], 'w');
}

TEST(LayoutTest, FieldOffsetsRespectAlignment) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(R"(
    struct s { octet a; unsigned long b; octet c; double d; };
    interface I { void f(in s x); };
  )", "t.idl", &diags);
  ASSERT_NE(idl, nullptr);
  const Type* s = idl->types.FindNamed("s");
  EXPECT_EQ(NativeFieldOffset(s, 0), 0u);
  EXPECT_EQ(NativeFieldOffset(s, 1), 4u);   // aligned to 4
  EXPECT_EQ(NativeFieldOffset(s, 2), 8u);
  EXPECT_EQ(NativeFieldOffset(s, 3), 16u);  // aligned to 8
  EXPECT_EQ(s->NativeSize(), 24u);
  EXPECT_EQ(s->NativeAlign(), 8u);
}

TEST(LayoutTest, ScalarLoadStoreRoundTrip) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl("interface I { void f(in double d); };", "t.idl",
                           &diags);
  ASSERT_NE(idl, nullptr);
  const Type* f64 = idl->types.F64();
  double v = 3.14159;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  uint8_t mem[8];
  StoreScalar(f64, mem, bits);
  EXPECT_EQ(LoadScalar(f64, mem), bits);
}

// --- round-trip property tests over random values ---

// `void f(in t x)` over one IDL snippet that defines `t`, as both sides
// bind it under their default presentations.
class OneValueOp {
 public:
  explicit OneValueOp(const std::string& snippet) {
    DiagnosticSink diags;
    idl_ = ParseCorbaIdl(snippet + "\ninterface I { void f(in t x); };",
                         "t.idl", &diags);
    if (idl_ == nullptr || !AnalyzeInterfaceFile(idl_.get(), &diags) ||
        !ApplyPdl(*idl_, Side::kClient, nullptr, &client_pres_, &diags) ||
        !ApplyPdl(*idl_, Side::kServer, nullptr, &server_pres_, &diags)) {
      ADD_FAILURE() << diags.ToString();
      return;
    }
    const OperationDecl& op = idl_->interfaces[0].ops[0];
    client_ = std::make_unique<MarshalProgram>(
        MarshalProgram::Build(op, *client_pres_.Find("I")->FindOp("f")));
    server_ = std::make_unique<MarshalProgram>(
        MarshalProgram::Build(op, *server_pres_.Find("I")->FindOp("f")));
    t_ = idl_->types.FindNamed("t");
    // Generated code runs where the loop-shapes unit registered the
    // client's key; the reference executor runs everywhere.
    flexspec_loops::RegisterSpecializations();
    generated_ = FindSpecialization(ComputeSpecKey(
                     op, *client_pres_.Find("I")->FindOp("f"))) != nullptr;
  }

  bool ok() const { return server_ != nullptr; }
  const Type* t() const { return t_; }
  const MarshalProgram& client() const { return *client_; }
  const MarshalProgram& server() const { return *server_; }
  // Whether specialization on runs generated code for this operation.
  bool generated() const { return generated_; }

  // The native value at `native` as a stub passes it: a scalar's bits, a
  // string's pointer, a sequence unpacked, any other value by pointer.
  void ToSlot(const void* native, ArgValue* slot) const {
    const Type* t = t_->Resolve();
    switch (t->kind()) {
      case TypeKind::kString: {
        const char* s;
        std::memcpy(&s, native, sizeof(s));
        slot->set_ptr(s);
        return;
      }
      case TypeKind::kSequence: {
        SeqRep rep;
        std::memcpy(&rep, native, sizeof(rep));
        slot->set_ptr(rep.buffer);
        slot->length = rep.length;
        return;
      }
      case TypeKind::kArray:
      case TypeKind::kStruct:
      case TypeKind::kUnion:
        slot->set_ptr(native);
        return;
      default:
        slot->scalar = LoadScalar(t, native);
        return;
    }
  }

  // Whether the value in `slot` equals the native value at `native`.
  bool SlotEquals(const ArgValue& slot, const void* native) const {
    const Type* t = t_->Resolve();
    std::vector<uint8_t> value(t->NativeSize());
    switch (t->kind()) {
      case TypeKind::kString: {
        const void* s = slot.ptr();
        std::memcpy(value.data(), &s, sizeof(s));
        break;
      }
      case TypeKind::kSequence: {
        const SeqRep rep{slot.length, slot.length, slot.ptr()};
        std::memcpy(value.data(), &rep, sizeof(rep));
        break;
      }
      case TypeKind::kArray:
      case TypeKind::kStruct:
      case TypeKind::kUnion:
        return ValueEquals(t, native, slot.ptr());
      default:
        StoreScalar(t, value.data(), slot.scalar);
        break;
    }
    return ValueEquals(t, native, value.data());
  }

 private:
  std::unique_ptr<InterfaceFile> idl_;
  PresentationSet client_pres_;
  PresentationSet server_pres_;
  std::unique_ptr<MarshalProgram> client_;
  std::unique_ptr<MarshalProgram> server_;
  const Type* t_ = nullptr;
  bool generated_ = false;
};

// Restores the global dispatch switch no matter how the test exits.
struct SpecSwitchGuard {
  bool saved = MarshalSpecializationEnabled();
  ~SpecSwitchGuard() { SetMarshalSpecializationEnabled(saved); }
};

// The executors `op` runs on: false for the reference executor, true for
// generated code where the loop-shapes unit serves it.
std::vector<bool> Executors(const OneValueOp& op) {
  if (op.generated()) {
    return {false, true};
  }
  return {false};
}

class ValueRoundTrip : public ::testing::TestWithParam<const char*> {};

// Each parameter is an IDL snippet defining type `t` used by interface I.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ValueRoundTrip,
    ::testing::Values(
        "typedef unsigned long t;",
        "typedef string t;",
        "typedef string<16> t;",
        "typedef sequence<octet> t;",
        "typedef sequence<octet, 64> t;",
        "typedef sequence<unsigned long> t;",
        "typedef sequence<string> t;",
        "typedef double t[4];",
        "typedef octet t[8];",
        "struct inner { unsigned long a; string s; };\n"
        "typedef inner t;",
        "struct inner { unsigned long a; string s; };\n"
        "typedef sequence<inner> t;",
        "struct inner { unsigned long a; string s; };\n"
        "struct outer { inner i; sequence<octet> body; double w; };\n"
        "typedef outer t;",
        "enum e { A = 0, B = 3, C = 7 };\n"
        "typedef e t;",
        "enum e { OK = 0, FAIL = 1 };\n"
        "struct payload { unsigned long n; sequence<octet> d; };\n"
        "union u switch (e) { case 0: payload p; default: long err; };\n"
        "typedef u t;"));

// The client's request stream, then the server's, in XDR and in the native
// format, on each executor: the server ends up with the value the client
// sent, reads every byte, and its release frees all it allocated.
TEST_P(ValueRoundTrip, XdrAndNativeAgreeWithOriginal) {
  OneValueOp op(GetParam());
  ASSERT_TRUE(op.ok());
  SpecSwitchGuard guard;
  Rng rng(20260707);
  Arena arena("values");
  for (int iter = 0; iter < 50; ++iter) {
    void* original = RandomNativeValue(&rng, &arena, op.t());
    for (bool generated : Executors(op)) {
      SetMarshalSpecializationEnabled(generated);
      SCOPED_TRACE(generated ? "generated" : "reference executor");
      for (bool xdr : {true, false}) {
        SCOPED_TRACE(xdr ? "XDR" : "native");
        XdrWriter xdr_writer;
        NativeWriter native_writer;
        WireWriter* w = xdr ? static_cast<WireWriter*>(&xdr_writer)
                            : &native_writer;
        ArgVec args(op.client().slot_count());
        op.ToSlot(original, &args[0]);
        TraceSession session;
        ASSERT_TRUE(op.client().MarshalRequest(args, w).ok());
        XdrReader xdr_reader(w->span());
        NativeReader native_reader(w->span());
        WireReader* r = xdr ? static_cast<WireReader*>(&xdr_reader)
                            : &native_reader;
        const size_t live = arena.live_blocks();
        ArgVec out(op.server().slot_count());
        Status st = op.server().UnmarshalRequest(r, &arena, &out);
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(r->remaining(), 0u);
        EXPECT_TRUE(op.SlotEquals(out[0], original)) << "iter " << iter;
        op.server().ReleaseRequest(&arena, &out);
        EXPECT_EQ(arena.live_blocks(), live);
        EXPECT_EQ(session.Report().counter(TraceCounter::kMarshalSpecHits),
                  generated ? 2u : 0u);
      }
    }
  }
}

TEST_P(ValueRoundTrip, CopyValueProducesEqualIndependentValue) {
  std::string src = std::string(GetParam()) +
                    "\ninterface I { void f(in t x); };";
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(src, "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* t = idl->types.FindNamed("t");

  Rng rng(99);
  Arena arena("values");
  for (int iter = 0; iter < 20; ++iter) {
    void* original = RandomNativeValue(&rng, &arena, t);
    void* copy = arena.AllocateBlock(t->NativeSize());
    std::memset(copy, 0, t->NativeSize());
    ASSERT_TRUE(CopyValue(&arena, t, original, copy).ok());
    EXPECT_TRUE(ValueEquals(t, original, copy));
  }
}

// Every strict prefix of a request fails cleanly on the server, on each
// executor, and its release leaves no block live.
TEST_P(ValueRoundTrip, TruncatedWireDataRejected) {
  OneValueOp op(GetParam());
  ASSERT_TRUE(op.ok());
  SpecSwitchGuard guard;
  Rng rng(7);
  Arena values("values");
  void* original = RandomNativeValue(&rng, &values, op.t());
  ArgVec args(op.client().slot_count());
  op.ToSlot(original, &args[0]);
  XdrWriter w;
  ASSERT_TRUE(op.client().MarshalRequest(args, &w).ok());
  if (w.size() == 0) {
    return;  // nothing to truncate
  }
  for (bool generated : Executors(op)) {
    SetMarshalSpecializationEnabled(generated);
    for (size_t cut = 1; cut <= w.size(); cut += 4) {
      Arena arena("server");
      XdrReader r(w.span().subspan(0, w.size() - cut));
      ArgVec out(op.server().slot_count());
      Status st = op.server().UnmarshalRequest(&r, &arena, &out);
      EXPECT_FALSE(st.ok()) << "cut " << cut;
      op.server().ReleaseRequest(&arena, &out);
      EXPECT_EQ(arena.live_blocks(), 0u) << "cut " << cut;
    }
  }
}

TEST(ValueTest, StringBoundEnforcedOnMarshal) {
  OneValueOp op("typedef string<4> t;");
  ASSERT_TRUE(op.ok());
  ArgVec args(op.client().slot_count());
  args[0].set_ptr("abcdef");
  XdrWriter w;
  Status st = op.client().MarshalRequest(args, &w);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "string length 6 exceeds bound 4");
}

TEST(ValueTest, SequenceBoundEnforcedOnUnmarshal) {
  OneValueOp op("typedef sequence<octet, 4> t;");
  ASSERT_TRUE(op.ok());
  // Hand-craft a wire image claiming 100 elements.
  XdrWriter w;
  w.PutU32(100);
  uint8_t junk[100] = {};
  w.PutBytes(junk, 100);
  XdrReader r(w.span());
  Arena arena("a");
  ArgVec out(op.server().slot_count());
  Status st = op.server().UnmarshalRequest(&r, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "wire sequence length 100 exceeds bound 4");
}

TEST(ValueTest, SequenceCountBeyondWireRejected) {
  // An 8-byte wire image whose count claims 2^32-1 elements, bare and as a
  // struct field: each non-byte element takes at least one wire byte, so
  // the count must not size an allocation (16 GiB of longs).
  for (const char* shape : {"typedef sequence<long> t;",
                            "typedef sequence<string> t;",
                            "struct t { sequence<long> values; };"}) {
    OneValueOp op(shape);
    ASSERT_TRUE(op.ok()) << shape;
    XdrWriter w;
    w.PutU32(0xFFFFFFFF);
    w.PutU32(7);
    XdrReader r(w.span());
    Arena arena("a");
    ArgVec out(op.server().slot_count());
    Status st = op.server().UnmarshalRequest(&r, &arena, &out);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << shape;
    EXPECT_EQ(st.message(),
              "wire sequence length 4294967295 exceeds the 4 bytes left")
        << shape;
    // At most the struct's own block.
    EXPECT_LE(arena.bytes_allocated(), 1024u) << shape;
    op.server().ReleaseRequest(&arena, &out);
    EXPECT_EQ(arena.live_blocks(), 0u) << shape;
  }
}

TEST(ValueTest, TruncatedSequenceFreesTheElementsRead) {
  // The third of three names is cut short: the sequence's length is set
  // before any name is read, so the release frees its buffer and the two
  // names already read.
  OneValueOp op("typedef sequence<string> t;");
  ASSERT_TRUE(op.ok());
  XdrWriter w;
  w.PutU32(3);
  for (const char* name : {"one", "two"}) {
    w.PutU32(3);
    w.PutBytes(name, 3);
  }
  w.PutU32(5);
  XdrReader r(w.span());
  Arena arena("a");
  ArgVec out(op.server().slot_count());
  EXPECT_EQ(op.server().UnmarshalRequest(&r, &arena, &out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(out[0].length, 3u);
  EXPECT_EQ(arena.live_blocks(), 3u);
  op.server().ReleaseRequest(&arena, &out);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(ValueTest, UnknownUnionDiscriminantRejected) {
  OneValueOp op(
      "enum e { A = 0, B = 1 };\n"
      "union t switch (e) { case 0: long x; case 1: long y; };");
  ASSERT_TRUE(op.ok());
  XdrWriter w;
  w.PutU32(42);  // matches no arm, no default
  XdrReader r(w.span());
  Arena arena("a");
  ArgVec out(op.server().slot_count());
  Status st = op.server().UnmarshalRequest(&r, &arena, &out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.message(), "wire union discriminant 42 matches no arm");
  op.server().ReleaseRequest(&arena, &out);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(ValueTest, FreeValueReturnsAllBlocks) {
  OneValueOp op(
      "struct inner { string s; sequence<octet> d; };\n"
      "typedef sequence<inner> t;");
  ASSERT_TRUE(op.ok());
  Rng rng(5);
  Arena source("src");
  void* original = RandomNativeValue(&rng, &source, op.t());
  ArgVec args(op.client().slot_count());
  op.ToSlot(original, &args[0]);
  XdrWriter w;
  ASSERT_TRUE(op.client().MarshalRequest(args, &w).ok());

  Arena sink("dst");
  ArgVec out(op.server().slot_count());
  XdrReader r(w.span());
  ASSERT_TRUE(op.server().UnmarshalRequest(&r, &sink, &out).ok());
  ASSERT_TRUE(op.SlotEquals(out[0], original));
  SeqRep rep{out[0].length, out[0].length, out[0].ptr()};
  FreeValue(&sink, op.t(), &rep);
  EXPECT_EQ(sink.live_blocks(), 0u);  // refcount conservation
}

TEST(ValueTest, FreeValueSkipsValuesThatHoldNoPointer) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(R"(
    struct flat { long a; octet b[8]; double c; long d[3]; };
    struct holder { long a; sequence<octet> data; };
    union either switch (long) { case 1: flat f; case 2: holder h; };
    interface I { void f(in flat x, in holder y, in either z); };
  )", "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* flat = idl->types.FindNamed("flat");
  const Type* holder = idl->types.FindNamed("holder");
  EXPECT_FALSE(flat->HoldsPointers());
  EXPECT_TRUE(holder->HoldsPointers());
  EXPECT_TRUE(idl->types.FindNamed("either")->HoldsPointers());

  // A struct of scalars frees nothing, whatever its bytes look like.
  Arena arena("a");
  std::vector<uint8_t> bits(flat->NativeSize(), 0xA5);
  FreeValue(&arena, flat, bits.data());
  EXPECT_EQ(arena.block_frees(), 0u);

  // A struct holding a sequence still frees its buffer.
  std::vector<uint8_t> value(holder->NativeSize());
  SeqRep rep{4, 4, arena.AllocateBlock(4)};
  std::memcpy(value.data() + NativeFieldOffset(holder, 1), &rep,
              sizeof(rep));
  FreeValue(&arena, holder, value.data());
  EXPECT_EQ(arena.block_frees(), 1u);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(ValueTest, XdrMatchesHandEncodedStruct) {
  // Golden test pinning the full XDR encoding of a small struct.
  OneValueOp op("struct t { unsigned long a; string name; };");
  ASSERT_TRUE(op.ok());

  struct Native {
    uint32_t a;
    uint32_t pad;
    const char* name;
  } value = {0x11223344, 0, "hey"};
  static_assert(sizeof(Native) == 16);

  ArgVec args(op.client().slot_count());
  op.ToSlot(&value, &args[0]);
  XdrWriter w;
  ASSERT_TRUE(op.client().MarshalRequest(args, &w).ok());
  const uint8_t expected[] = {
      0x11, 0x22, 0x33, 0x44,  // a
      0x00, 0x00, 0x00, 0x03,  // strlen("hey")
      'h',  'e',  'y',  0x00,  // bytes + pad
  };
  ASSERT_EQ(w.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(w.span().data(), expected, sizeof(expected)), 0);
}

}  // namespace
}  // namespace flexrpc
