// Tests for the wire formats and recursive value marshaling, including
// round-trip property tests over random values and XDR golden vectors.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/marshal/layout.h"
#include "src/marshal/native.h"
#include "src/marshal/value.h"
#include "src/marshal/xdr.h"
#include "src/support/rng.h"
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

TEST_P(ValueRoundTrip, XdrAndNativeAgreeWithOriginal) {
  std::string src = std::string(GetParam()) +
                    "\ninterface I { void f(in t x); };";
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(src, "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  ASSERT_TRUE(AnalyzeInterfaceFile(idl.get(), &diags)) << diags.ToString();
  const Type* t = idl->types.FindNamed("t");
  ASSERT_NE(t, nullptr);

  Rng rng(20260707);
  Arena arena("values");
  for (int iter = 0; iter < 50; ++iter) {
    void* original = RandomNativeValue(&rng, &arena, t);

    // XDR round trip.
    {
      XdrWriter w;
      ASSERT_TRUE(MarshalValue(&w, t, original).ok());
      XdrReader r(w.span());
      void* decoded = arena.AllocateBlock(t->NativeSize());
      std::memset(decoded, 0, t->NativeSize());
      Status st = UnmarshalValue(&r, t, decoded, &arena);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_TRUE(ValueEquals(t, original, decoded)) << "XDR iter " << iter;
    }
    // Native round trip.
    {
      NativeWriter w;
      ASSERT_TRUE(MarshalValue(&w, t, original).ok());
      NativeReader r(w.span());
      void* decoded = arena.AllocateBlock(t->NativeSize());
      std::memset(decoded, 0, t->NativeSize());
      Status st = UnmarshalValue(&r, t, decoded, &arena);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(ValueEquals(t, original, decoded))
          << "native iter " << iter;
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

TEST_P(ValueRoundTrip, TruncatedWireDataRejected) {
  std::string src = std::string(GetParam()) +
                    "\ninterface I { void f(in t x); };";
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(src, "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* t = idl->types.FindNamed("t");

  Rng rng(7);
  Arena arena("values");
  void* original = RandomNativeValue(&rng, &arena, t);
  XdrWriter w;
  ASSERT_TRUE(MarshalValue(&w, t, original).ok());
  if (w.size() == 0) {
    return;  // nothing to truncate
  }
  // Every strict prefix must fail cleanly (no crash, DATA_LOSS status).
  for (size_t cut = 1; cut <= w.size(); cut += 4) {
    XdrReader r(w.span().subspan(0, w.size() - cut));
    void* decoded = arena.AllocateBlock(t->NativeSize());
    std::memset(decoded, 0, t->NativeSize());
    Status st = UnmarshalValue(&r, t, decoded, &arena);
    EXPECT_FALSE(st.ok()) << "cut " << cut;
  }
}

TEST(ValueTest, StringBoundEnforcedOnMarshal) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(
      "typedef string<4> t; interface I { void f(in t x); };", "t.idl",
      &diags);
  const Type* t = idl->types.FindNamed("t");
  const char* too_long = "abcdef";
  XdrWriter w;
  Status st = MarshalValue(&w, t, &too_long);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ValueTest, SequenceBoundEnforcedOnUnmarshal) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(
      "typedef sequence<octet, 4> t; interface I { void f(in t x); };",
      "t.idl", &diags);
  const Type* t = idl->types.FindNamed("t");
  // Hand-craft a wire image claiming 100 elements.
  XdrWriter w;
  w.PutU32(100);
  uint8_t junk[100] = {};
  w.PutBytes(junk, 100);
  XdrReader r(w.span());
  Arena arena("a");
  SeqRep rep;
  Status st = UnmarshalValue(&r, t, &rep, &arena);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(ValueTest, SequenceCountBeyondWireRejected) {
  // An 8-byte wire image whose count claims 2^32-1 elements, bare and as a
  // struct field: each non-byte element takes at least one wire byte, so
  // the count must not size an allocation (16 GiB of longs).
  for (const char* shape : {"typedef sequence<long> t;",
                            "typedef sequence<string> t;",
                            "struct t { sequence<long> values; };"}) {
    DiagnosticSink diags;
    auto idl = ParseCorbaIdl(
        std::string(shape) + "\ninterface I { void f(in t x); };", "t.idl",
        &diags);
    ASSERT_NE(idl, nullptr) << diags.ToString();
    const Type* t = idl->types.FindNamed("t");
    XdrWriter w;
    w.PutU32(0xFFFFFFFF);
    w.PutU32(7);
    XdrReader r(w.span());
    Arena arena("a");
    std::vector<uint8_t> dst(t->NativeSize());
    EXPECT_EQ(UnmarshalValue(&r, t, dst.data(), &arena).code(),
              StatusCode::kDataLoss)
        << shape;
    EXPECT_EQ(arena.live_blocks(), 0u) << shape;
  }
}

TEST(ValueTest, TruncatedSequenceFreesTheElementsRead) {
  // The third of three names is cut short: the sequence's buffer and the
  // two names already read go back to the arena with the error.
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(
      "typedef sequence<string> t;\ninterface I { void f(in t x); };",
      "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* t = idl->types.FindNamed("t");
  XdrWriter w;
  w.PutU32(3);
  for (const char* name : {"one", "two"}) {
    w.PutU32(3);
    w.PutBytes(name, 3);
  }
  w.PutU32(5);
  XdrReader r(w.span());
  Arena arena("a");
  std::vector<uint8_t> dst(t->NativeSize());
  EXPECT_EQ(UnmarshalValue(&r, t, dst.data(), &arena).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(ValueTest, UnknownUnionDiscriminantRejected) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(R"(
    enum e { A = 0, B = 1 };
    union u switch (e) { case 0: long x; case 1: long y; };
    interface I { void f(in u v); };
  )", "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* u = idl->types.FindNamed("u");
  XdrWriter w;
  w.PutU32(42);  // matches no arm, no default
  XdrReader r(w.span());
  Arena arena("a");
  void* dst = arena.AllocateBlock(u->NativeSize());
  EXPECT_EQ(UnmarshalValue(&r, u, dst, &arena).code(),
            StatusCode::kDataLoss);
}

TEST(ValueTest, FreeValueReturnsAllBlocks) {
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(R"(
    struct inner { string s; sequence<octet> d; };
    typedef sequence<inner> t;
    interface I { void f(in t x); };
  )", "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* t = idl->types.FindNamed("t");

  Rng rng(5);
  Arena source("src");
  void* original = RandomNativeValue(&rng, &source, t);
  XdrWriter w;
  ASSERT_TRUE(MarshalValue(&w, t, original).ok());

  Arena sink("dst");
  void* decoded = sink.AllocateBlock(t->NativeSize());
  std::memset(decoded, 0, t->NativeSize());
  XdrReader r(w.span());
  ASSERT_TRUE(UnmarshalValue(&r, t, decoded, &sink).ok());
  FreeValue(&sink, t, decoded);
  sink.FreeBlock(decoded);
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
  DiagnosticSink diags;
  auto idl = ParseCorbaIdl(R"(
    struct s { unsigned long a; string name; };
    interface I { void f(in s x); };
  )", "t.idl", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  const Type* s = idl->types.FindNamed("s");

  struct Native {
    uint32_t a;
    uint32_t pad;
    const char* name;
  } value = {0x11223344, 0, "hey"};
  static_assert(sizeof(Native) == 16);

  XdrWriter w;
  ASSERT_TRUE(MarshalValue(&w, s, &value).ok());
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
