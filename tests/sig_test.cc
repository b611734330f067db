// Tests for wire signatures: structural erasure, canonical encoding,
// compatibility checking, and the central architecture property that
// presentations cannot change the network contract.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/pdl/apply.h"
#include "src/sig/signature.h"

namespace flexrpc {
namespace {

std::unique_ptr<InterfaceFile> MustParse(std::string_view src) {
  DiagnosticSink diags;
  auto file = ParseCorbaIdl(src, "test.idl", &diags);
  EXPECT_NE(file, nullptr) << diags.ToString();
  EXPECT_TRUE(AnalyzeInterfaceFile(file.get(), &diags)) << diags.ToString();
  return file;
}

constexpr char kFileIoIdl[] = R"(
  interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
  };
)";

TEST(SignatureTest, NamesAreErased) {
  // Two structurally identical interfaces with different names and
  // parameter names produce identical op signatures.
  auto a = MustParse("interface A { void f(in string x, out long y); };");
  auto b = MustParse("interface B { void g(in string p, out long q); };");
  InterfaceSignature sa = BuildSignature(a->interfaces[0]);
  InterfaceSignature sb = BuildSignature(b->interfaces[0]);
  ASSERT_EQ(sa.ops.size(), 1u);
  ASSERT_EQ(sb.ops.size(), 1u);
  EXPECT_TRUE(sa.ops[0] == sb.ops[0]);
}

TEST(SignatureTest, AliasesResolved) {
  auto a = MustParse(R"(
    typedef sequence<octet, 64> buf;
    interface A { void f(in buf b); };
  )");
  auto b = MustParse("interface B { void f(in sequence<octet, 64> b); };");
  EXPECT_TRUE(BuildSignature(a->interfaces[0]).ops[0] ==
              BuildSignature(b->interfaces[0]).ops[0]);
}

TEST(SignatureTest, EnumsLowerToU32) {
  auto a = MustParse(R"(
    enum color { RED = 0, BLUE = 1 };
    interface A { void f(in color c); };
  )");
  auto b = MustParse("interface B { void f(in unsigned long c); };");
  EXPECT_TRUE(BuildSignature(a->interfaces[0]).ops[0] ==
              BuildSignature(b->interfaces[0]).ops[0]);
}

TEST(SignatureTest, EncodeDecodeRoundTrip) {
  auto idl = MustParse(R"(
    struct fattr { unsigned long size; unsigned long mtime; };
    enum st { OK = 0, BAD = 1 };
    union res switch (st) { case 0: fattr ok; default: long err; };
    interface Fs {
      res stat(in string<255> path);
      void chmod(in string path, in unsigned long mode, out fattr attr);
      oneway void ping();
    };
  )");
  InterfaceSignature sig = BuildSignature(idl->interfaces[0]);
  ByteWriter w;
  EncodeSignature(sig, &w);
  ByteReader r(w.span());
  Result<InterfaceSignature> decoded = DecodeSignature(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ops.size(), sig.ops.size());
  for (size_t i = 0; i < sig.ops.size(); ++i) {
    EXPECT_TRUE(decoded->ops[i] == sig.ops[i]) << "op " << i;
  }
  // Deterministic: re-encoding the decoded form gives identical bytes.
  ByteWriter w2;
  EncodeSignature(*decoded, &w2);
  EXPECT_TRUE(std::ranges::equal(w.span(), w2.span()));
}

TEST(SignatureTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
  ByteReader r(ByteSpan(junk.data(), junk.size()));
  EXPECT_FALSE(DecodeSignature(&r).ok());
}

TEST(SignatureTest, DecodeRejectsTruncation) {
  auto idl = MustParse(kFileIoIdl);
  ByteWriter w;
  EncodeSignature(BuildSignature(idl->interfaces[0]), &w);
  for (size_t cut = 1; cut < w.size(); cut += 7) {
    ByteReader r(w.span().subspan(0, w.size() - cut));
    EXPECT_FALSE(DecodeSignature(&r).ok()) << "cut " << cut;
  }
}

TEST(SignatureTest, CompatibleWithSelf) {
  auto idl = MustParse(kFileIoIdl);
  InterfaceSignature sig = BuildSignature(idl->interfaces[0]);
  std::string why;
  EXPECT_TRUE(SignaturesCompatible(sig, sig, &why)) << why;
}

TEST(SignatureTest, ServerMayImplementMore) {
  auto client = MustParse("interface A { void f(in long x); };");
  auto server = MustParse(
      "interface A { void f(in long x); void g(out string s); };");
  InterfaceSignature cs = BuildSignature(client->interfaces[0]);
  InterfaceSignature ss = BuildSignature(server->interfaces[0]);
  EXPECT_TRUE(SignaturesCompatible(cs, ss));
  // ...but not the other way around.
  std::string why;
  EXPECT_FALSE(SignaturesCompatible(ss, cs, &why));
  EXPECT_NE(why.find("lacks operation"), std::string::npos);
}

TEST(SignatureTest, TypeMismatchDetected) {
  auto a = MustParse("interface A { void f(in long x); };");
  auto b = MustParse("interface A { void f(in string x); };");
  std::string why;
  EXPECT_FALSE(SignaturesCompatible(BuildSignature(a->interfaces[0]),
                                    BuildSignature(b->interfaces[0]), &why));
  EXPECT_NE(why.find("type mismatch"), std::string::npos);
}

TEST(SignatureTest, DirectionMismatchDetected) {
  auto a = MustParse("interface A { void f(in long x); };");
  auto b = MustParse("interface A { void f(out long x); };");
  std::string why;
  EXPECT_FALSE(SignaturesCompatible(BuildSignature(a->interfaces[0]),
                                    BuildSignature(b->interfaces[0]), &why));
  EXPECT_NE(why.find("direction"), std::string::npos);
}

TEST(SignatureTest, BoundMismatchDetected) {
  auto a = MustParse("interface A { void f(in sequence<octet, 16> x); };");
  auto b = MustParse("interface A { void f(in sequence<octet, 32> x); };");
  EXPECT_FALSE(SignaturesCompatible(BuildSignature(a->interfaces[0]),
                                    BuildSignature(b->interfaces[0])));
}

TEST(SignatureTest, ProgramVersionMismatchDetected) {
  auto idl = MustParse(kFileIoIdl);
  InterfaceSignature a = BuildSignature(idl->interfaces[0]);
  InterfaceSignature b = a;
  b.version_number = 99;
  std::string why;
  EXPECT_FALSE(SignaturesCompatible(a, b, &why));
}

TEST(SignatureTest, HashStableAndDiscriminating) {
  auto a = MustParse(kFileIoIdl);
  auto b = MustParse(kFileIoIdl);
  EXPECT_EQ(SignatureHash(BuildSignature(a->interfaces[0])),
            SignatureHash(BuildSignature(b->interfaces[0])));
  auto c = MustParse("interface FileIO { void write(in string data); };");
  EXPECT_NE(SignatureHash(BuildSignature(a->interfaces[0])),
            SignatureHash(BuildSignature(c->interfaces[0])));
}

// The architecture property the paper's design rests on: a PDL file cannot
// change the network contract, no matter what it declares.
TEST(SignatureTest, PresentationCannotChangeContract) {
  auto idl = MustParse(kFileIoIdl);
  InterfaceSignature baseline = BuildSignature(idl->interfaces[0]);

  const char* pdls[] = {
      "FileIO_read()[dealloc(never)];",
      "FileIO_write(char *[trashable] data);",
      "interface FileIO [leaky, unprotected];",
      "type opaque [special];",
      "FileIO_read(unsigned long count)[alloc(user)];",
  };
  for (const char* pdl_text : pdls) {
    PresentationSet set;
    DiagnosticSink diags;
    Side side = std::string_view(pdl_text).find("trashable") !=
                        std::string_view::npos
                    ? Side::kClient
                    : Side::kServer;
    // trashable is client-side; alloc(user) client; rest either.
    if (std::string_view(pdl_text).find("alloc(user)") !=
        std::string_view::npos) {
      side = Side::kClient;
    }
    ASSERT_TRUE(ApplyPdlText(*idl, side, pdl_text, "p.pdl", &set, &diags))
        << pdl_text << "\n"
        << diags.ToString();
    // The signature builder takes only the IDL: by construction the
    // presentation cannot reach it. Re-derive and compare hashes.
    InterfaceSignature after = BuildSignature(idl->interfaces[0]);
    EXPECT_EQ(SignatureHash(baseline), SignatureHash(after)) << pdl_text;
  }
}

}  // namespace
}  // namespace flexrpc
