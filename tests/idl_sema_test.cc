// Unit tests for semantic analysis: inheritance flattening, duplicate
// detection, recursive-type rejection, and the bounds on a type's nesting,
// native size and node count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/engine.h"
#include "src/marshal/xdr.h"
#include "src/pdl/apply.h"
#include "src/support/strings.h"

namespace flexrpc {
namespace {

std::unique_ptr<InterfaceFile> ParseAndAnalyze(std::string_view src,
                                               DiagnosticSink* diags) {
  auto file = ParseCorbaIdl(src, "test.idl", diags);
  if (file == nullptr) {
    return nullptr;
  }
  if (!AnalyzeInterfaceFile(file.get(), diags)) {
    return nullptr;
  }
  return file;
}

TEST(SemaTest, CleanFilePasses) {
  DiagnosticSink diags;
  auto file = ParseAndAnalyze(R"(
    interface I { void f(in long a, out long b); };
  )", &diags);
  EXPECT_NE(file, nullptr) << diags.ToString();
}

TEST(SemaTest, InheritanceIsFlattened) {
  DiagnosticSink diags;
  auto file = ParseAndAnalyze(R"(
    interface A { void fa(); };
    interface B : A { void fb(); };
  )", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  const InterfaceDecl* b = file->FindInterface("B");
  ASSERT_EQ(b->ops.size(), 2u);
  EXPECT_EQ(b->ops[0].name, "fa");
  EXPECT_EQ(b->ops[1].name, "fb");
  EXPECT_EQ(b->ops[0].opnum, 0u);
  EXPECT_EQ(b->ops[1].opnum, 1u);
  EXPECT_TRUE(b->bases.empty());  // consumed by flattening
}

TEST(SemaTest, DiamondInheritanceContributesOnce) {
  DiagnosticSink diags;
  auto file = ParseAndAnalyze(R"(
    interface Root { void r(); };
    interface L : Root { void l(); };
    interface R : Root { void rr(); };
    interface D : L, R { void d(); };
  )", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  const InterfaceDecl* d = file->FindInterface("D");
  // r, l, rr, d — Root::r() exactly once.
  ASSERT_EQ(d->ops.size(), 4u);
  int count_r = 0;
  for (const auto& op : d->ops) {
    if (op.name == "r") {
      ++count_r;
    }
  }
  EXPECT_EQ(count_r, 1);
}

TEST(SemaTest, UnknownBaseRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(ParseAndAnalyze("interface B : Missing { void f(); };", &diags),
            nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SemaTest, SelfInheritanceRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(ParseAndAnalyze("interface A : A { void f(); };", &diags),
            nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SemaTest, DuplicateOperationRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(ParseAndAnalyze(R"(
    interface I { void f(); void f(in long x); };
  )", &diags), nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SemaTest, InheritedNameCollisionRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(ParseAndAnalyze(R"(
    interface A { void f(); };
    interface B : A { void f(); };
  )", &diags), nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SemaTest, DuplicateParameterRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(ParseAndAnalyze("interface I { void f(in long x, in long x); };",
                            &diags),
            nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SemaTest, RecursiveStructRejected) {
  DiagnosticSink diags;
  // 'struct node' contains itself via a sequence? A sequence introduces
  // indirection but our by-value rule still flags direct self-containment.
  EXPECT_EQ(ParseAndAnalyze(R"(
    struct a { long x; b inner; };
    struct b { a back; };
    interface I { void f(in a v); };
  )", &diags), nullptr);  // 'b' unknown when 'a' is parsed
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SemaTest, MutuallyRecursiveStructsRejected) {
  DiagnosticSink diags;
  auto file = ParseCorbaIdl(R"(
    struct a { long x; };
    interface I { void f(in a v); };
  )", "test.idl", &diags);
  ASSERT_NE(file, nullptr);
  // Manufacture the recursion directly in the type table (the grammar makes
  // it hard to spell): a.self = a.
  Type* a = const_cast<Type*>(file->types.FindNamed("a"));
  file->types.AddField(a, "self", a);
  EXPECT_FALSE(AnalyzeInterfaceFile(file.get(), &diags));
  EXPECT_TRUE(diags.HasErrors());
}

// Each struct holds two of the one before it, so the type graph is a DAG
// of 60 levels with 2^60 paths. Sema checks each type once, and refuses
// the first one past kMaxTypeNodes at once, in both dialects, since every
// tree walk after sema would visit all 2^61 - 1 nodes.
TEST(SemaTest, SharedSubtypesAreCheckedOnce) {
  std::string corba = "struct s0 { long a; long b; };\n";
  std::string sun = "struct s0 { int a; int b; };\n";
  for (int i = 1; i < 60; ++i) {
    corba += StrFormat("struct s%d { s%d a; s%d b; };\n", i, i - 1, i - 1);
    sun += StrFormat("struct s%d { s%d a; s%d b; };\n", i, i - 1, i - 1);
  }
  corba += "interface I { void f(in s59 x); };";
  sun += "program P { version V { void F(s59) = 1; } = 1; } = 9;";
  for (bool sunrpc : {false, true}) {
    SCOPED_TRACE(sunrpc ? "sun" : "corba");
    DiagnosticSink diags;
    auto file = sunrpc ? ParseSunRpc(sun, "test.x", &diags)
                       : ParseCorbaIdl(corba, "test.idl", &diags);
    ASSERT_NE(file, nullptr) << diags.ToString();
    EXPECT_FALSE(AnalyzeInterfaceFile(file.get(), &diags));
    // s11 is the first level past the limit: 2^13 - 1 nodes.
    EXPECT_NE(diags.ToString().find(
                  "error: type 'struct s11' expands to more than 4096 nodes"),
              std::string::npos)
        << diags.ToString();
    EXPECT_EQ(diags.error_count(), 1) << diags.ToString();
  }

  // Ten levels (2^12 - 1 nodes) stay within the limit.
  std::string ten = "struct s0 { long a; long b; };\n";
  for (int i = 1; i < 10; ++i) {
    ten += StrFormat("struct s%d { s%d a; s%d b; };\n", i, i - 1, i - 1);
  }
  DiagnosticSink diags;
  EXPECT_NE(ParseAndAnalyze(ten + "interface I { void f(in s9 x); };",
                            &diags),
            nullptr)
      << diags.ToString();
}

// Four nested 65536-element arrays of long take 2^66 bytes, which wraps
// Type::NativeSize() to 0. Were sema to accept the type, the server's
// request stream would allocate a block for it and write a short
// request's elements past that block, over the arena's next one; sema
// refuses the first array past kMaxNativeSize instead.
TEST(SemaTest, TypeLargerThanAnArenaIsRefused) {
  constexpr char kIdl[] =
      "typedef long a0[65536]; typedef a0 a1[65536]; "
      "typedef a1 a2[65536]; typedef a2 a3[65536];\n"
      "interface I { void f(in a3 x); };";
  DiagnosticSink diags;
  auto file = ParseCorbaIdl(kIdl, "test.idl", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  if (AnalyzeInterfaceFile(file.get(), &diags)) {
    // What an accepted type would do: the request's block takes the place
    // of a freed one, and its elements run over the block after it.
    PresentationSet server;
    ASSERT_TRUE(ApplyPdl(*file, Side::kServer, nullptr, &server, &diags));
    MarshalProgram prog = MarshalProgram::Build(
        file->interfaces[0].ops[0], *server.Find("I")->FindOp("f"));
    Arena arena("server");
    void* freed = arena.AllocateBlock(32);
    void* next = arena.AllocateBlock(32);
    arena.FreeBlock(freed);
    const std::vector<uint8_t> request(256, 0x41);
    XdrReader r{ByteSpan(request)};
    ArgVec args(prog.slot_count());
    EXPECT_FALSE(prog.UnmarshalRequest(&r, &arena, &args).ok());
    arena.FreeBlock(next);
    ADD_FAILURE() << "sema accepted a type of 2^66 bytes";
    return;
  }
  EXPECT_NE(diags.ToString().find(
                "test.idl:2:22: error: type 'a0[65536]' is larger than "
                "33554432 bytes in memory"),
            std::string::npos)
      << diags.ToString();

  // The limit itself passes: 2^23 longs, 32 MiB.
  DiagnosticSink ok_diags;
  EXPECT_NE(ParseAndAnalyze("typedef long big[8388608];\n"
                            "interface I { void f(in big x); };",
                            &ok_diags),
            nullptr)
      << ok_diags.ToString();
}

// Sema walks only what operations reach: a 100 000-level typedef chain of
// sequences that no operation uses costs nothing and is accepted.
TEST(SemaTest, UnreachedTypesAreNotWalked) {
  std::string idl = "typedef sequence<long> c1;\n";
  for (int i = 2; i <= 100000; ++i) {
    idl += StrFormat("typedef sequence<c%d> c%d;\n", i - 1, i);
  }
  DiagnosticSink diags;
  EXPECT_NE(ParseAndAnalyze(idl + "interface I { void f(in long x); };",
                            &diags),
            nullptr)
      << diags.ToString();
}

// A typedef chain nests as deep as it is long, and no parser limit sees
// it: sema refuses one level past kMaxSequenceNesting, at the use site, in
// both dialects, and accepts the limit itself.
TEST(SemaTest, NestingPastTheLimitIsRefusedInBothDialects) {
  auto corba = [](int levels) {
    std::string idl = "typedef sequence<long> c1;\n";
    for (int i = 2; i <= levels; ++i) {
      idl += StrFormat("typedef sequence<c%d> c%d;\n", i - 1, i);
    }
    return idl + StrFormat("interface I {\n void f(in c%d x); };", levels);
  };
  auto sun = [](int levels) {
    std::string idl = "typedef int c1<>;\n";
    for (int i = 2; i <= levels; ++i) {
      idl += StrFormat("typedef c%d c%d<>;\n", i - 1, i);
    }
    return idl + StrFormat(
                     "program P { version V {\n void F(c%d) = 1; } = 1; } "
                     "= 9;",
                     levels);
  };
  for (bool sunrpc : {false, true}) {
    for (int levels : {kMaxSequenceNesting, kMaxSequenceNesting + 1}) {
      SCOPED_TRACE(StrFormat("%s, %d levels", sunrpc ? "sun" : "corba",
                             levels));
      const std::string idl = sunrpc ? sun(levels) : corba(levels);
      DiagnosticSink diags;
      auto file = sunrpc ? ParseSunRpc(idl, "test.x", &diags)
                         : ParseCorbaIdl(idl, "test.idl", &diags);
      ASSERT_NE(file, nullptr) << diags.ToString();
      const bool ok = AnalyzeInterfaceFile(file.get(), &diags);
      if (levels == kMaxSequenceNesting) {
        EXPECT_TRUE(ok) << diags.ToString();
        continue;
      }
      EXPECT_FALSE(ok);
      const std::string expected = StrFormat(
          "%s:%d:%d: error: type 'sequence<c%d>' nests deeper than 64 levels",
          sunrpc ? "test.x" : "test.idl", levels + 2, sunrpc ? 2 : 9,
          levels - 1);
      EXPECT_NE(diags.ToString().find(expected), std::string::npos)
          << diags.ToString();
    }
  }

  // The deepest `sequence<` the CORBA parser accepts passes sema too.
  std::string nested = "interface I { void f(in ";
  for (int i = 0; i < kMaxSequenceNesting; ++i) {
    nested += "sequence<";
  }
  nested += "long";
  nested.append(static_cast<size_t>(kMaxSequenceNesting), '>');
  DiagnosticSink diags;
  EXPECT_NE(ParseAndAnalyze(nested + " x); };", &diags), nullptr)
      << diags.ToString();
}

TEST(SemaTest, DuplicateInterfaceRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(ParseAndAnalyze(R"(
    interface I { void f(); };
    interface I { void g(); };
  )", &diags), nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

}  // namespace
}  // namespace flexrpc
