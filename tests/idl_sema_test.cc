// Unit tests for semantic analysis: inheritance flattening, duplicate
// detection, recursive-type rejection, and the nesting bound.

#include <gtest/gtest.h>

#include <string>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
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
// of 60 levels with 2^60 paths: sema must check each type once.
TEST(SemaTest, SharedSubtypesAreCheckedOnce) {
  std::string idl = "struct s0 { long a; long b; };\n";
  for (int i = 1; i < 60; ++i) {
    idl += StrFormat("struct s%d { s%d a; s%d b; };\n", i, i - 1, i - 1);
  }
  idl += "interface I { void f(in s59 x); };";
  DiagnosticSink diags;
  EXPECT_NE(ParseAndAnalyze(idl, &diags), nullptr) << diags.ToString();
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
