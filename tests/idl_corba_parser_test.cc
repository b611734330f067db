// Unit tests for the CORBA IDL front-end, including the paper's own
// interface definitions (SysLog from the introduction, FileIO from §4.2).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/idl/corba_parser.h"

namespace flexrpc {
namespace {

std::unique_ptr<InterfaceFile> Parse(std::string_view src,
                                     DiagnosticSink* diags) {
  return ParseCorbaIdl(src, "test.idl", diags);
}

std::unique_ptr<InterfaceFile> ParseOk(std::string_view src) {
  DiagnosticSink diags;
  auto file = Parse(src, &diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.ToString();
  return file;
}

TEST(CorbaParserTest, PaperSysLogInterface) {
  auto file = ParseOk(R"(
    interface SysLog {
      void write_msg(in string msg);
    };
  )");
  ASSERT_NE(file, nullptr);
  const InterfaceDecl* itf = file->FindInterface("SysLog");
  ASSERT_NE(itf, nullptr);
  ASSERT_EQ(itf->ops.size(), 1u);
  const OperationDecl& op = itf->ops[0];
  EXPECT_EQ(op.name, "write_msg");
  EXPECT_EQ(op.result->kind(), TypeKind::kVoid);
  ASSERT_EQ(op.params.size(), 1u);
  EXPECT_EQ(op.params[0].dir, ParamDir::kIn);
  EXPECT_EQ(op.params[0].type->kind(), TypeKind::kString);
}

TEST(CorbaParserTest, PaperFileIoInterface) {
  auto file = ParseOk(R"(
    interface FileIO {
      sequence<octet> read(in unsigned long count);
      void write(in sequence<octet> data);
    };
  )");
  ASSERT_NE(file, nullptr);
  const InterfaceDecl* itf = file->FindInterface("FileIO");
  ASSERT_NE(itf, nullptr);
  ASSERT_EQ(itf->ops.size(), 2u);
  const OperationDecl& read = itf->ops[0];
  EXPECT_EQ(read.result->kind(), TypeKind::kSequence);
  EXPECT_EQ(read.result->element()->kind(), TypeKind::kOctet);
  EXPECT_EQ(read.params[0].type->kind(), TypeKind::kU32);
  const OperationDecl& write = itf->ops[1];
  EXPECT_EQ(write.result->kind(), TypeKind::kVoid);
  EXPECT_EQ(write.params[0].type->kind(), TypeKind::kSequence);
}

TEST(CorbaParserTest, AllPrimitiveTypes) {
  auto file = ParseOk(R"(
    interface P {
      void f(in boolean a, in octet b, in char c, in short d,
             in unsigned short e, in long g, in unsigned long h,
             in long long i, in unsigned long long j, in float k,
             in double l);
    };
  )");
  ASSERT_NE(file, nullptr);
  const auto& params = file->FindInterface("P")->ops[0].params;
  ASSERT_EQ(params.size(), 11u);
  EXPECT_EQ(params[0].type->kind(), TypeKind::kBool);
  EXPECT_EQ(params[1].type->kind(), TypeKind::kOctet);
  EXPECT_EQ(params[2].type->kind(), TypeKind::kChar);
  EXPECT_EQ(params[3].type->kind(), TypeKind::kI16);
  EXPECT_EQ(params[4].type->kind(), TypeKind::kU16);
  EXPECT_EQ(params[5].type->kind(), TypeKind::kI32);
  EXPECT_EQ(params[6].type->kind(), TypeKind::kU32);
  EXPECT_EQ(params[7].type->kind(), TypeKind::kI64);
  EXPECT_EQ(params[8].type->kind(), TypeKind::kU64);
  EXPECT_EQ(params[9].type->kind(), TypeKind::kF32);
  EXPECT_EQ(params[10].type->kind(), TypeKind::kF64);
}

TEST(CorbaParserTest, ParamDirections) {
  auto file = ParseOk(R"(
    interface D {
      void f(in long a, out long b, inout long c);
    };
  )");
  const auto& params = file->FindInterface("D")->ops[0].params;
  EXPECT_EQ(params[0].dir, ParamDir::kIn);
  EXPECT_EQ(params[1].dir, ParamDir::kOut);
  EXPECT_EQ(params[2].dir, ParamDir::kInOut);
}

TEST(CorbaParserTest, StructAndTypedef) {
  auto file = ParseOk(R"(
    struct fattr {
      unsigned long size;
      unsigned long mtime;
    };
    typedef sequence<octet, 8192> nfsdata;
    typedef long grid[4][3];
    interface I {
      void f(in fattr a, in nfsdata d, in grid g);
    };
  )");
  ASSERT_NE(file, nullptr);
  const Type* fattr = file->types.FindNamed("fattr");
  ASSERT_NE(fattr, nullptr);
  EXPECT_EQ(fattr->kind(), TypeKind::kStruct);
  ASSERT_EQ(fattr->fields().size(), 2u);
  EXPECT_EQ(fattr->fields()[0].name, "size");

  const Type* nfsdata = file->types.FindNamed("nfsdata");
  ASSERT_NE(nfsdata, nullptr);
  EXPECT_EQ(nfsdata->kind(), TypeKind::kAlias);
  EXPECT_EQ(nfsdata->Resolve()->kind(), TypeKind::kSequence);
  EXPECT_EQ(nfsdata->Resolve()->bound(), 8192u);

  const Type* grid = file->types.FindNamed("grid")->Resolve();
  ASSERT_EQ(grid->kind(), TypeKind::kArray);
  EXPECT_EQ(grid->bound(), 4u);  // outer dimension first
  EXPECT_EQ(grid->element()->bound(), 3u);
}

TEST(CorbaParserTest, EnumValues) {
  auto file = ParseOk(R"(
    enum nfsstat { NFS_OK = 0, NFSERR_PERM = 1, NFSERR_NOENT };
    interface I { void f(in nfsstat s); };
  )");
  const Type* e = file->types.FindNamed("nfsstat");
  ASSERT_EQ(e->members().size(), 3u);
  EXPECT_EQ(e->members()[2].value, 2u);  // implicit increment
}

TEST(CorbaParserTest, UnionArms) {
  auto file = ParseOk(R"(
    enum status { OK = 0, FAIL = 1 };
    union reply switch (status) {
      case 0: sequence<octet> data;
      default: long error;
    };
    interface I { void f(in reply r); };
  )");
  const Type* u = file->types.FindNamed("reply");
  ASSERT_EQ(u->arms().size(), 2u);
  EXPECT_FALSE(u->arms()[0].is_default);
  EXPECT_TRUE(u->arms()[1].is_default);
}

TEST(CorbaParserTest, ConstantsUsableAsBounds) {
  auto file = ParseOk(R"(
    const unsigned long MAX = 1024;
    typedef sequence<octet, MAX> buf;
    interface I { void f(in buf b); };
  )");
  EXPECT_EQ(file->types.FindNamed("buf")->Resolve()->bound(), 1024u);
  ASSERT_EQ(file->constants.size(), 1u);
  EXPECT_EQ(file->constants[0].value, 1024u);
}

TEST(CorbaParserTest, ConstExprArithmetic) {
  auto file = ParseOk(R"(
    const unsigned long A = 10;
    const unsigned long B = A + 5 - 2;
    interface I { void f(in string<B> s); };
  )");
  EXPECT_EQ(file->constants[1].value, 13u);
}

TEST(CorbaParserTest, ModuleWrapping) {
  auto file = ParseOk(R"(
    module pipes {
      interface FileIO { void write(in sequence<octet> data); };
    };
  )");
  EXPECT_EQ(file->module_name, "pipes");
  EXPECT_NE(file->FindInterface("FileIO"), nullptr);
}

TEST(CorbaParserTest, InterfaceInheritanceParsed) {
  auto file = ParseOk(R"(
    interface A { void fa(); };
    interface B : A { void fb(); };
  )");
  const InterfaceDecl* b = file->FindInterface("B");
  ASSERT_EQ(b->bases.size(), 1u);
  EXPECT_EQ(b->bases[0], "A");
}

TEST(CorbaParserTest, ObjRefParameter) {
  auto file = ParseOk(R"(
    interface Target { void poke(); };
    interface Sender { void send(in Target t); };
  )");
  const auto& p = file->FindInterface("Sender")->ops[0].params[0];
  EXPECT_EQ(p.type->kind(), TypeKind::kObjRef);
  EXPECT_EQ(p.type->name(), "Target");
}

TEST(CorbaParserTest, OnewayRejectsOutputs) {
  DiagnosticSink diags;
  auto file = Parse(R"(
    interface I { oneway void f(out long x); };
  )", &diags);
  EXPECT_EQ(file, nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(CorbaParserTest, UnknownTypeIsError) {
  DiagnosticSink diags;
  auto file = Parse("interface I { void f(in bogus x); };", &diags);
  EXPECT_EQ(file, nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

// The names inside one type must be unique (TypeTable refuses the second
// declaration for both front-ends): a repeated field or enum member would
// redeclare a C++ name in the generated header, and a repeated case label
// or default arm could never be selected.
TEST(CorbaParserTest, DuplicateNamesInsideATypeAreRefused) {
  const std::pair<const char*, const char*> cases[] = {
      {"struct s { long a; long a; };",
       "test.idl:1:25: error: duplicate field 'a' in struct s"},
      {"enum e { X, X };",
       "test.idl:1:13: error: duplicate member 'X' in enum e"},
      {"union u switch (long) { case 1: long a; case 1: long b; };",
       "test.idl:1:41: error: duplicate case label 1 in union u"},
      {"union u switch (long) { default: long a; default: long b; };",
       "test.idl:1:42: error: duplicate default arm in union u"},
  };
  for (const auto& [idl, message] : cases) {
    DiagnosticSink diags;
    EXPECT_EQ(Parse(idl, &diags), nullptr) << idl;
    EXPECT_NE(diags.ToString().find(message), std::string::npos)
        << diags.ToString();
  }
}

TEST(CorbaParserTest, DuplicateTypeIsError) {
  DiagnosticSink diags;
  auto file = Parse(R"(
    struct s { long a; };
    struct s { long b; };
    interface I { void f(in s x); };
  )", &diags);
  EXPECT_EQ(file, nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(CorbaParserTest, MissingSemicolonRecovers) {
  DiagnosticSink diags;
  Parse("interface I { void f() }", &diags);
  EXPECT_TRUE(diags.HasErrors());  // error, but no crash/hang
}

// The type parser recurses once per `sequence<` level, so nesting past
// kMaxSequenceNesting is a diagnostic instead of a stack overflow.
TEST(CorbaParserTest, SequenceNestingPastTheLimitIsRefused) {
  auto nested = [](int depth) {
    std::string idl = "interface I { void f(in ";
    for (int i = 0; i < depth; ++i) {
      idl += "sequence<";
    }
    idl += "long";
    idl.append(static_cast<size_t>(depth), '>');
    return idl + " x); };";
  };
  auto file = ParseOk(nested(kMaxSequenceNesting));
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->interfaces[0].ops[0].params[0].type->kind(),
            TypeKind::kSequence);
  for (int depth : {kMaxSequenceNesting + 1, 100000}) {
    DiagnosticSink diags;
    EXPECT_EQ(Parse(nested(depth), &diags), nullptr) << depth;
    EXPECT_NE(diags.ToString().find("sequences nest deeper than 64 levels"),
              std::string::npos)
        << depth;
  }
}

TEST(CorbaParserTest, SequenceOfStruct) {
  auto file = ParseOk(R"(
    struct entry { long id; string name; };
    interface Dir { void list(out sequence<entry> entries); };
  )");
  const Type* t = file->FindInterface("Dir")->ops[0].params[0].type;
  EXPECT_EQ(t->kind(), TypeKind::kSequence);
  EXPECT_EQ(t->element()->kind(), TypeKind::kStruct);
}

TEST(CorbaParserTest, BoundedString) {
  auto file = ParseOk(R"(
    interface I { void f(in string<64> s); };
  )");
  EXPECT_EQ(file->FindInterface("I")->ops[0].params[0].type->bound(), 64u);
}

}  // namespace
}  // namespace flexrpc
