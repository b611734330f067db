// Unit tests for the Sun RPC language front-end, centered on the NFSv2
// subset the Linux NFS client experiment (paper §4.1) uses.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/idl/sunrpc_parser.h"

namespace flexrpc {
namespace {

// NFSv2 subset mirroring the declarations used by the paper's Figure 1.
constexpr char kNfsIdl[] = R"(
const NFS_MAXDATA = 8192;
const NFS_FHSIZE = 32;

enum nfsstat {
  NFS_OK = 0,
  NFSERR_PERM = 1,
  NFSERR_NOENT = 2,
  NFSERR_IO = 5
};

struct nfs_fh {
  opaque data[NFS_FHSIZE];
};

struct fattr {
  unsigned type;
  unsigned mode;
  unsigned nlink;
  unsigned uid;
  unsigned gid;
  unsigned size;
  unsigned blocksize;
  unsigned rdev;
  unsigned blocks;
  unsigned fsid;
  unsigned fileid;
  unsigned atime;
  unsigned mtime;
  unsigned ctime;
};

struct readargs {
  nfs_fh file;
  unsigned offset;
  unsigned count;
  unsigned totalcount;
};

struct readokres {
  fattr attributes;
  opaque data<NFS_MAXDATA>;
};

union readres switch (nfsstat status) {
  case NFS_OK:
    readokres reply;
  default:
    void;
};

program NFS_PROGRAM {
  version NFS_VERSION {
    fattr NFSPROC_GETATTR(nfs_fh) = 1;
    readres NFSPROC_READ(readargs) = 6;
  } = 2;
} = 100003;
)";

// The names inside one type must be unique, as in the CORBA front-end:
// both declare through TypeTable, which refuses the second one.
TEST(SunRpcParserTest, DuplicateNamesInsideATypeAreRefused) {
  const std::pair<const char*, const char*> cases[] = {
      {"struct s { int a; int a; };",
       "test.x:1:19: error: duplicate field 'a' in struct s"},
      {"enum e { X, X };",
       "test.x:1:13: error: duplicate member 'X' in enum e"},
      {"union u switch (int d) { case 1: int a; case 1: void; };",
       "test.x:1:41: error: duplicate case label 1 in union u"},
      {"union u switch (int d) { default: void; default: int b; };",
       "test.x:1:41: error: duplicate default arm in union u"},
  };
  for (const auto& [idl, message] : cases) {
    DiagnosticSink diags;
    EXPECT_EQ(ParseSunRpc(idl, "test.x", &diags), nullptr) << idl;
    EXPECT_NE(diags.ToString().find(message), std::string::npos)
        << diags.ToString();
  }
}

TEST(SunRpcParserTest, NfsProgramParses) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  ASSERT_EQ(file->interfaces.size(), 1u);
  const InterfaceDecl& itf = file->interfaces[0];
  EXPECT_EQ(itf.name, "NFS_VERSION");
  EXPECT_EQ(itf.program_number, 100003u);
  EXPECT_EQ(itf.version_number, 2u);
  ASSERT_EQ(itf.ops.size(), 2u);
  EXPECT_EQ(itf.ops[0].name, "NFSPROC_GETATTR");
  EXPECT_EQ(itf.ops[0].opnum, 1u);
  EXPECT_EQ(itf.ops[1].name, "NFSPROC_READ");
  EXPECT_EQ(itf.ops[1].opnum, 6u);
}

TEST(SunRpcParserTest, OpaqueFixedAndVariable) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(file, nullptr);
  const Type* fh = file->types.FindNamed("nfs_fh");
  ASSERT_NE(fh, nullptr);
  const Type* fh_data = fh->fields()[0].type;
  EXPECT_EQ(fh_data->kind(), TypeKind::kArray);
  EXPECT_EQ(fh_data->bound(), 32u);
  EXPECT_EQ(fh_data->element()->kind(), TypeKind::kOctet);

  const Type* okres = file->types.FindNamed("readokres");
  const Type* data = okres->fields()[1].type;
  EXPECT_EQ(data->kind(), TypeKind::kSequence);
  EXPECT_EQ(data->bound(), 8192u);
}

TEST(SunRpcParserTest, UnionWithVoidDefault) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(file, nullptr);
  const Type* readres = file->types.FindNamed("readres");
  ASSERT_NE(readres, nullptr);
  ASSERT_EQ(readres->arms().size(), 2u);
  EXPECT_EQ(readres->arms()[0].label, 0u);  // NFS_OK resolves to 0
  EXPECT_FALSE(readres->arms()[0].is_default);
  EXPECT_TRUE(readres->arms()[1].is_default);
  EXPECT_EQ(readres->arms()[1].type->kind(), TypeKind::kVoid);
  EXPECT_EQ(readres->discriminant()->kind(), TypeKind::kEnum);
}

TEST(SunRpcParserTest, ProcedureArgumentBecomesInParam) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(file, nullptr);
  const OperationDecl& read = file->interfaces[0].ops[1];
  ASSERT_EQ(read.params.size(), 1u);
  EXPECT_EQ(read.params[0].dir, ParamDir::kIn);
  EXPECT_EQ(read.params[0].type->name(), "readargs");
  EXPECT_EQ(read.result->name(), "readres");
}

TEST(SunRpcParserTest, VoidProcedureArgument) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(R"(
    program P { version V { unsigned NULLPROC(void) = 0; } = 1; } = 200;
  )", "p.x", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  EXPECT_TRUE(file->interfaces[0].ops[0].params.empty());
}

TEST(SunRpcParserTest, TypedefsAndBareString) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(R"(
    typedef string filename<255>;
    typedef unsigned hyper bigint;
    program P { version V { bigint LEN(filename) = 1; } = 1; } = 300;
  )", "p.x", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  EXPECT_EQ(file->types.FindNamed("filename")->Resolve()->kind(),
            TypeKind::kString);
  EXPECT_EQ(file->types.FindNamed("bigint")->Resolve()->kind(),
            TypeKind::kU64);
}

TEST(SunRpcParserTest, IntTypeSpellings) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(R"(
    struct s {
      int a;
      unsigned int b;
      unsigned c;
      hyper d;
      bool e;
    };
    program P { version V { s F(void) = 1; } = 1; } = 400;
  )", "p.x", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  const Type* s = file->types.FindNamed("s");
  EXPECT_EQ(s->fields()[0].type->kind(), TypeKind::kI32);
  EXPECT_EQ(s->fields()[1].type->kind(), TypeKind::kU32);
  EXPECT_EQ(s->fields()[2].type->kind(), TypeKind::kU32);
  EXPECT_EQ(s->fields()[3].type->kind(), TypeKind::kI64);
  EXPECT_EQ(s->fields()[4].type->kind(), TypeKind::kBool);
}

TEST(SunRpcParserTest, OptionalDataIsRejectedWithDiagnostic) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(R"(
    struct node { int v; node *next; };
    program P { version V { node F(void) = 1; } = 1; } = 500;
  )", "p.x", &diags);
  EXPECT_EQ(file, nullptr);
  EXPECT_TRUE(diags.HasErrors());
  EXPECT_NE(diags.ToString().find("optional"), std::string::npos);
}

TEST(SunRpcParserTest, PreprocessorLinesIgnored) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(R"(
#include <rpc/rpc.h>
#define FOO 1
    program P { version V { unsigned F(void) = 1; } = 1; } = 600;
  )", "p.x", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
}

TEST(SunRpcParserTest, UnknownTypeReported) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(
      "program P { version V { missing F(void) = 1; } = 1; } = 700;", "p.x",
      &diags);
  EXPECT_EQ(file, nullptr);
  EXPECT_TRUE(diags.HasErrors());
}

TEST(SunRpcParserTest, MultipleVersions) {
  DiagnosticSink diags;
  auto file = ParseSunRpc(R"(
    program P {
      version V1 { unsigned F(void) = 1; } = 1;
      version V2 { unsigned F(void) = 1; unsigned G(void) = 2; } = 2;
    } = 800;
  )", "p.x", &diags);
  ASSERT_NE(file, nullptr) << diags.ToString();
  ASSERT_EQ(file->interfaces.size(), 2u);
  EXPECT_EQ(file->interfaces[0].version_number, 1u);
  EXPECT_EQ(file->interfaces[1].version_number, 2u);
  EXPECT_EQ(file->interfaces[1].program_number, 800u);
}

}  // namespace
}  // namespace flexrpc
