// Tests for default-presentation computation and PDL application: the
// merge of PDL text over the defaults, and the presentation rules
// (src/pdl/lint.h) ApplyPdl enforces, each refusal carrying its FLEX code.

#include <gtest/gtest.h>

#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/pdl/apply.h"

namespace flexrpc {
namespace {

std::unique_ptr<InterfaceFile> MustParseCorba(std::string_view src) {
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

constexpr char kSysLogIdl[] = R"(
  interface SysLog {
    void write_msg(in string msg);
  };
)";

TEST(DefaultPresentationTest, ClientSideFileIo) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdl(*idl, Side::kClient, nullptr, &set, &diags))
      << diags.ToString();
  const InterfacePresentation* pres = set.Find("FileIO");
  ASSERT_NE(pres, nullptr);
  EXPECT_EQ(pres->trust, TrustLevel::kNone);

  const OpPresentation* read = pres->FindOp("read");
  ASSERT_NE(read, nullptr);
  // CORBA move semantics: the client consumes a system buffer.
  EXPECT_EQ(read->result.alloc, AllocPolicy::kStub);
  EXPECT_EQ(read->result.dealloc, DeallocPolicy::kDefault);
  EXPECT_EQ(read->result.binding.kind, BindingKind::kResult);

  const OpPresentation* write = pres->FindOp("write");
  const ParamPresentation* data = write->FindParam("data");
  ASSERT_NE(data, nullptr);
  EXPECT_FALSE(data->trashable);
  EXPECT_FALSE(data->preserved);
  EXPECT_EQ(data->binding.kind, BindingKind::kParam);
  EXPECT_EQ(data->binding.param_index, 0);
}

TEST(DefaultPresentationTest, ServerSideUsesMoveSemantics) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdl(*idl, Side::kServer, nullptr, &set, &diags));
  const OpPresentation* read = set.Find("FileIO")->FindOp("read");
  // Server work function allocates and donates; the stub frees after
  // marshaling.
  EXPECT_EQ(read->result.alloc, AllocPolicy::kUser);
  EXPECT_EQ(read->result.dealloc, DeallocPolicy::kAlways);
}

TEST(ApplyPdlTest, PaperFig5DeallocNever) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kServer,
                           "FileIO_read()[dealloc(never)];", "t.pdl", &set,
                           &diags))
      << diags.ToString();
  const OpPresentation* read = set.Find("FileIO")->FindOp("read");
  EXPECT_EQ(read->result.dealloc, DeallocPolicy::kNever);
  // Nothing else changed.
  EXPECT_EQ(read->result.alloc, AllocPolicy::kUser);
}

TEST(ApplyPdlTest, PaperSysLogLengthIs) {
  auto idl = MustParseCorba(kSysLogIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdlText(
      *idl, Side::kClient,
      "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
      "t.pdl", &set, &diags))
      << diags.ToString();
  const OpPresentation* op = set.Find("SysLog")->FindOp("write_msg");
  ASSERT_EQ(op->params.size(), 2u);
  const ParamPresentation& msg = op->params[0];
  EXPECT_EQ(msg.name, "msg");
  EXPECT_TRUE(msg.explicit_length);
  EXPECT_EQ(msg.length_param, "length");
  EXPECT_EQ(msg.binding.kind, BindingKind::kParam);
  const ParamPresentation& len = op->params[1];
  EXPECT_TRUE(len.presentation_only);
  EXPECT_EQ(len.binding.kind, BindingKind::kPresentationOnly);
}

TEST(ApplyPdlTest, TrashableOnClientPreservedOnServer) {
  auto idl = MustParseCorba(kFileIoIdl);
  {
    PresentationSet set;
    DiagnosticSink diags;
    ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient,
                             "FileIO_write(char *[trashable] data);",
                             "t.pdl", &set, &diags))
        << diags.ToString();
    EXPECT_TRUE(set.Find("FileIO")
                    ->FindOp("write")
                    ->FindParam("data")
                    ->trashable);
  }
  {
    PresentationSet set;
    DiagnosticSink diags;
    ASSERT_TRUE(ApplyPdlText(*idl, Side::kServer,
                             "FileIO_write(char *[preserved] data);",
                             "t.pdl", &set, &diags))
        << diags.ToString();
    EXPECT_TRUE(set.Find("FileIO")
                    ->FindOp("write")
                    ->FindParam("data")
                    ->preserved);
  }
}

TEST(ApplyPdlTest, TrashableOnServerRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kServer,
                            "FileIO_write(char *[trashable] data);", "t.pdl",
                            &set, &diags));
  EXPECT_NE(diags.ToString().find("client-side"), std::string::npos);
  EXPECT_EQ(diags.CountCode("FLEX001"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, PreservedOnClientRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kClient,
                            "FileIO_write(char *[preserved] data);", "t.pdl",
                            &set, &diags));
  EXPECT_EQ(diags.CountCode("FLEX002"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, TrustLevels) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient,
                           "interface FileIO [leaky, unprotected];", "t.pdl",
                           &set, &diags));
  EXPECT_EQ(set.Find("FileIO")->trust, TrustLevel::kFull);

  PresentationSet set2;
  DiagnosticSink diags2;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient, "interface FileIO [leaky];",
                           "t.pdl", &set2, &diags2));
  EXPECT_EQ(set2.Find("FileIO")->trust, TrustLevel::kLeaky);
}

TEST(ApplyPdlTest, UnprotectedAloneRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kClient,
                            "interface FileIO [unprotected];", "t.pdl", &set,
                            &diags));
}

TEST(ApplyPdlTest, TypeAttrAppliesEverywhere) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kServer, "type opaque [special];",
                           "t.pdl", &set, &diags))
      << diags.ToString();
  const InterfacePresentation* pres = set.Find("FileIO");
  EXPECT_TRUE(pres->FindOp("read")->result.special);
  EXPECT_TRUE(pres->FindOp("write")->FindParam("data")->special);
}

TEST(ApplyPdlTest, UnknownTypeAttrRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kServer, "type missing [special];",
                            "t.pdl", &set, &diags));
}

TEST(ApplyPdlTest, UnknownOpRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kServer, "FileIO_nope();", "t.pdl",
                            &set, &diags));
}

TEST(ApplyPdlTest, LengthIsOnScalarRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kClient,
                            "FileIO_read(unsigned long [length_is(n)] count,"
                            " int n);",
                            "t.pdl", &set, &diags));
  EXPECT_EQ(diags.CountCode("FLEX013"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, LengthIsDanglingTargetRejected) {
  auto idl = MustParseCorba(kSysLogIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(
      *idl, Side::kClient,
      "SysLog_write_msg(char *[length_is(nothere)] msg);", "t.pdl", &set,
      &diags));
  EXPECT_EQ(diags.CountCode("FLEX003"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, NonuniqueRequiresObjRef) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kClient,
                            "FileIO_write(char *[nonunique] data);", "t.pdl",
                            &set, &diags));
  EXPECT_EQ(diags.CountCode("FLEX007"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, NonuniqueOnObjRefAccepted) {
  auto idl = MustParseCorba(R"(
    interface Target { void poke(); };
    interface Sender { void send(in Target t); };
  )");
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient,
                           "Sender_send(Target [nonunique] t);", "t.pdl",
                           &set, &diags))
      << diags.ToString();
  EXPECT_TRUE(set.Find("Sender")->FindOp("send")->FindParam("t")->nonunique);
}

TEST(ApplyPdlTest, AllocPoliciesParsed) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient,
                           "FileIO_read()[alloc(user)];", "t.pdl", &set,
                           &diags))
      << diags.ToString();
  EXPECT_EQ(set.Find("FileIO")->FindOp("read")->result.alloc,
            AllocPolicy::kUser);
}

TEST(ApplyPdlTest, AllocOnInParamRejected) {
  auto idl = MustParseCorba(kFileIoIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kClient,
                            "FileIO_write(char *[alloc(user)] data);",
                            "t.pdl", &set, &diags));
  EXPECT_EQ(diags.CountCode("FLEX013"), 1) << diags.ToString();
}

// --- the remaining presentation rules, from PDL text ---

constexpr char kStoreIdl[] = R"(
  struct Pt { long x; long y; };
  interface Store {
    void fetch(in sequence<octet> src, out long n);
    void resize(inout sequence<octet> buf);
    long touch(in long ticks);
    void move(in Pt p);
  };
)";

// Applies `pdl` to kStoreIdl and returns the diagnostics of a refusal.
DiagnosticSink ExpectRefused(Side side, std::string_view pdl) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, side, pdl, "t.pdl", &set, &diags)) << pdl;
  return diags;
}

TEST(ApplyPdlTest, LengthTravelingTheWrongWayRejected) {
  // The buffer goes in the request, its length only comes back in the
  // reply: the server has no length to read the buffer with.
  DiagnosticSink diags = ExpectRefused(
      Side::kClient, "Store_fetch(char *[length_is(n)] src, int n);");
  EXPECT_EQ(diags.CountCode("FLEX004"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, ClientInOutUserBufferFreedByStubRejected) {
  DiagnosticSink diags = ExpectRefused(
      Side::kClient,
      "Store_resize(char *[alloc(user), dealloc(always)] buf);");
  EXPECT_EQ(diags.CountCode("FLEX005"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, SpecialOnScalarRejected) {
  DiagnosticSink diags =
      ExpectRefused(Side::kClient, "Store_touch(int [special] ticks);");
  EXPECT_EQ(diags.CountCode("FLEX006"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, ArgumentFlattenedAndCarriedWholeRejected) {
  // Naming the struct argument and one of its fields carries p.x twice.
  DiagnosticSink diags =
      ExpectRefused(Side::kClient, "Store_move(Pt *p, int x);");
  EXPECT_GE(diags.CountCode("FLEX008"), 1) << diags.ToString();
}

TEST(ApplyPdlTest, MarshalingAttributeOnInapplicableItemRejected) {
  for (std::string_view pdl : {
           "Store_touch(int [dealloc(never)] ticks);",
           "Store_fetch(char *src, int [trashable] n);",
           "Store_fetch(char *src, int n, int [special] extra);",
       }) {
    DiagnosticSink diags = ExpectRefused(Side::kClient, pdl);
    EXPECT_EQ(diags.CountCode("FLEX013"), 1) << pdl << "\n"
                                             << diags.ToString();
  }
}

TEST(ApplyPdlTest, RuleDiagnosticsNameTheIdlItem) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet set;
  DiagnosticSink diags;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kServer,
                            "Store_fetch(char *[trashable] src);", "t.pdl",
                            &set, &diags));
  const Diagnostic* rule = diags.FindCode("FLEX001");
  ASSERT_NE(rule, nullptr) << diags.ToString();
  EXPECT_EQ(rule->file, "test.idl");
  EXPECT_EQ(rule->pos, idl->interfaces[0].ops[0].params[0].pos);
  // A merge error stays with the PDL text that made it.
  DiagnosticSink merge;
  EXPECT_FALSE(ApplyPdlText(*idl, Side::kServer, "Store_nope();", "t.pdl",
                            &set, &merge));
  ASSERT_EQ(merge.diagnostics().size(), 1u);
  EXPECT_EQ(merge.diagnostics()[0].file, "t.pdl");
  EXPECT_EQ(merge.diagnostics()[0].pos, (SourcePos{1, 1}));
}

// --- Figure 1 flattened Sun RPC presentation ---

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

constexpr char kNfsPdl[] = R"(
  [comm_status] int NFSPROC_READ(file, offset, count, totalcount,
      [special] data, attributes, status);
)";

TEST(ApplyPdlTest, PaperFig1FlattenedNfsRead) {
  DiagnosticSink diags;
  auto idl = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(idl, nullptr) << diags.ToString();
  ASSERT_TRUE(AnalyzeInterfaceFile(idl.get(), &diags)) << diags.ToString();

  PresentationSet set;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient, kNfsPdl, "nfs.pdl", &set,
                           &diags))
      << diags.ToString();
  const OpPresentation* op = set.Find("NFS_VERSION")->FindOp("NFSPROC_READ");
  ASSERT_NE(op, nullptr);
  EXPECT_TRUE(op->comm_status);
  EXPECT_TRUE(op->args_flattened);
  EXPECT_TRUE(op->result_flattened);
  ASSERT_EQ(op->params.size(), 7u);

  // Argument-struct fields.
  EXPECT_EQ(op->params[0].name, "file");
  EXPECT_EQ(op->params[0].binding.kind, BindingKind::kParamField);
  EXPECT_EQ(op->params[0].binding.param_index, 0);
  EXPECT_EQ(op->params[0].binding.field_index, 0);
  EXPECT_EQ(op->params[3].name, "totalcount");
  EXPECT_EQ(op->params[3].binding.field_index, 3);

  // Result fields: data is readokres.data (field 1), attributes field 0.
  EXPECT_EQ(op->params[4].name, "data");
  EXPECT_EQ(op->params[4].binding.kind, BindingKind::kResultField);
  EXPECT_EQ(op->params[4].binding.field_index, 1);
  EXPECT_TRUE(op->params[4].special);
  EXPECT_EQ(op->params[5].name, "attributes");
  EXPECT_EQ(op->params[5].binding.kind, BindingKind::kResultField);
  EXPECT_EQ(op->params[6].name, "status");
  EXPECT_EQ(op->params[6].binding.kind, BindingKind::kResultDiscriminant);

  // The C return value no longer carries the wire result.
  EXPECT_TRUE(op->result.presentation_only);
}

TEST(ApplyPdlTest, PartialFlattenFillsMissingFields) {
  DiagnosticSink diags;
  auto idl = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(idl, nullptr);
  ASSERT_TRUE(AnalyzeInterfaceFile(idl.get(), &diags));
  PresentationSet set;
  // Mention only `offset`; the other readargs fields must be auto-added so
  // the wire contract stays fully covered.
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient,
                           "NFSPROC_READ(unsigned offset);", "t.pdl", &set,
                           &diags))
      << diags.ToString();
  const OpPresentation* op = set.Find("NFS_VERSION")->FindOp("NFSPROC_READ");
  EXPECT_TRUE(op->args_flattened);
  // offset + 3 auto-added fields; result unflattened.
  ASSERT_EQ(op->params.size(), 4u);
  EXPECT_EQ(op->params[0].name, "offset");
  EXPECT_FALSE(op->result_flattened);
  EXPECT_EQ(op->result.binding.kind, BindingKind::kResult);
}

TEST(ApplyPdlTest, DefaultPresentationValidates) {
  // Property: for every interface we can define, the default presentation
  // passes validation on both sides.
  DiagnosticSink diags;
  auto idl = ParseSunRpc(kNfsIdl, "nfs.x", &diags);
  ASSERT_NE(idl, nullptr);
  ASSERT_TRUE(AnalyzeInterfaceFile(idl.get(), &diags));
  for (Side side : {Side::kClient, Side::kServer}) {
    PresentationSet set;
    DiagnosticSink d2;
    EXPECT_TRUE(ApplyPdl(*idl, side, nullptr, &set, &d2)) << d2.ToString();
  }
}

}  // namespace
}  // namespace flexrpc
