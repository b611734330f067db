// Golden-diagnostic tests for flexcheck: one triggering and one
// non-triggering case per stable code.
//
// Stage 1 (FLEX001-FLEX013) positives mutate a valid presentation in
// memory, so each carries exactly the one fault under test. ApplyPdl runs
// the same rules at error severity, so they can come from PDL text as well:
// pdl_apply_test.cc refuses PDL text with each stage-1 error code.
// Stage 2 (FLEX101-FLEX106) positives corrupt a copy of the MarshalPlanView
// a correctly compiled MarshalProgram runs, bytecode-verifier style.
// Stage 3 (FLEX201-FLEX207) positives corrupt a compiled SpecPlan's
// superinstruction streams the same way; the wire-equivalence prover must
// refuse each class of divergence.

#include <gtest/gtest.h>

#include <set>

#include "src/analysis/plan_verifier.h"
#include "src/analysis/spec_verifier.h"
#include "src/codegen/spec_gen.h"
#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/pdl/apply.h"
#include "src/pdl/lint.h"
#include "src/support/strings.h"

namespace flexrpc {
namespace {

std::unique_ptr<InterfaceFile> MustParseCorba(std::string_view src) {
  DiagnosticSink diags;
  auto file = ParseCorbaIdl(src, "test.idl", &diags);
  EXPECT_NE(file, nullptr) << diags.ToString();
  EXPECT_TRUE(AnalyzeInterfaceFile(file.get(), &diags)) << diags.ToString();
  return file;
}

PresentationSet MustApply(const InterfaceFile& idl, Side side,
                          std::string_view pdl_text = "") {
  PresentationSet set;
  DiagnosticSink diags;
  bool ok = pdl_text.empty()
                ? ApplyPdl(idl, side, nullptr, &set, &diags)
                : ApplyPdlText(idl, side, pdl_text, "t.pdl", &set, &diags);
  EXPECT_TRUE(ok) << diags.ToString();
  return set;
}

// Mutable presentation for the in-memory corruption tests.
InterfacePresentation& Pres(PresentationSet& set, const std::string& name) {
  auto it = set.by_interface.find(name);
  EXPECT_NE(it, set.by_interface.end());
  return it->second;
}

int Lint(const InterfaceFile& idl, const InterfacePresentation& pres,
         DiagnosticSink* diags, bool advisors = false) {
  LintOptions opts;
  opts.advisors = advisors;
  return LintPresentation(idl, idl.interfaces[0], pres, diags, opts);
}

// The lint fixture: every shape the stage 1 checks care about.
constexpr char kStoreIdl[] = R"(
  interface Store {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
    void resize(inout sequence<octet> buf);
    void scale(in sequence<octet> data, in float factor);
    void fetch(in sequence<octet> src, out long n);
    void slice(in long n, in sequence<octet> src);
    long touch(in long ticks);
  };
)";

// --- catalog ---

TEST(FlexCatalogTest, CodesAreStableAndUnique) {
  const auto& catalog = FlexCodeCatalog();
  ASSERT_GE(catalog.size(), 18u);
  std::set<std::string_view> codes;
  for (const FlexCodeInfo& info : catalog) {
    EXPECT_TRUE(codes.insert(info.code).second)
        << "duplicate code " << info.code;
    EXPECT_FALSE(info.summary.empty()) << info.code;
    EXPECT_EQ(FindFlexCode(info.code), &info);
  }
  // Severity tiers: unsound = error, suspicious = warning, advisor = note.
  EXPECT_EQ(FindFlexCode("FLEX001")->severity, DiagSeverity::kError);
  EXPECT_EQ(FindFlexCode("FLEX009")->severity, DiagSeverity::kWarning);
  EXPECT_EQ(FindFlexCode("FLEX011")->severity, DiagSeverity::kNote);
  EXPECT_EQ(FindFlexCode("FLEX101")->severity, DiagSeverity::kError);
  EXPECT_EQ(FindFlexCode("FLEX999"), nullptr);
}

// --- FLEX001 / FLEX002: side-mismatched buffer-sharing attributes ---

TEST(FlexLintTest, Flex001TrashableOnServerSide) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet server = MustApply(*idl, Side::kServer);
  Pres(server, "Store").FindOp("write")->FindParam("data")->trashable = true;
  DiagnosticSink diags;
  Lint(*idl, *server.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX001"), 1) << diags.ToString();
  EXPECT_EQ(diags.FindCode("FLEX001")->severity, DiagSeverity::kError);
}

TEST(FlexLintTest, Flex001NotOnClientSide) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client =
      MustApply(*idl, Side::kClient, "Store_write(char *[trashable] data);");
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *client.Find("Store"), &diags), 0)
      << diags.ToString();
}

TEST(FlexLintTest, Flex002PreservedOnClientSide) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Store").FindOp("write")->FindParam("data")->preserved = true;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX002"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex002NotOnServerSide) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet server =
      MustApply(*idl, Side::kServer, "Store_write(char *[preserved] data);");
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *server.Find("Store"), &diags), 0)
      << diags.ToString();
}

// --- FLEX003 / FLEX004: [length_is] target sanity ---

TEST(FlexLintTest, Flex003LengthIsNamesNoSlot) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  ParamPresentation* data =
      Pres(client, "Store").FindOp("write")->FindParam("data");
  data->explicit_length = true;
  data->length_param = "nope";
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX003"), 1) << diags.ToString();
  // The code rides along in the rendered diagnostic.
  EXPECT_NE(diags.ToString().find("[FLEX003]"), std::string::npos);
}

TEST(FlexLintTest, Flex003LengthIsTargetsNonIntegralSlot) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  ParamPresentation* data =
      Pres(client, "Store").FindOp("scale")->FindParam("data");
  data->explicit_length = true;
  data->length_param = "factor";  // float: cannot carry a length
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX003"), 1) << diags.ToString();
  EXPECT_EQ(diags.CountCode("FLEX004"), 0);  // same-direction pair
}

TEST(FlexLintTest, Flex003NotOnPresentationOnlyLength) {
  // The paper's syslog shape: the length slot exists only in the stub
  // prototype, so it is always available and has no wire direction.
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(
      *idl, Side::kClient,
      "Store_write(char *[length_is(len)] data, int len);");
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *client.Find("Store"), &diags), 0)
      << diags.ToString();
}

TEST(FlexLintTest, Flex004LengthTravelsWrongDirection) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  ParamPresentation* src =
      Pres(client, "Store").FindOp("fetch")->FindParam("src");
  src->explicit_length = true;
  src->length_param = "n";  // buffer is in, n is out
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX004"), 1) << diags.ToString();
  EXPECT_EQ(diags.CountCode("FLEX003"), 0);  // n itself is integral
}

TEST(FlexLintTest, Flex004NotWhenDirectionsAgree) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(
      *idl, Side::kClient, "Store_slice(int n, char *[length_is(n)] src);");
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *client.Find("Store"), &diags), 0)
      << diags.ToString();
}

// --- FLEX005: the double-free alloc/dealloc combination ---

TEST(FlexLintTest, Flex005ClientInOutUserAllocFreedByStub) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  ParamPresentation* buf =
      Pres(client, "Store").FindOp("resize")->FindParam("buf");
  buf->alloc = AllocPolicy::kUser;
  buf->dealloc = DeallocPolicy::kAlways;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX005"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex005NotOnServerDonatePattern) {
  // Server alloc(user)+dealloc(always) is the legitimate move-semantics
  // donate: the work function allocates, the stub frees after marshaling.
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet server = MustApply(*idl, Side::kServer);
  ParamPresentation* buf =
      Pres(server, "Store").FindOp("resize")->FindParam("buf");
  buf->alloc = AllocPolicy::kUser;
  buf->dealloc = DeallocPolicy::kAlways;
  DiagnosticSink diags;
  Lint(*idl, *server.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX005"), 0) << diags.ToString();
}

// --- FLEX006 / FLEX007: attribute/type mismatches ---

TEST(FlexLintTest, Flex006SpecialOnScalar) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Store").FindOp("touch")->FindParam("ticks")->special = true;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX006"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex006NotOnBuffer) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client =
      MustApply(*idl, Side::kClient, "Store_write(char *[special] data);");
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *client.Find("Store"), &diags), 0)
      << diags.ToString();
}

TEST(FlexLintTest, Flex007NonuniqueOnNonObjref) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Store").FindOp("write")->FindParam("data")->nonunique = true;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX007"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex007NotOnObjref) {
  auto idl = MustParseCorba(R"(
    interface Peer { void ping(); };
    interface Registry { void share(in Peer who); };
  )");
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Registry").FindOp("share")->FindParam("who")->nonunique =
      true;
  DiagnosticSink diags;
  EXPECT_EQ(LintPresentation(*idl, idl->interfaces[1],
                             *client.Find("Registry"), &diags),
            0)
      << diags.ToString();
}

// --- FLEX013: marshaling attributes on items they cannot apply to ---

TEST(FlexLintTest, Flex013DeallocOnScalar) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Store").FindOp("touch")->FindParam("ticks")->dealloc =
      DeallocPolicy::kNever;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX013"), 1) << diags.ToString();
  EXPECT_EQ(diags.FindCode("FLEX013")->severity, DiagSeverity::kError);
}

TEST(FlexLintTest, Flex013NotOnApplicableItems) {
  // [dealloc] on a donated result, [preserved] on an in buffer, [alloc] on
  // out data and [length_is] on a sequence each have a wire item to act on.
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet server = MustApply(
      *idl, Side::kServer,
      "Store_read()[dealloc(never)];"
      "Store_write(char *[preserved] data);"
      "Store_fetch(char *[length_is(len)] src, long [alloc(stub)] n,"
      " int len);");
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *server.Find("Store"), &diags), 0)
      << diags.ToString();
}

// --- FLEX008: flatten/binding coverage ---

TEST(FlexLintTest, Flex008DoubleCoveredParameter) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  OpPresentation* write = Pres(client, "Store").FindOp("write");
  write->params.push_back(write->params[0]);  // data carried twice
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_GE(diags.CountCode("FLEX008"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex008OutOfRangeBinding) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Store")
      .FindOp("write")
      ->FindParam("data")
      ->binding.param_index = 5;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_GE(diags.CountCode("FLEX008"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex008NotOnDefaultPresentation) {
  auto idl = MustParseCorba(kStoreIdl);
  for (Side side : {Side::kClient, Side::kServer}) {
    PresentationSet set = MustApply(*idl, side);
    DiagnosticSink diags;
    EXPECT_EQ(Lint(*idl, *set.Find("Store"), &diags), 0)
        << diags.ToString();
  }
}

// --- FLEX009 / FLEX010: suspicious-but-legal warnings ---

TEST(FlexLintTest, Flex009TrustFullWaivesSharingPromise) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  InterfacePresentation& pres = Pres(client, "Store");
  pres.trust = TrustLevel::kFull;
  pres.FindOp("write")->FindParam("data")->trashable = true;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX009"), 1) << diags.ToString();
  EXPECT_EQ(diags.FindCode("FLEX009")->severity, DiagSeverity::kWarning);
  EXPECT_TRUE(diags.HasWarnings());
  EXPECT_FALSE(diags.HasErrors());  // trashable itself is client-legal
}

TEST(FlexLintTest, Flex009NotWithoutSharingAttributes) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  Pres(client, "Store").trust = TrustLevel::kFull;
  DiagnosticSink diags;
  EXPECT_EQ(Lint(*idl, *client.Find("Store"), &diags), 0)
      << diags.ToString();
}

TEST(FlexLintTest, Flex010DeadPresentationOnlySlot) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(*idl, Side::kClient);
  ParamPresentation stray;
  stray.name = "len";
  stray.binding.kind = BindingKind::kPresentationOnly;
  stray.presentation_only = true;
  Pres(client, "Store").FindOp("write")->params.push_back(stray);
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX010"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex010NotWhenSlotIsReferenced) {
  auto idl = MustParseCorba(kStoreIdl);
  PresentationSet client = MustApply(
      *idl, Side::kClient,
      "Store_write(char *[length_is(len)] data, int len);");
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Store"), &diags);
  EXPECT_EQ(diags.CountCode("FLEX010"), 0) << diags.ToString();
}

// --- FLEX011 / FLEX012: the §4 advisor notes (opt-in) ---

TEST(FlexLintTest, Flex011ElidableCopyAdvisor) {
  auto idl = MustParseCorba(R"(
    interface Adv { void send(in sequence<octet> payload); };
  )");
  PresentationSet client = MustApply(*idl, Side::kClient);
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Adv"), &diags, /*advisors=*/true);
  EXPECT_EQ(diags.CountCode("FLEX011"), 1) << diags.ToString();
  EXPECT_EQ(diags.FindCode("FLEX011")->severity, DiagSeverity::kNote);
  EXPECT_FALSE(diags.HasErrors());
  EXPECT_FALSE(diags.HasWarnings());
}

TEST(FlexLintTest, Flex011SilencedByAnnotationOrDefault) {
  auto idl = MustParseCorba(R"(
    interface Adv { void send(in sequence<octet> payload); };
  )");
  {
    // Advisors are opt-in: a bare --lint stays quiet.
    PresentationSet client = MustApply(*idl, Side::kClient);
    DiagnosticSink diags;
    EXPECT_EQ(Lint(*idl, *client.Find("Adv"), &diags), 0);
  }
  {
    // Annotating the buffer answers the advisor.
    PresentationSet client = MustApply(
        *idl, Side::kClient, "Adv_send(char *[trashable] payload);");
    DiagnosticSink diags;
    Lint(*idl, *client.Find("Adv"), &diags, /*advisors=*/true);
    EXPECT_EQ(diags.CountCode("FLEX011"), 0) << diags.ToString();
  }
}

TEST(FlexLintTest, Flex012FixedSizeOutForcedThroughMove) {
  auto idl = MustParseCorba(R"(
    struct Pair { long a; long b; };
    interface Stat { void stat(out Pair info); };
  )");
  PresentationSet client = MustApply(*idl, Side::kClient);
  // Fixed-size out data defaults to caller storage; forcing the CORBA move
  // path costs a per-call allocation the advisor flags.
  Pres(client, "Stat").FindOp("stat")->FindParam("info")->alloc =
      AllocPolicy::kStub;
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Stat"), &diags, /*advisors=*/true);
  EXPECT_EQ(diags.CountCode("FLEX012"), 1) << diags.ToString();
}

TEST(FlexLintTest, Flex012NotOnCallerStorageDefault) {
  auto idl = MustParseCorba(R"(
    struct Pair { long a; long b; };
    interface Stat { void stat(out Pair info); };
  )");
  PresentationSet client = MustApply(*idl, Side::kClient);
  DiagnosticSink diags;
  Lint(*idl, *client.Find("Stat"), &diags, /*advisors=*/true);
  EXPECT_EQ(diags.CountCode("FLEX012"), 0) << diags.ToString();
}

// --- stage 2: the marshal-plan verifier ---

class PlanVerifierTest : public ::testing::Test {
 protected:
  void LoadStore(Side side, std::string_view pdl = "") {
    idl_ = MustParseCorba(kStoreIdl);
    set_ = MustApply(*idl_, side, pdl);
  }

  const OperationDecl& Op(std::string_view name) {
    for (const OperationDecl& op : idl_->interfaces[0].ops) {
      if (op.name == name) {
        return op;
      }
    }
    ADD_FAILURE() << "no op " << name;
    return idl_->interfaces[0].ops[0];
  }

  MarshalProgram Build(std::string_view op_name) {
    const OpPresentation* pres =
        set_.Find(idl_->interfaces[0].name)->FindOp(op_name);
    EXPECT_NE(pres, nullptr);
    return MarshalProgram::Build(Op(op_name), *pres);
  }

  std::unique_ptr<InterfaceFile> idl_;
  PresentationSet set_;
};

TEST_F(PlanVerifierTest, CompiledProgramsVerifyClean) {
  for (Side side : {Side::kClient, Side::kServer}) {
    LoadStore(side);
    for (const OperationDecl& op : idl_->interfaces[0].ops) {
      MarshalProgram program = Build(op.name);
      DiagnosticSink diags;
      EXPECT_EQ(VerifyProgram(program, "test.idl", &diags), 0)
          << op.name << ": " << diags.ToString();
    }
  }
}

TEST_F(PlanVerifierTest, Flex101StreamMissingItems) {
  LoadStore(Side::kClient);
  MarshalProgram program = Build("touch");
  MarshalPlanView plan = program.Plan();
  plan.request.clear();  // the in-param vanished from the wire
  DiagnosticSink diags;
  VerifyMarshalPlan(Op("touch"), program.presentation(), plan, "test.idl",
                    &diags);
  EXPECT_GE(diags.CountCode("FLEX101"), 1) << diags.ToString();
}

TEST_F(PlanVerifierTest, Flex101ItemDeviatesFromIdlOrder) {
  LoadStore(Side::kClient);
  MarshalProgram program = Build("scale");
  MarshalPlanView plan = program.Plan();
  std::swap(plan.request[0], plan.request[1]);  // data/factor reordered
  DiagnosticSink diags;
  VerifyMarshalPlan(Op("scale"), program.presentation(), plan, "test.idl",
                    &diags);
  EXPECT_GE(diags.CountCode("FLEX101"), 1) << diags.ToString();
}

TEST_F(PlanVerifierTest, Flex102SlotOutOfRange) {
  LoadStore(Side::kClient);
  MarshalProgram program = Build("touch");
  MarshalPlanView plan = program.Plan();
  plan.request[0].slot = 99;
  DiagnosticSink diags;
  VerifyMarshalPlan(Op("touch"), program.presentation(), plan, "test.idl",
                    &diags);
  EXPECT_EQ(diags.CountCode("FLEX102"), 1) << diags.ToString();
}

TEST_F(PlanVerifierTest, Flex103LengthMarshaledAfterBuffer) {
  LoadStore(Side::kClient, "Store_slice(int n, char *[length_is(n)] src);");
  MarshalProgram program = Build("slice");
  {
    // Negative: the compiled plan marshals n (slot 0) before src.
    DiagnosticSink diags;
    EXPECT_EQ(VerifyProgram(program, "test.idl", &diags), 0)
        << diags.ToString();
  }
  // Swap the slots: the stream order still matches the IDL, but src now
  // lands in the slot the unmarshaler reads its own length from.
  MarshalPlanView plan = program.Plan();
  std::swap(plan.request[0].slot, plan.request[1].slot);
  DiagnosticSink diags;
  VerifyMarshalPlan(Op("slice"), program.presentation(), plan, "test.idl",
                    &diags);
  EXPECT_EQ(diags.CountCode("FLEX103"), 1) << diags.ToString();
  EXPECT_EQ(diags.CountCode("FLEX101"), 0);  // item order untouched
}

TEST_F(PlanVerifierTest, Flex104ResultNotInFinalSlot) {
  LoadStore(Side::kClient);
  MarshalProgram program = Build("touch");
  MarshalPlanView plan = program.Plan();
  ASSERT_EQ(plan.reply.size(), 1u);
  ASSERT_TRUE(plan.reply[0].is_result);
  plan.reply[0].slot = 0;  // ticks's slot, not the final one
  DiagnosticSink diags;
  VerifyMarshalPlan(Op("touch"), program.presentation(), plan, "test.idl",
                    &diags);
  EXPECT_EQ(diags.CountCode("FLEX104"), 1) << diags.ToString();
}

TEST_F(PlanVerifierTest, Flex105SlotCarriesTwoItems) {
  LoadStore(Side::kClient);
  MarshalProgram program = Build("scale");
  MarshalPlanView plan = program.Plan();
  plan.request[1].slot = plan.request[0].slot;
  DiagnosticSink diags;
  VerifyMarshalPlan(Op("scale"), program.presentation(), plan, "test.idl",
                    &diags);
  EXPECT_EQ(diags.CountCode("FLEX105"), 1) << diags.ToString();
}

TEST(PlanVerifierFlattenTest, Flex106FlattenedFieldWithoutSlot) {
  auto idl = MustParseCorba(R"(
    struct Args { long a; long b; };
    interface Svc { void go(in Args x); };
  )");
  PresentationSet set;
  DiagnosticSink apply_diags;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient, "Svc_go(int a, int b);",
                           "t.pdl", &set, &apply_diags))
      << apply_diags.ToString();
  const OpPresentation* pres = set.Find("Svc")->FindOp("go");
  ASSERT_TRUE(pres->args_flattened);
  MarshalProgram program =
      MarshalProgram::Build(idl->interfaces[0].ops[0], *pres);
  {
    DiagnosticSink diags;
    EXPECT_EQ(VerifyProgram(program, "test.idl", &diags), 0)
        << diags.ToString();
  }
  MarshalPlanView plan = program.Plan();
  ASSERT_EQ(plan.request.size(), 1u);
  ASSERT_TRUE(plan.request[0].flattened);
  ASSERT_EQ(plan.request[0].fields.size(), 2u);
  plan.request[0].fields[1].slot = -1;  // field b would never be marshaled
  DiagnosticSink diags;
  VerifyMarshalPlan(idl->interfaces[0].ops[0], *pres, plan, "test.idl",
                    &diags);
  EXPECT_EQ(diags.CountCode("FLEX106"), 1) << diags.ToString();
}

// The paper's Figure 1 shape end-to-end: flattened Sun RPC read, struct
// args and a union result with a discriminant slot.
TEST(PlanVerifierFlattenTest, Flex106MissingUnionDiscriminant) {
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
  DiagnosticSink parse_diags;
  auto idl = ParseSunRpc(kNfsIdl, "nfs.x", &parse_diags);
  ASSERT_NE(idl, nullptr) << parse_diags.ToString();
  ASSERT_TRUE(AnalyzeInterfaceFile(idl.get(), &parse_diags))
      << parse_diags.ToString();
  PresentationSet set;
  ASSERT_TRUE(ApplyPdlText(*idl, Side::kClient,
                           "[comm_status] int NFSPROC_READ(file, offset, "
                           "count, totalcount, [special] data, attributes, "
                           "status);",
                           "nfs.pdl", &set, &parse_diags))
      << parse_diags.ToString();
  const OperationDecl& op = idl->interfaces[0].ops[0];
  const OpPresentation* pres = set.Find("NFS_VERSION")->FindOp(op.name);
  ASSERT_NE(pres, nullptr);
  MarshalProgram program = MarshalProgram::Build(op, *pres);
  {
    DiagnosticSink diags;
    EXPECT_EQ(VerifyProgram(program, "nfs.x", &diags), 0)
        << diags.ToString();
  }
  MarshalPlanView plan = program.Plan();
  PlanItemView* result = nullptr;
  for (PlanItemView& item : plan.reply) {
    if (item.is_result) {
      result = &item;
    }
  }
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->flattened);
  ASSERT_GE(result->disc_slot, 0);
  result->disc_slot = -1;  // the status arm selector vanished
  DiagnosticSink diags;
  VerifyMarshalPlan(op, *pres, plan, "nfs.x", &diags);
  EXPECT_GE(diags.CountCode("FLEX106"), 1) << diags.ToString();
}

// --- stage 3: the flexspec wire-equivalence prover ---

// Positives corrupt one superinstruction of a correctly compiled SpecPlan;
// each corruption class must map to its own stable FLEX2xx code.
class SpecVerifierTest : public ::testing::Test {
 protected:
  static constexpr char kMiniNfs[] = R"(
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

  void SetUp() override {
    DiagnosticSink diags;
    idl_ = ParseSunRpc(kMiniNfs, "nfs.x", &diags);
    ASSERT_NE(idl_, nullptr) << diags.ToString();
    ASSERT_TRUE(AnalyzeInterfaceFile(idl_.get(), &diags))
        << diags.ToString();
    ASSERT_TRUE(ApplyPdlText(*idl_, Side::kClient,
                             "[comm_status] int NFSPROC_READ(file, offset, "
                             "count, totalcount, [special] data, "
                             "attributes, status);",
                             "nfs.pdl", &set_, &diags))
        << diags.ToString();
    op_ = &idl_->interfaces[0].ops[0];
    pres_ = set_.Find("NFS_VERSION")->FindOp("NFSPROC_READ");
    ASSERT_NE(pres_, nullptr);
    plan_ = CompileSpecPlan(*op_, *pres_);
  }

  int Verify(DiagnosticSink* diags) {
    return VerifySpecPlan(*op_, *pres_, plan_, "nfs.x", diags);
  }

  SpecProgram& Stream(SpecStream s) {
    return plan_.streams[static_cast<size_t>(s)];
  }

  // First superinstruction of `kind` in `s`; the fixture's streams are
  // known to contain each kind the mutations below target.
  SpecOp& OpOfKind(SpecStream s, SpecOpKind kind) {
    for (SpecOp& op : Stream(s).ops) {
      if (op.kind == kind) {
        return op;
      }
    }
    ADD_FAILURE() << "no " << SpecOpKindName(kind) << " in stream";
    return Stream(s).ops.front();
  }

  std::unique_ptr<InterfaceFile> idl_;
  PresentationSet set_;
  const OperationDecl* op_ = nullptr;
  const OpPresentation* pres_ = nullptr;
  SpecPlan plan_;
};

TEST_F(SpecVerifierTest, CompiledPlansProveClean) {
  ASSERT_TRUE(plan_.Emits(static_cast<size_t>(SpecStream::kMarshalRequest)));
  ASSERT_TRUE(plan_.Emits(static_cast<size_t>(SpecStream::kUnmarshalReply)));
  DiagnosticSink diags;
  EXPECT_EQ(Verify(&diags), 0) << diags.ToString();
}

TEST_F(SpecVerifierTest, Flex201EffectCountDiverges) {
  Stream(SpecStream::kMarshalRequest).ops.pop_back();
  DiagnosticSink diags;
  EXPECT_GE(Verify(&diags), 1);
  EXPECT_GE(diags.CountCode("FLEX201"), 1) << diags.ToString();
}

TEST_F(SpecVerifierTest, Flex202EffectKindDiverges) {
  SpecOp& op =
      OpOfKind(SpecStream::kMarshalRequest, SpecOpKind::kPutScalarSlot);
  op.kind = SpecOpKind::kPutBytesFixed;  // scalar became a byte run
  op.count = 4;
  DiagnosticSink diags;
  EXPECT_GE(Verify(&diags), 1);
  EXPECT_GE(diags.CountCode("FLEX202"), 1) << diags.ToString();
}

TEST_F(SpecVerifierTest, Flex203OperandDiverges) {
  SpecOp& op =
      OpOfKind(SpecStream::kMarshalRequest, SpecOpKind::kPutScalarSlot);
  op.slot += 1;  // reads the neighboring argument
  DiagnosticSink diags;
  EXPECT_GE(Verify(&diags), 1);
  EXPECT_GE(diags.CountCode("FLEX203"), 1) << diags.ToString();
}

TEST_F(SpecVerifierTest, Flex204LengthDisciplineDiverges) {
  SpecOp& op =
      OpOfKind(SpecStream::kUnmarshalReply, SpecOpKind::kGetSeqBytes);
  op.bound += 4;  // admits wire lengths the plan rejects
  DiagnosticSink diags;
  EXPECT_GE(Verify(&diags), 1);
  EXPECT_GE(diags.CountCode("FLEX204"), 1) << diags.ToString();
}

TEST_F(SpecVerifierTest, Flex206DestinationPolicyDiverges) {
  SpecOp& op =
      OpOfKind(SpecStream::kUnmarshalReply, SpecOpKind::kGetSeqBytes);
  op.special = !op.special;  // bypasses the [special] copy routine
  DiagnosticSink diags;
  EXPECT_GE(Verify(&diags), 1);
  EXPECT_GE(diags.CountCode("FLEX206"), 1) << diags.ToString();
}

TEST_F(SpecVerifierTest, Flex207UnionDiscriminantDiverges) {
  SpecOp& op =
      OpOfKind(SpecStream::kUnmarshalReply, SpecOpKind::kGetUnionDisc);
  op.label += 1;  // decodes the wrong arm as success
  DiagnosticSink diags;
  EXPECT_GE(Verify(&diags), 1);
  EXPECT_GE(diags.CountCode("FLEX207"), 1) << diags.ToString();
}

TEST(SpecVerifierRejectionTest, Flex205ReportsUnspecializableStream) {
  // A struct of kMaxSpecOps + 8 longs unrolls to one op per field, past
  // the op budget: the stream compiles, the reference executor runs it,
  // and `idlc --specialize` does not emit it; FLEX205 says why.
  std::string fields;
  for (size_t i = 0; i < kMaxSpecOps + 8; ++i) {
    fields += StrFormat(" long f%zu;", i);
  }
  const std::string idl_text =
      "struct Wide {" + fields + " };\n"
      "interface V { void push(in Wide v); };";
  auto idl = MustParseCorba(idl_text);
  PresentationSet client = MustApply(*idl, Side::kClient);
  PresentationSet server = MustApply(*idl, Side::kServer);
  const OperationDecl& op = idl->interfaces[0].ops[0];
  const OpPresentation* pres = client.Find("V")->FindOp("push");
  ASSERT_NE(pres, nullptr);
  SpecPlan plan = CompileSpecPlan(op, *pres);
  const auto request = static_cast<size_t>(SpecStream::kMarshalRequest);

  // Compiled: one op per field, proven against the plan like any stream.
  ASSERT_EQ(plan.streams[request].ops.size(), kMaxSpecOps + 8);
  EXPECT_EQ(plan.streams[request].ops[0].kind, SpecOpKind::kPutScalarMem);
  DiagnosticSink diags;
  EXPECT_EQ(VerifySpecPlan(op, *pres, plan, "t.idl", &diags), 0)
      << diags.ToString();

  // Not emitted: the unit registers the empty reply streams only.
  EXPECT_FALSE(plan.Emits(request));
  DiagnosticSink gen_diags;
  SpecGenStats stats;
  auto generated = GenerateSpecializations(*idl, client, server,
                                           SpecGenOptions{}, "t.idl",
                                           idl_text, "", &gen_diags, &stats);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(generated->source.find("Spec0MarshalRequest"),
            std::string::npos);
  EXPECT_NE(generated->source.find("Spec0MarshalReply"), std::string::npos);
  EXPECT_EQ(stats.streams_emitted, 2u);

  // Reported, with the compiler's reason.
  EXPECT_GE(ReportUnspecializedStreams(plan, "t.idl", &diags), 1);
  EXPECT_GE(diags.CountCode("FLEX205"), 1) << diags.ToString();
  EXPECT_NE(diags.ToString().find(
                "push marshal_request: 200 ops, past the op budget of 192"),
            std::string::npos)
      << diags.ToString();
}

TEST(SpecVerifierCatalogTest, Stage3CodesAreCatalogued) {
  for (const char* code : {"FLEX201", "FLEX202", "FLEX203", "FLEX204",
                           "FLEX205", "FLEX206", "FLEX207"}) {
    const FlexCodeInfo* info = FindFlexCode(code);
    ASSERT_NE(info, nullptr) << code;
    // FLEX205 is advice (a stream left out runs on the reference
    // executor, correctly); every divergence code is a hard error.
    EXPECT_EQ(info->severity, std::string_view(code) == "FLEX205"
                                  ? DiagSeverity::kWarning
                                  : DiagSeverity::kError)
        << code;
  }
}

}  // namespace
}  // namespace flexrpc
