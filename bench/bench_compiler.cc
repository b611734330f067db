// Compiler-pipeline benchmark (sanity, not a paper figure): the cost of
// each stage of the stub compiler — parsing, PDL application, signature
// derivation, marshal-program compilation, and C++ emission — plus the
// per-call cost of the compiled marshal programs on the SysLog and NFS
// workloads.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/analysis/spec_verifier.h"
#include "src/apps/nfs.h"
#include "src/codegen/cpp_gen.h"
#include "src/marshal/spec.h"
#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/xdr.h"
#include "src/pdl/apply.h"
#include "src/sig/signature.h"

namespace {

void BM_ParseNfsIdl(benchmark::State& state) {
  for (auto _ : state) {
    flexrpc::DiagnosticSink diags;
    auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
    benchmark::DoNotOptimize(idl);
  }
}

void BM_AnalyzeAndPresent(benchmark::State& state) {
  for (auto _ : state) {
    flexrpc::DiagnosticSink diags;
    auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
    (void)flexrpc::AnalyzeInterfaceFile(idl.get(), &diags);
    flexrpc::PresentationSet pres;
    (void)flexrpc::ApplyPdlText(*idl, flexrpc::Side::kClient,
                                flexrpc::NfsClientPdlText(), "nfs.pdl",
                                &pres, &diags);
    benchmark::DoNotOptimize(pres);
  }
}

void BM_BuildSignature(benchmark::State& state) {
  flexrpc::DiagnosticSink diags;
  auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
  (void)flexrpc::AnalyzeInterfaceFile(idl.get(), &diags);
  for (auto _ : state) {
    auto sig = flexrpc::BuildSignature(idl->interfaces[0]);
    benchmark::DoNotOptimize(flexrpc::SignatureHash(sig));
  }
}

void BM_BuildMarshalProgram(benchmark::State& state) {
  flexrpc::DiagnosticSink diags;
  auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
  (void)flexrpc::AnalyzeInterfaceFile(idl.get(), &diags);
  flexrpc::PresentationSet pres;
  (void)flexrpc::ApplyPdlText(*idl, flexrpc::Side::kClient,
                              flexrpc::NfsClientPdlText(), "nfs.pdl",
                              &pres, &diags);
  const flexrpc::OperationDecl& op = idl->interfaces[0].ops[0];
  const flexrpc::OpPresentation& op_pres =
      *pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ");
  for (auto _ : state) {
    auto prog = flexrpc::MarshalProgram::Build(op, op_pres);
    benchmark::DoNotOptimize(prog.slot_count());
  }
}

void BM_GenerateCpp(benchmark::State& state) {
  flexrpc::DiagnosticSink diags;
  auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
  (void)flexrpc::AnalyzeInterfaceFile(idl.get(), &diags);
  flexrpc::PresentationSet client;
  flexrpc::PresentationSet server;
  (void)flexrpc::ApplyPdlText(*idl, flexrpc::Side::kClient,
                              flexrpc::NfsClientPdlText(), "nfs.pdl",
                              &client, &diags);
  (void)flexrpc::ApplyPdl(*idl, flexrpc::Side::kServer, nullptr, &server,
                          &diags);
  flexrpc::CppGenOptions options;
  options.header_name = "nfs.flexgen.h";
  for (auto _ : state) {
    auto generated = flexrpc::GenerateCpp(*idl, client, server, options);
    benchmark::DoNotOptimize(generated->header.size());
  }
}

void BM_MarshalNfsRequest(benchmark::State& state) {
  flexrpc::DiagnosticSink diags;
  auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
  (void)flexrpc::AnalyzeInterfaceFile(idl.get(), &diags);
  flexrpc::PresentationSet pres;
  (void)flexrpc::ApplyPdlText(*idl, flexrpc::Side::kClient,
                              flexrpc::NfsClientPdlText(), "nfs.pdl",
                              &pres, &diags);
  auto prog = flexrpc::MarshalProgram::Build(
      idl->interfaces[0].ops[0],
      *pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  uint8_t fh[32] = {};
  flexrpc::ArgVec args(prog.slot_count());
  args[prog.SlotOf("file")].set_ptr(fh);
  args[prog.SlotOf("offset")].scalar = 0;
  args[prog.SlotOf("count")].scalar = 8192;
  args[prog.SlotOf("totalcount")].scalar = 8192;
  for (auto _ : state) {
    flexrpc::XdrWriter w;
    (void)prog.MarshalRequest(args, &w);
    benchmark::DoNotOptimize(w.size());
  }
}

}  // namespace

BENCHMARK(BM_ParseNfsIdl)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnalyzeAndPresent)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BuildSignature)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BuildMarshalProgram)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GenerateCpp)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MarshalNfsRequest)->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  flexrpc_bench::BenchHarness harness("compiler", &argc, argv);
  harness.RunMicrobenchmarks();

  using flexrpc_bench::PrintHeader;
  using flexrpc_bench::PrintRule;

  PrintHeader("Stub-compiler pipeline: cost per stage (fixed iterations)");

  // Fixed-iteration re-measurement of each stage so the stage mix (and
  // its trace counters) lands in the JSON artifact.
  auto time_stage = [&](const char* name, int full_iters, int smoke_iters,
                        const std::function<void()>& body) {
    int iters = harness.calls(full_iters, smoke_iters);
    double us = harness.Untraced([&] {
      flexrpc::Stopwatch timer;
      for (int i = 0; i < iters; ++i) {
        body();
      }
      return static_cast<double>(timer.ElapsedNanos()) / iters / 1e3;
    });
    // One traced iteration: the artifact counts a single execution of the
    // stage, independent of the timing iteration count.
    harness.Traced(body);
    std::printf("%-28s %10.2f us/iter\n", name, us);
    harness.Report(name, us, "us/iter");
  };

  flexrpc::DiagnosticSink diags;
  auto idl = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &diags);
  (void)flexrpc::AnalyzeInterfaceFile(idl.get(), &diags);
  flexrpc::PresentationSet pres;
  (void)flexrpc::ApplyPdlText(*idl, flexrpc::Side::kClient,
                              flexrpc::NfsClientPdlText(), "nfs.pdl", &pres,
                              &diags);
  flexrpc::PresentationSet server;
  (void)flexrpc::ApplyPdl(*idl, flexrpc::Side::kServer, nullptr, &server,
                          &diags);

  time_stage("parse_nfs_idl", 500, 5, [&] {
    flexrpc::DiagnosticSink d;
    auto parsed = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &d);
    benchmark::DoNotOptimize(parsed);
  });
  time_stage("analyze_and_present", 200, 2, [&] {
    flexrpc::DiagnosticSink d;
    auto parsed = flexrpc::ParseSunRpc(flexrpc::NfsIdlText(), "nfs.x", &d);
    (void)flexrpc::AnalyzeInterfaceFile(parsed.get(), &d);
    flexrpc::PresentationSet p;
    (void)flexrpc::ApplyPdlText(*parsed, flexrpc::Side::kClient,
                                flexrpc::NfsClientPdlText(), "nfs.pdl", &p,
                                &d);
    benchmark::DoNotOptimize(p);
  });
  time_stage("build_signature", 2000, 20, [&] {
    auto sig = flexrpc::BuildSignature(idl->interfaces[0]);
    benchmark::DoNotOptimize(flexrpc::SignatureHash(sig));
  });
  time_stage("build_marshal_program", 2000, 20, [&] {
    auto prog = flexrpc::MarshalProgram::Build(
        idl->interfaces[0].ops[0],
        *pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
    benchmark::DoNotOptimize(prog.slot_count());
  });
  time_stage("generate_cpp", 200, 2, [&] {
    flexrpc::CppGenOptions options;
    options.header_name = "nfs.flexgen.h";
    auto generated = flexrpc::GenerateCpp(*idl, pres, server, options);
    benchmark::DoNotOptimize(generated->header.size());
  });

  auto prog = flexrpc::MarshalProgram::Build(
      idl->interfaces[0].ops[0],
      *pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ"));
  uint8_t fh[32] = {};
  flexrpc::ArgVec args(prog.slot_count());
  args[prog.SlotOf("file")].set_ptr(fh);
  args[prog.SlotOf("offset")].scalar = 0;
  args[prog.SlotOf("count")].scalar = 8192;
  args[prog.SlotOf("totalcount")].scalar = 8192;
  time_stage("marshal_nfs_read_request", 1000000, 100, [&] {
    flexrpc::XdrWriter w;
    (void)prog.MarshalRequest(args, &w);
    benchmark::DoNotOptimize(w.size());
  });

  // flexspec stages: compiling a superinstruction plan, proving it
  // equivalent, and the reference-executor-vs-fused A/B on the same
  // program.
  const flexrpc::OperationDecl& read_op = idl->interfaces[0].ops[0];
  const flexrpc::OpPresentation& read_pres =
      *pres.Find("NFS_VERSION")->FindOp("NFSPROC_READ");
  time_stage("compile_spec_plan", 2000, 20, [&] {
    auto plan = flexrpc::CompileSpecPlan(read_op, read_pres);
    benchmark::DoNotOptimize(plan.EmitsAny());
  });
  time_stage("verify_spec_plan", 500, 5, [&] {
    auto plan = flexrpc::CompileSpecPlan(read_op, read_pres);
    flexrpc::DiagnosticSink d;
    int divergences =
        flexrpc::VerifySpecPlan(read_op, read_pres, plan, "nfs.x", &d);
    benchmark::DoNotOptimize(divergences);
  });
  flexrpc::SetMarshalSpecializationEnabled(false);
  time_stage("marshal_nfs_read_reference", 1000000, 100, [&] {
    flexrpc::XdrWriter w;
    (void)prog.MarshalRequest(args, &w);
    benchmark::DoNotOptimize(w.size());
  });
  flexrpc::SetMarshalSpecializationEnabled(true);
  time_stage("marshal_nfs_read_fused", 1000000, 100, [&] {
    flexrpc::XdrWriter w;
    (void)prog.MarshalRequest(args, &w);
    benchmark::DoNotOptimize(w.size());
  });
  PrintRule();
  return harness.Finish();
}
