// idlc — the flexrpc stub compiler driver.
//
// Reads an interface definition (CORBA IDL or Sun RPC language), optionally
// applies per-side PDL files, and emits C++ stubs:
//
//   idlc --idl pipe.idl [--sun]
//        [--client-pdl client.pdl] [--server-pdl server.pdl]
//        [--namespace ns] [--out-dir DIR] [--basename NAME]
//        [--dump-signature] [--check] [--lint] [--advise] [--Werror]
//        [--specialize]
//
// Outputs <basename>.flexgen.h and <basename>.flexgen.cc in --out-dir.
// --check parses, validates, and runs the flexcheck marshal-plan verifier
// over every compiled (operation, side) program, plus the stage-3 flexspec
// equivalence prover over every compiled superinstruction stream. Every
// run refuses a PDL that breaks an error-severity presentation rule
// (FLEXnnn; ApplyPdl enforces them); --lint adds the rules' warnings,
// --advise their §4 advisor notes; --Werror makes warnings fail the run;
// --dump-signature prints the canonical wire signature (hex) of every
// interface.
//
// --specialize additionally emits <basename>.flexspec.h/.cc — fused
// marshal superinstructions (one `for` per loop), each proven
// wire-equivalent to its plan before emission (divergence blocks the
// run). It plans each side's default presentation beside the one given,
// so the unit also serves a stub bound to the default. Every stream the
// prover accepts is emitted unless it runs past the op budget (FLEX205);
// such a stream runs on the reference executor. The header also holds
// the --idl and --client-pdl texts byte for byte, as kIdlSource and
// kClientPdlSource ("" without --client-pdl): a stub that binds from them
// binds exactly the plans the unit registers.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/analysis/plan_verifier.h"
#include "src/analysis/spec_verifier.h"
#include "src/codegen/cpp_gen.h"
#include "src/codegen/spec_gen.h"
#include "src/idl/corba_parser.h"
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/engine.h"
#include "src/pdl/apply.h"
#include "src/pdl/lint.h"
#include "src/sig/signature.h"
#include "src/support/strings.h"

namespace {

struct Options {
  std::string idl_path;
  bool sun = false;
  std::string client_pdl_path;
  std::string server_pdl_path;
  std::string ns = "flexgen";
  std::string out_dir = ".";
  std::string basename;
  bool dump_signature = false;
  bool check_only = false;
  bool lint = false;
  bool advise = false;
  bool werror = false;
  bool specialize = false;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --idl FILE [--sun] [--client-pdl FILE] [--server-pdl "
      "FILE]\n            [--namespace NS] [--out-dir DIR] [--basename "
      "NAME] [--dump-signature]\n            [--check] [--lint] [--advise] "
      "[--Werror]\n            [--specialize]\n",
      argv0);
  return 2;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string BasenameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--idl") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      opt.idl_path = v;
    } else if (arg == "--sun") {
      opt.sun = true;
    } else if (arg == "--client-pdl") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      opt.client_pdl_path = v;
    } else if (arg == "--server-pdl") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      opt.server_pdl_path = v;
    } else if (arg == "--namespace") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      opt.ns = v;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      opt.out_dir = v;
    } else if (arg == "--basename") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      opt.basename = v;
    } else if (arg == "--dump-signature") {
      opt.dump_signature = true;
    } else if (arg == "--check") {
      opt.check_only = true;
    } else if (arg == "--lint") {
      opt.lint = true;
    } else if (arg == "--advise") {
      opt.advise = true;
    } else if (arg == "--Werror") {
      opt.werror = true;
    } else if (arg == "--specialize") {
      opt.specialize = true;
    } else {
      std::fprintf(stderr, "idlc: unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (opt.idl_path.empty()) {
    return Usage(argv[0]);
  }
  if (opt.basename.empty()) {
    opt.basename = BasenameOf(opt.idl_path);
  }

  std::string idl_text;
  if (!ReadFileToString(opt.idl_path, &idl_text)) {
    std::fprintf(stderr, "idlc: cannot read '%s'\n", opt.idl_path.c_str());
    return 1;
  }

  flexrpc::DiagnosticSink diags;
  auto idl = opt.sun
                 ? flexrpc::ParseSunRpc(idl_text, opt.idl_path, &diags)
                 : flexrpc::ParseCorbaIdl(idl_text, opt.idl_path, &diags);
  if (idl == nullptr || !flexrpc::AnalyzeInterfaceFile(idl.get(), &diags)) {
    std::fputs(diags.ToString().c_str(), stderr);
    return 1;
  }

  // `pdl_text` receives the PDL read (--specialize embeds the client's).
  auto apply_side = [&](flexrpc::Side side, const std::string& pdl_path,
                        std::string* pdl_text, flexrpc::PresentationSet* out) {
    if (pdl_path.empty()) {
      return flexrpc::ApplyPdl(*idl, side, nullptr, out, &diags);
    }
    if (!ReadFileToString(pdl_path, pdl_text)) {
      std::fprintf(stderr, "idlc: cannot read '%s'\n", pdl_path.c_str());
      return false;
    }
    return flexrpc::ApplyPdlText(*idl, side, *pdl_text, pdl_path, out,
                                 &diags);
  };

  std::string client_pdl_text;
  std::string server_pdl_text;
  flexrpc::PresentationSet client_pres;
  flexrpc::PresentationSet server_pres;
  if (!apply_side(flexrpc::Side::kClient, opt.client_pdl_path,
                  &client_pdl_text, &client_pres) ||
      !apply_side(flexrpc::Side::kServer, opt.server_pdl_path,
                  &server_pdl_text, &server_pres)) {
    std::fputs(diags.ToString().c_str(), stderr);
    return 1;
  }

  if (opt.dump_signature) {
    for (const flexrpc::InterfaceDecl& itf : idl->interfaces) {
      flexrpc::InterfaceSignature sig = flexrpc::BuildSignature(itf);
      flexrpc::ByteWriter w;
      flexrpc::EncodeSignature(sig, &w);
      std::printf("%s (hash %016llx): ", itf.name.c_str(),
                  static_cast<unsigned long long>(
                      flexrpc::SignatureHash(sig)));
      for (uint8_t byte : w.span()) {
        std::printf("%02x", byte);
      }
      std::printf("\n");
    }
  }
  if (opt.lint) {
    flexrpc::LintOptions lint_opts;
    lint_opts.advisors = opt.advise;
    flexrpc::LintPresentationSet(*idl, client_pres, &diags, lint_opts);
    flexrpc::LintPresentationSet(*idl, server_pres, &diags, lint_opts);
  }
  if (opt.check_only) {
    // Audit every (operation, side) marshal program the runtime would
    // compile at bind time — flexcheck stage 2 — then prove each of its
    // compiled streams wire-equivalent to it (stage 3, FLEX2xx). Streams
    // that --specialize would not emit run on the reference executor;
    // --check only reports them under --specialize.
    for (const flexrpc::InterfaceDecl& itf : idl->interfaces) {
      for (const flexrpc::PresentationSet* set :
           {&client_pres, &server_pres}) {
        const flexrpc::InterfacePresentation* pres = set->Find(itf.name);
        for (const flexrpc::OperationDecl& op : itf.ops) {
          const flexrpc::OpPresentation* op_pres = pres->FindOp(op.name);
          flexrpc::MarshalProgram program =
              flexrpc::MarshalProgram::Build(op, *op_pres);
          flexrpc::VerifyProgram(program, opt.idl_path, &diags);
          flexrpc::SpecPlan spec_plan =
              flexrpc::CompileSpecPlan(op, *op_pres);
          flexrpc::VerifySpecPlan(op, *op_pres, spec_plan, opt.idl_path,
                                  &diags);
        }
      }
    }
  }

  // Print everything collected — warnings and notes included, so lint
  // output is visible (and machine-checkable) even on success.
  if (!diags.diagnostics().empty()) {
    std::fputs(diags.ToString().c_str(), stderr);
  }
  if (diags.HasErrors() || (opt.werror && diags.HasWarnings())) {
    return 1;
  }
  if (opt.check_only) {
    std::fprintf(stderr, "idlc: %s OK (%zu interface(s))\n",
                 opt.idl_path.c_str(), idl->interfaces.size());
    return 0;
  }

  flexrpc::CppGenOptions gen_options;
  gen_options.ns = opt.ns;
  gen_options.header_name = opt.basename + ".flexgen.h";
  auto generated =
      flexrpc::GenerateCpp(*idl, client_pres, server_pres, gen_options);
  if (!generated.ok()) {
    std::fprintf(stderr, "idlc: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }

  std::string header_path =
      opt.out_dir + "/" + opt.basename + ".flexgen.h";
  std::string source_path =
      opt.out_dir + "/" + opt.basename + ".flexgen.cc";
  std::ofstream header(header_path, std::ios::binary);
  std::ofstream source(source_path, std::ios::binary);
  if (!header || !source) {
    std::fprintf(stderr, "idlc: cannot write outputs under '%s'\n",
                 opt.out_dir.c_str());
    return 1;
  }
  header << generated->header;
  source << generated->source;
  std::fprintf(stderr, "idlc: wrote %s and %s\n", header_path.c_str(),
               source_path.c_str());

  if (!opt.specialize) {
    return 0;
  }

  flexrpc::SpecGenOptions spec_options;
  spec_options.ns = opt.ns;
  spec_options.header_name = opt.basename + ".flexspec.h";
  flexrpc::SpecGenStats spec_stats;
  flexrpc::DiagnosticSink spec_diags;  // fresh: earlier ones are printed
  auto spec_generated = flexrpc::GenerateSpecializations(
      *idl, client_pres, server_pres, spec_options, opt.idl_path, idl_text,
      client_pdl_text, &spec_diags, &spec_stats);
  // Everything the prover said, warnings (FLEX205) included.
  if (!spec_diags.diagnostics().empty()) {
    std::fputs(spec_diags.ToString().c_str(), stderr);
  }
  for (const std::string& note : spec_stats.notes) {
    std::fprintf(stderr, "idlc: specialize: %s\n", note.c_str());
  }
  if (!spec_generated.ok()) {
    std::fprintf(stderr, "idlc: %s\n",
                 spec_generated.status().ToString().c_str());
    return 1;
  }
  std::string spec_header_path =
      opt.out_dir + "/" + opt.basename + ".flexspec.h";
  std::string spec_source_path =
      opt.out_dir + "/" + opt.basename + ".flexspec.cc";
  std::ofstream spec_header(spec_header_path, std::ios::binary);
  std::ofstream spec_source(spec_source_path, std::ios::binary);
  if (!spec_header || !spec_source) {
    std::fprintf(stderr, "idlc: cannot write outputs under '%s'\n",
                 opt.out_dir.c_str());
    return 1;
  }
  spec_header << spec_generated->header;
  spec_source << spec_generated->source;
  std::fprintf(stderr,
               "idlc: wrote %s and %s (%zu plan(s), %zu stream(s))\n",
               spec_header_path.c_str(), spec_source_path.c_str(),
               spec_stats.plans_emitted, spec_stats.streams_emitted);
  return 0;
}
