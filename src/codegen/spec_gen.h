// flexspec specialization emitter: `idlc --specialize`'s back end.
//
// Compiles every (operation × side presentation) of an interface file, each
// side's default presentation included, into SpecPlans
// (src/marshal/spec.h) and emits one C++ translation unit of fused
// marshal/unmarshal superinstruction functions plus a
// RegisterSpecializations() entry point that installs them in the flexspec
// registry. Its header carries the IDL and client PDL texts the unit was
// compiled from, so the stub that binds from them needs no copy of its own.
//
// The emitter prints operands only. Each function is one call per op to
// the op's step (src/marshal/spec_ops.h), the same code the reference
// executors run, with the op written as a literal; an arm branch is a
// forward `goto` and a loop a `for` around its body's step calls. The
// compiler folds each step to the op's own code.
//
// Proof obligation: emission is gated on the flexcheck stage-3 verifier
// (src/analysis/spec_verifier.h). Every stream of every plan is proven
// wire-equivalent to its marshal plan before any code is generated; a
// single FLEX2xx divergence blocks the whole unit. A stream past the op
// budget (kMaxSpecOps) is not emitted: it surfaces as a FLEX205 warning
// and the engine runs it on the reference executor — never a correctness
// risk, only a missed speedup.

#ifndef FLEXRPC_SRC_CODEGEN_SPEC_GEN_H_
#define FLEXRPC_SRC_CODEGEN_SPEC_GEN_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/codegen/cpp_gen.h"
#include "src/idl/ast.h"
#include "src/marshal/spec.h"
#include "src/pdl/apply.h"
#include "src/support/diag.h"
#include "src/support/status.h"

namespace flexrpc {

struct SpecGenOptions {
  std::string ns = "flexspec";
  // Name the generated source #includes; defaults to
  // "<basename>.flexspec.h" at the idlc driver level.
  std::string header_name = "generated.flexspec.h";
  // Test-only hook, applied to each plan after compilation but before
  // verification: lets tests corrupt a stream and prove the verifier
  // blocks emission. Never set by the driver.
  std::function<void(SpecPlan*)> mutate_for_test;
};

// Per-run accounting for --specialize logs and tests.
struct SpecGenStats {
  size_t plans_emitted = 0;
  size_t streams_emitted = 0;
  size_t plans_skipped_empty = 0;   // no stream to emit at all
  std::vector<std::string> notes;   // human-readable per-plan log lines
};

// Generates the specialization unit for `idl` under both side
// presentations and both sides' default presentations (a key planned once
// is emitted once, first come first served in that order: client, client
// default, server, server default). Reports
// FLEX201–FLEX207 errors and FLEX205 warnings to `diags` attributed to
// `source_file`; returns a non-OK status — and emits nothing — if any
// plan fails the equivalence proof. `stats` may be null.
//
// `idl_text` and `client_pdl_text` are the sources `idl` and
// `client_pres` were compiled from ("" for the default presentation).
// The header embeds them byte for byte as `kIdlSource` and
// `kClientPdlSource`, so a stub that binds from those constants binds the
// keys this unit registers. (A C++ compiler reads a CR LF line end inside
// a raw string literal as LF; both lexers read the two alike.)
Result<GeneratedCode> GenerateSpecializations(
    const InterfaceFile& idl, const PresentationSet& client_pres,
    const PresentationSet& server_pres, const SpecGenOptions& options,
    const std::string& source_file, std::string_view idl_text,
    std::string_view client_pdl_text, DiagnosticSink* diags,
    SpecGenStats* stats);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_CODEGEN_SPEC_GEN_H_
