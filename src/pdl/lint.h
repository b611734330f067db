// flexcheck stage 1: the presentation rules.
//
// Presentation annotations are *semantic promises* ([trashable],
// [preserved], [dealloc], trust levels) the stub compiler exploits for copy
// elision (paper §4) — a wrong or inconsistent annotation silently becomes
// memory corruption or a leak at runtime instead of a compile error. The
// rules run on (InterfaceFile, InterfacePresentation) pairs and report every
// finding as a coded diagnostic (FLEX001–FLEX013) that names the IDL file
// and the IDL item, so CI and tests can assert on exact codes.
//
// Severities (the catalog in src/support/diag.h):
//   error   — the combination is unsound (double free, violated contract).
//             ApplyPdl runs exactly these rules and refuses a presentation
//             that breaks one, so no runtime path binds such an annotation;
//   warning — legal but almost certainly not what the author meant;
//   note    — advisor findings (--advise): elidable copies the paper's §4
//             optimizations would remove if the author annotated them.
//
// LintPresentation (`idlc --lint`) runs the same rules plus the warnings,
// and the notes on request. Stage 2 (the marshal-plan verifier) lives in
// src/analysis/plan_verifier.h.

#ifndef FLEXRPC_SRC_PDL_LINT_H_
#define FLEXRPC_SRC_PDL_LINT_H_

#include "src/idl/ast.h"
#include "src/pdl/apply.h"
#include "src/pdl/presentation.h"
#include "src/support/diag.h"

namespace flexrpc {

struct LintOptions {
  // Emit the §4 advisor notes (FLEX011/FLEX012): elidable copies and
  // per-call allocations the author could annotate away. Off by default so
  // `idlc --lint` stays quiet on merely-unannotated interfaces.
  bool advisors = false;
};

// Lints one interface's presentation for one side: the errors and the
// warnings, plus the notes under `opts.advisors`. Returns the number of
// diagnostics emitted (all severities).
int LintPresentation(const InterfaceFile& idl, const InterfaceDecl& itf,
                     const InterfacePresentation& pres,
                     DiagnosticSink* diags, const LintOptions& opts = {});

// Lints every interface in `set` against `idl`.
int LintPresentationSet(const InterfaceFile& idl, const PresentationSet& set,
                        DiagnosticSink* diags, const LintOptions& opts = {});

// The error-severity rules alone over every interface in `set`: what
// ApplyPdl refuses. Returns the number of errors reported.
int CheckPresentationSet(const InterfaceFile& idl, const PresentationSet& set,
                         DiagnosticSink* diags);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_PDL_LINT_H_
