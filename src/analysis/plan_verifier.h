// flexcheck stage 2: the marshal-plan verifier.
//
// A MarshalProgram is the runtime analogue of the paper's bind-time
// combination signature: a compiled list of wire items executed per call.
// This pass audits a plan the way a bytecode verifier audits a method:
//
//   * every wire item of the operation appears exactly once, in IDL order
//     (request = in/inout params; reply = inout/out params then the
//     result)                                                    [FLEX101]
//   * every slot index is within slot_count                      [FLEX102]
//   * a [length_is] slot carried on the wire is marshaled before the
//     buffer that references it                                  [FLEX103]
//   * the result occupies the final slot                         [FLEX104]
//   * no slot carries two wire items of one stream, which would make
//     ReleaseRequest/ReleaseReply free it twice                  [FLEX105]
//   * flattened items have a slot for every field (and the union
//     discriminant)                                              [FLEX106]
//
// The verifier consumes the MarshalPlanView a program runs, so tests can
// corrupt a copy and prove each violation is caught. `idlc --check` runs
// it over every operation of an interface file, and CI runs that over the
// shipped example interfaces.

#ifndef FLEXRPC_SRC_ANALYSIS_PLAN_VERIFIER_H_
#define FLEXRPC_SRC_ANALYSIS_PLAN_VERIFIER_H_

#include <string>

#include "src/idl/ast.h"
#include "src/marshal/engine.h"
#include "src/support/diag.h"

namespace flexrpc {

// Audits `plan` against the operation and presentation it was compiled
// from. Diagnostics are attributed to `file`. Returns the number of
// diagnostics emitted (0 = plan verified clean).
int VerifyMarshalPlan(const OperationDecl& op, const OpPresentation& pres,
                      const MarshalPlanView& plan, const std::string& file,
                      DiagnosticSink* diags);

// Convenience: verifies a compiled program's own plan.
int VerifyProgram(const MarshalProgram& program, const std::string& file,
                  DiagnosticSink* diags);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_ANALYSIS_PLAN_VERIFIER_H_
