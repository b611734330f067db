// Merging a PDL file over the default presentation, with validation.
//
// ApplyPdl resolves PDL declarations against the IDL, producing one
// InterfacePresentation per interface. By construction nothing here can
// alter the network contract: the output only carries stub-level bindings
// and attributes; the wire signature (src/sig/) is derived solely from the
// InterfaceFile.
//
// Validation is the presentation rules of src/pdl/lint.h at error
// severity: ApplyPdl fails on any of them, so an unsound annotation is
// refused where it is applied. Those diagnostics carry their FLEX code and
// name the IDL file and item; the merge's own errors (an unknown op, type
// or attribute, a slot named twice) name the PDL file and position.

#ifndef FLEXRPC_SRC_PDL_APPLY_H_
#define FLEXRPC_SRC_PDL_APPLY_H_

#include <map>
#include <string>

#include "src/idl/ast.h"
#include "src/pdl/pdl_parser.h"
#include "src/pdl/presentation.h"
#include "src/support/diag.h"

namespace flexrpc {

// All presentations for one endpoint of one interface file.
struct PresentationSet {
  Side side = Side::kClient;
  std::map<std::string, InterfacePresentation> by_interface;

  const InterfacePresentation* Find(std::string_view interface_name) const {
    auto it = by_interface.find(std::string(interface_name));
    return it == by_interface.end() ? nullptr : &it->second;
  }
};

// Builds default presentations for every interface in `idl` and overlays
// `pdl` (which may be null for a pure default presentation). Returns false
// and reports to `diags` if the PDL does not merge or the result breaks an
// error-severity presentation rule.
bool ApplyPdl(const InterfaceFile& idl, Side side, const PdlFile* pdl,
              PresentationSet* out, DiagnosticSink* diags);

// Convenience: parse PDL text and apply it in one step.
bool ApplyPdlText(const InterfaceFile& idl, Side side,
                  std::string_view pdl_text, std::string pdl_filename,
                  PresentationSet* out, DiagnosticSink* diags);

// --- Binding helpers shared with the marshal/codegen stages ---

// Type of the wire item a binding denotes (null for kPresentationOnly).
const Type* BindingType(const OperationDecl& op, const Binding& binding);

// Data-flow direction of the bound item (kResult* bindings are kOut).
ParamDir BindingDir(const OperationDecl& op, const Binding& binding);

// If `op` has exactly one in/inout parameter and its type resolves to a
// struct, returns that parameter's index; otherwise -1. This is the
// argument a Figure 1-style flattened presentation explodes.
int FlattenableArgIndex(const OperationDecl& op);

// If the operation result resolves to a union whose non-default arms carry
// a single struct (the Sun RPC `readres` shape) returns that struct; if the
// result is itself a struct, returns it; otherwise null.
const Type* FlattenableResultStruct(const OperationDecl& op);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_PDL_APPLY_H_
