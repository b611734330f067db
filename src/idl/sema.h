// Semantic checks over a parsed InterfaceFile, plus interface flattening.
//
// The parsers guarantee syntactic well-formedness; sema enforces the rules
// that span declarations: base interfaces must exist, inherited operations
// are folded into the derived interface (so later stages see a flat op list),
// operation names are unique per interface, parameter names are unique per
// operation, and recursive value types are rejected (object references may
// be recursive; by-value structs may not), as is any type an operation
// reaches that nests deeper than kMaxSequenceNesting, is larger than
// kMaxNativeSize in memory or expands to more than kMaxTypeNodes nodes
// (ast.h). Each type is checked once, however many declarations share it,
// and a type no operation reaches is not walked. (Duplicate names inside
// one struct, enum or union are refused as the parsers declare them, by
// TypeTable.)

#ifndef FLEXRPC_SRC_IDL_SEMA_H_
#define FLEXRPC_SRC_IDL_SEMA_H_

#include "src/idl/ast.h"
#include "src/support/diag.h"
#include "src/support/status.h"

namespace flexrpc {

// Runs all checks and interface flattening in place. Returns false (with
// details in `diags`) if the file is rejected.
bool AnalyzeInterfaceFile(InterfaceFile* file, DiagnosticSink* diags);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_IDL_SEMA_H_
