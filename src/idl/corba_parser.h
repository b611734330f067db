// CORBA IDL front-end.
//
// Parses the CORBA 1.1 IDL subset exercised by the paper: modules,
// interfaces (with inheritance), operations with in/out/inout parameters,
// typedef/struct/enum/union/const declarations, strings, bounded and
// unbounded sequences, and fixed arrays.

#ifndef FLEXRPC_SRC_IDL_CORBA_PARSER_H_
#define FLEXRPC_SRC_IDL_CORBA_PARSER_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/idl/ast.h"
#include "src/support/diag.h"
#include "src/support/status.h"

namespace flexrpc {

// Parses CORBA IDL text into an InterfaceFile. Parse errors go to `diags`;
// the returned pointer is null when any error was reported.
std::unique_ptr<InterfaceFile> ParseCorbaIdl(std::string_view source,
                                             std::string filename,
                                             DiagnosticSink* diags);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_IDL_CORBA_PARSER_H_
