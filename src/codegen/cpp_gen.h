// C++ stub generation: the compiler back-end that turns (interface ×
// presentation) into compilable source.
//
// For each interface the generator emits:
//   * C++ declarations for the IDL's named types (structs, enums, unions)
//     whose memory layout matches the runtime engine's native layout —
//     generated code and compiled marshal programs interoperate on the
//     same bytes (checked by static_asserts in the generated header);
//   * a client proxy class whose method signatures are shaped by the
//     *client* presentation (explicit lengths, caller buffers, flattened
//     parameters all change the prototype, exactly as the paper's §1
//     SysLog example shows);
//   * a server skeleton (abstract base class) shaped by the *server*
//     presentation, with a Register() that installs the virtual work
//     functions on a ServerObject.
//
// The generated stub bodies delegate marshaling to the bind-time-compiled
// MarshalProgram, so the wire behavior of generated and runtime stubs is
// identical by construction (differential-tested in codegen_test.cc).

#ifndef FLEXRPC_SRC_CODEGEN_CPP_GEN_H_
#define FLEXRPC_SRC_CODEGEN_CPP_GEN_H_

#include <string>

#include "src/idl/ast.h"
#include "src/pdl/apply.h"
#include "src/support/status.h"

namespace flexrpc {

struct CppGenOptions {
  std::string ns = "flexgen";       // namespace for generated code
  std::string header_name;          // e.g. "syslog.flexgen.h" for includes
};

struct GeneratedCode {
  std::string header;
  std::string source;
};

// Generates stubs for every interface in `idl` under the presentations in
// `client_pres` / `server_pres` (either may be identical to the other).
Result<GeneratedCode> GenerateCpp(const InterfaceFile& idl,
                                  const PresentationSet& client_pres,
                                  const PresentationSet& server_pres,
                                  const CppGenOptions& options);

// The C++ spelling of an IDL type in parameter position (helper exposed
// for tests). `is_input` selects const-ness for pointer types.
std::string CppTypeName(const Type* type);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_CODEGEN_CPP_GEN_H_
