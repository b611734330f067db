// The presentation model: the "programmer's contract" between stubs and the
// code that calls or is called by them (paper §1).
//
// A Presentation never affects the network contract (the wire signature);
// it only controls how parameters are passed, who allocates/frees storage,
// what the endpoint may assume about buffer mutability, and which transport
// specializations (trust, name uniqueness) are safe. Every interface has a
// *default* presentation computed from the IDL by fixed rules (CORBA C
// mapping); a PDL file overrides parts of it for one endpoint.

#ifndef FLEXRPC_SRC_PDL_PRESENTATION_H_
#define FLEXRPC_SRC_PDL_PRESENTATION_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/idl/ast.h"

namespace flexrpc {

// Which endpoint a presentation file configures. Some attributes are only
// meaningful on one side (trashable: client; preserved: server).
enum class Side { kClient, kServer };

std::string_view SideName(Side side);

// Who provides the storage a returned (out/result) parameter lives in, as
// seen from one endpoint (paper §4.4.2). The two endpoints declare their
// preferences independently; the RPC system reconciles them.
//
//   * kUser on the client: the client passes in its own buffer for the stub
//     to fill ("client allocates" — MIG-style for non-COW parameters).
//   * kStub on the client: the stub hands back a system-allocated buffer the
//     client consumes and frees ("server allocates" — CORBA/COM move).
//   * kUser on the server: the work function returns a buffer it owns
//     (donated or retained, per DeallocPolicy) — CORBA/COM default.
//   * kStub on the server: the stub provides a buffer the work function
//     fills in place.
enum class AllocPolicy {
  kAuto,  // no constraint: let the RPC system pick
  kUser,  // this endpoint's application code provides/owns the buffer
  kStub,  // the stub / RPC system provides the buffer
};

// When the stub deallocates a buffer it was handed.
enum class DeallocPolicy {
  kDefault,  // follow the default presentation's rule for this param
  kNever,    // stub must not free: the endpoint manages its own storage
  kAlways,   // stub frees after marshaling (move semantics)
};

// Degree to which this endpoint trusts its peer (paper §4.5).
enum class TrustLevel {
  kNone,   // default: protect confidentiality and integrity
  kLeaky,  // peer may observe leaked data (confidentiality waived)
  kFull,   // [leaky, unprotected]: peer may also corrupt our state
};

std::string_view TrustLevelName(TrustLevel level);

// Where a stub-level parameter's data lives in the wire contract. The
// default presentation binds stub parameters 1:1 onto IDL parameters, but a
// PDL can *flatten* structured parameters: the paper's Figure 1 re-declares
// the Sun RPC `nfsproc_read(readargs)` stub so that the fields of `readargs`
// (and of the `readres` result union) appear as individual C parameters.
enum class BindingKind {
  kParam,               // the IDL parameter at param_index
  kParamField,          // field field_index of the struct param param_index
  kResult,              // the operation result
  kResultField,         // field field_index of the result's success arm
  kResultDiscriminant,  // the discriminant of a union-typed result
  kPresentationOnly,    // exists only in the stub prototype (e.g. a length)
};

struct Binding {
  BindingKind kind = BindingKind::kParam;
  int param_index = -1;
  int field_index = -1;

  bool operator==(const Binding&) const = default;
};

// Per-parameter presentation attributes.
struct ParamPresentation {
  std::string name;  // parameter name (or "return" for the result)

  // What wire item this stub-level parameter carries.
  Binding binding;

  // [length_is(p)]: buffer length travels in parameter `p` of the stub
  // prototype instead of being implied (e.g. by NUL termination).
  bool explicit_length = false;
  std::string length_param;

  // [special]: marshaled/unmarshaled through user-provided routines (the
  // Linux copyin/copyout and fbuf hooks of §4.1/§4.3).
  bool special = false;

  // [trashable] (client side): the endpoint does not care whether the
  // buffer's contents survive the call.
  bool trashable = false;

  // [preserved] (server side): the endpoint promises not to modify the
  // buffer it receives.
  bool preserved = false;

  // [nonunique] (objref params): the receiving task does not require the
  // transferred reference to map to a task-unique local name.
  bool nonunique = false;

  AllocPolicy alloc = AllocPolicy::kAuto;
  DeallocPolicy dealloc = DeallocPolicy::kDefault;

  // Original C declarator text from the PDL file (cosmetic; used by the
  // code generator to reproduce hand-written prototypes). Empty = derive.
  std::string declarator_text;

  // True when this parameter exists only in the presentation (e.g. an
  // explicit `int length` slot) and has no wire footprint of its own.
  bool presentation_only = false;
};

std::string_view BindingKindName(BindingKind kind);

// Per-operation presentation.
struct OpPresentation {
  std::string op_name;

  // [comm_status]: transport/communication failures are reported through
  // the operation's return value instead of an exception out-param.
  bool comm_status = false;

  // True when a single struct argument / a union result was flattened into
  // individual stub parameters (Figure 1 style). When set, `params` contains
  // kParamField / kResultField / kResultDiscriminant bindings and no
  // kParam/kResult binding exists for the flattened item.
  bool args_flattened = false;
  bool result_flattened = false;

  std::vector<ParamPresentation> params;  // stub-prototype order
  ParamPresentation result;               // presentation of the return value

  ParamPresentation* FindParam(std::string_view name);
  const ParamPresentation* FindParam(std::string_view name) const;
  // Slot of the named parameter (slot order = param order), -1 if absent:
  // how a [length_is] attribute finds its length slot.
  int SlotOf(std::string_view name) const;
};

// Presentation of one interface as seen from one endpoint.
struct InterfacePresentation {
  std::string interface_name;
  Side side = Side::kClient;
  TrustLevel trust = TrustLevel::kNone;

  std::vector<OpPresentation> ops;  // same order as the flattened interface

  OpPresentation* FindOp(std::string_view name);
  const OpPresentation* FindOp(std::string_view name) const;
};

// Computes the default (standard CORBA-mapping) presentation for `itf`:
//  * strings are NUL-terminated char* (no explicit length),
//  * `in` buffers are neither trashable nor preserved (copy semantics),
//  * variable-size `out`/result data uses move semantics: the server work
//    function allocates and donates (server alloc=kUser, dealloc=kAlways),
//    the client consumes a system-provided buffer (client alloc=kStub),
//  * fixed-size `out` data is written into caller storage on the client
//    (alloc=kUser) and stub storage on the server (alloc=kStub),
//  * no special marshaling, unique names, no trust.
InterfacePresentation DefaultPresentation(const InterfaceDecl& itf,
                                          Side side);

// The default presentation of one wire item (a parameter, the result, or
// a flattened field) under the rules above.
ParamPresentation DefaultParamPresentation(const std::string& name,
                                           const Type* type, ParamDir dir,
                                           Side side, Binding binding);

// True if `type` is "buffer-like": its wire representation includes a
// variable- or fixed-length run of bytes/elements a presentation can point
// somewhere else (string, sequence, array).
bool IsBufferLike(const Type* type);

// True if the wire size of `type` varies with the value (so the receiver
// cannot preallocate exactly without more information). Drives the default
// alloc/dealloc split and flexcheck's move-semantics advisor.
bool IsVariableWireSize(const Type* type);

// True for integer-valued scalars (including enums) — the types a
// [length_is] slot may carry.
bool IsIntegralScalar(const Type* type);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_PDL_PRESENTATION_H_
