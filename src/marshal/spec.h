// flexspec — bind-time marshal superinstructions.
//
// The interpreted MarshalProgram (engine.h) walks one wire item per step,
// re-deciding type kind, presentation attributes, and length discipline on
// every call. For a bound (operation signature × presentation) pair that is
// pure overhead: every decision is already fixed at bind time. flexspec
// compiles such plans into *superinstructions* — short straight-line
// programs over a closed opcode set whose every operand (slot, offset,
// width, bound, length source) is a constant — and `idlc --specialize`
// emits them as fused C++ functions that register themselves here. The
// engine looks its (signature, presentation) key up at bind time and
// dispatches per call: registry hit → straight-line code, miss → the
// interpreter (gated `marshal.spec.hit/miss` counters).
//
// Each opcode has one definition, its step in spec_ops.h. The reference
// executors here loop over those steps, and every emitted function calls
// them once per op with constant operands, so the two cannot drift apart.
//
// Correctness story (the flexcheck stage-3 prover, src/analysis/
// spec_verifier.h): a specialization is only emitted after a symbolic
// wire-effect interpreter, which expands each opcode on its own rather
// than through the steps, proves the SpecProgram byte-for-byte equivalent
// to the interpreted plan.
//
// Deliberate semantic difference from the interpreter: specialized
// streams do not bump the per-opcode `marshal.ops.*` trace counters
// (counting would reintroduce the interpreter's per-item overhead). The
// engine instead counts one `marshal.spec.hit` per stream execution and
// credits `marshal.bytes_*` with the stream's wire delta at dispatch.
// Wire bytes, statuses, and ArgVec effects are identical.

#ifndef FLEXRPC_SRC_MARSHAL_SPEC_H_
#define FLEXRPC_SRC_MARSHAL_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/idl/ast.h"
#include "src/marshal/engine.h"
#include "src/marshal/spec_ops.h"
#include "src/pdl/presentation.h"
#include "src/support/status.h"

namespace flexrpc {

// Identity of a bind-time marshal plan: the operation's structural wire
// contract × the marshal-relevant presentation digest. Names never enter
// the op hash (two structurally identical operations share specialized
// code, as they share a combination signature in the paper's scheme); the
// presentation digest covers every attribute the engine's behavior can
// depend on, so distinct behaviors never alias.
struct SpecKey {
  uint64_t op_hash = 0;
  uint64_t pres_hash = 0;

  bool operator==(const SpecKey&) const = default;
  bool operator<(const SpecKey& o) const {
    return op_hash != o.op_hash ? op_hash < o.op_hash
                                : pres_hash < o.pres_hash;
  }
};

SpecKey ComputeSpecKey(const OperationDecl& op, const OpPresentation& pres);

// Wire width in bytes (1, 2, 4, 8) of a scalar kind, exactly as
// PutScalarWire/GetScalarWire move it; 0 for non-scalar kinds.
unsigned WireScalarWidth(TypeKind kind);

// The four per-call entry points a plan compiles to.
enum class SpecStream : uint8_t {
  kMarshalRequest = 0,
  kUnmarshalRequest,
  kMarshalReply,
  kUnmarshalReply,
};
inline constexpr size_t kSpecStreamCount = 4;

std::string_view SpecStreamName(SpecStream stream);

// C++ spellings of the enumerators (`kPutScalarSlot`, `kStrLen`), as
// generated units write them.
std::string_view SpecOpKindName(SpecOpKind kind);
std::string_view SpecLenSourceName(SpecLenSource src);

struct SpecProgram {
  std::vector<SpecOp> ops;
};

// One (operation × presentation)'s compiled superinstruction streams.
// Streams outside the specializable subset are absent, with the reason
// kept for the FLEX205 diagnostic and for --specialize logs.
struct SpecPlan {
  SpecKey key;
  std::string op_name;
  bool has_stream[kSpecStreamCount] = {};
  SpecProgram streams[kSpecStreamCount];
  std::string rejection[kSpecStreamCount];

  bool AnyStream() const {
    for (bool has : has_stream) {
      if (has) {
        return true;
      }
    }
    return false;
  }
};

// Compiles every specializable stream of (op, pres). Total: a stream the
// compiler cannot express straight-line is recorded as rejected, never
// mis-compiled. `op` and `pres` must outlive nothing — the SpecPlan is
// self-contained.
SpecPlan CompileSpecPlan(const OperationDecl& op, const OpPresentation& pres);

// Reference executors: run a SpecProgram one step (spec_ops.h) per op, as
// the emitted C++ does with the ops unrolled. Tests compare them with the
// interpreter.
Status RunSpecMarshal(const SpecProgram& prog, const ArgVec& args,
                      WireWriter* w, const SpecialOps* special);
Status RunSpecUnmarshal(const SpecProgram& prog, WireReader* r, Arena* arena,
                        ArgVec* args, const SpecialOps* special,
                        bool borrow_bytes);

// ---- Registry of compiled-in specializations -------------------------------

using SpecMarshalFn = Status (*)(const ArgVec& args, WireWriter* w,
                                 const SpecialOps* special);
using SpecUnmarshalFn = Status (*)(WireReader* r, Arena* arena, ArgVec* args,
                                   const SpecialOps* special,
                                   bool borrow_bytes);

// Function table one generated unit registers for one SpecKey. Null slots
// fall back to the interpreter for that stream.
struct SpecFns {
  SpecMarshalFn marshal_request = nullptr;
  SpecUnmarshalFn unmarshal_request = nullptr;
  SpecMarshalFn marshal_reply = nullptr;
  SpecUnmarshalFn unmarshal_reply = nullptr;
};

// First registration for a key wins (generated units may legitimately
// overlap, e.g. both sides of one interface); returns false on duplicate.
bool RegisterSpecialization(const SpecKey& key, const SpecFns& fns);
const SpecFns* FindSpecialization(const SpecKey& key);
// Test support: removes one registration (e.g. an executor-backed fake).
void UnregisterSpecialization(const SpecKey& key);

// Global dispatch switch, default on. Benches A/B the fast path against
// the interpreter with this (same program, same wire bytes).
void SetMarshalSpecializationEnabled(bool enabled);
bool MarshalSpecializationEnabled();

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_SPEC_H_
