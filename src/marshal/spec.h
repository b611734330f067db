// flexspec — the marshal op compiler, its reference executor, and the
// registry of generated code.
//
// Every (operation signature × presentation) pair fixes each marshal
// decision at bind time: type kind, presentation attributes, length
// discipline. CompileSpecPlan turns the pair's four streams into
// SpecPrograms, short programs over a closed opcode set (engine.h) whose
// every operand (slot, offset, width, bound, length source, stride, loop
// depth) is an integer constant; MarshalProgram::Build runs the same
// compiler once per program. Every type sema accepts compiles: structs and
// unions unroll, and each sequence or array of non-byte elements is a
// loop. The reference executor runs a program one step (spec_ops.h) per
// op, and `idlc --specialize` emits each stream within the op budget as a
// fused C++ function that registers itself here. The engine looks its key up at
// bind time and dispatches per call: a registered function runs when
// specialization is on, the reference executor otherwise (gated
// `marshal.spec.hit/miss` counters, one per stream either way).
//
// Each opcode has one definition, its step in spec_ops.h. The reference
// executor loops over those steps, and every emitted function calls them
// once per op with constant operands, so the two cannot drift apart.
//
// Correctness story (the flexcheck stage-3 prover, src/analysis/
// spec_verifier.h): a specialization is only emitted after a symbolic
// lowering of the plan and a separate expansion of each opcode (not
// through the steps) meet in equal wire-effect sequences, which proves the
// SpecProgram byte-for-byte equivalent to the plan.

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

// Wire width in bytes (1, 2, 4, 8) of a scalar kind, as the *Scalar* ops
// hand it to the format (XDR widens the narrow ones to four bytes); 0 for
// non-scalar kinds.
unsigned WireScalarWidth(TypeKind kind);

std::string_view SpecStreamName(SpecStream stream);

// C++ spellings of the enumerators (`kPutScalarSlot`, `kStrLen`), as
// generated units write them.
std::string_view SpecOpKindName(SpecOpKind kind);
std::string_view SpecLenSourceName(SpecLenSource src);

// Emission budget: `idlc --specialize` emits no stream longer than this.
inline constexpr size_t kMaxSpecOps = 192;

// Compiles `stream` of `plan`, the plan BuildMarshalPlan made under
// `pres`. Total: every stream compiles. A stream past kMaxSpecOps is not
// emitted as generated code; `*rejection` (when given) then says so, and
// stays empty otherwise.
SpecProgram CompileSpecStream(const MarshalPlanView& plan,
                              const OpPresentation& pres, SpecStream stream,
                              std::string* rejection);

// One (operation × presentation)'s four compiled streams, with the reason
// `idlc --specialize` leaves a stream out (FLEX205), empty for a stream it
// emits. The SpecPlan is self-contained: `op` and `pres` need not outlive
// it.
struct SpecPlan {
  SpecKey key;
  std::string op_name;
  SpecProgram streams[kSpecStreamCount];
  std::string rejection[kSpecStreamCount];

  bool Emits(size_t stream) const { return rejection[stream].empty(); }
  bool EmitsAny() const {
    for (size_t s = 0; s < kSpecStreamCount; ++s) {
      if (Emits(s)) {
        return true;
      }
    }
    return false;
  }
};

SpecPlan CompileSpecPlan(const OperationDecl& op, const OpPresentation& pres);

// The reference executor: runs a SpecProgram one step (spec_ops.h) per op,
// as the emitted C++ does with the ops written out, taking each branch by
// SkippedOps and each loop's back-edge by NextElement.
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

// Function table one generated unit registers for one SpecKey. A null slot
// leaves that stream to the reference executor.
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

// Global dispatch switch, default on. Benches A/B generated code against
// the reference executor with this (same program, same wire bytes).
void SetMarshalSpecializationEnabled(bool enabled);
bool MarshalSpecializationEnabled();

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_SPEC_H_
