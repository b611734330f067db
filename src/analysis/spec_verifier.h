// flexcheck stage 3: the flexspec wire-equivalence prover.
//
// A compiled marshal stream (src/marshal/spec.h) claims to be byte-for-byte
// what the operation's plan puts on (or takes off) the wire under its
// presentation. This pass *proves* the claim for every stream before any
// specialization is emitted: two independent lowerings run over a
// symbolic wire buffer —
//
//   * the plan side walks the MarshalPlanView + type graph the way the
//     engine's semantics define each wire item, and
//   * the spec side mechanically expands the SpecProgram opcodes —
//
// each producing a canonical sequence of WireEffects: "write a 4-byte
// scalar from slot 2", "emit a length prefix governed by slot 5 with
// bound 8192", "read `count` bytes into slot memory at offset 12". Every
// effect is unambiguous about operand, length discipline, and destination
// policy, so equal effect sequences imply equal wire bytes and equal
// ArgVec/arena behavior for every input. Any divergence is a hard coded
// diagnostic (FLEX201–FLEX207) that blocks emission; `idlc --check`
// reports it. Every wire byte is in some effect: a union unrolled in
// memory is its discriminant scalar, then one guarded block per labeled
// arm (kArm, the arm's effects, kArmEnd), then the default arm or kNoArm,
// whose labels and skip counts are compared like any operand (FLEX207);
// a sequence or array of non-byte elements is a loop (kLoop, one
// element's effects, kLoopEnd), compared on its count source, bound,
// stride and body length, with the body's effects addressed through the
// loop's depth. Each maximal run of fixed-width effects follows one kRun
// effect carrying the run's bytes in each wire format, which the plan
// side sums from the run's own effects, so a compiled kRun that checks
// more or fewer bytes than its ops move diverges (FLEX204). The compiled
// stream's runs are also checked on the stream alone, so a fault both
// lowerings share is still caught: a fixed-width effect outside its run, a
// run its effects do not use up, or a branch or loop that lands inside a
// run, past the kRun that checks it, is FLEX204. The release
// streams lower to the frees of every block an unmarshal can allocate
// inside each operand (kFree), behind an ownership guard (kFreeGuard),
// over the same loops and arms.

#ifndef FLEXRPC_SRC_ANALYSIS_SPEC_VERIFIER_H_
#define FLEXRPC_SRC_ANALYSIS_SPEC_VERIFIER_H_

#include <string>
#include <vector>

#include "src/idl/ast.h"
#include "src/marshal/spec.h"
#include "src/pdl/presentation.h"
#include "src/support/diag.h"

namespace flexrpc {

// One symbolic effect on the wire or on call state. The canonical forms
// both lowerings produce; field meanings depend on `kind`.
struct WireEffect {
  enum class Kind : uint8_t {
    kScalar,     // one wire scalar moved between the wire and a slot
    kLenPrefix,  // u32 length prefix governed by `len_src` under `bound`
    kBytes,      // a byte run (fixed `count` or governed by the previous
                 //   length prefix), with its copy/destination policy
    kDisc,       // union discriminant; stream ends unless it == `label`
    kEnsure,     // unmarshal storage guarantee: slot gets `count` bytes
    kArm,        // the next `count` effects run only when the union
                 //   discriminant in memory at `offset` is `label`
    kArmEnd,     // the next `count` effects (the other arms) are skipped
    kNoArm,      // the discriminant in memory at `offset` matches no arm:
                 //   the stream ends with an error
    kLoop,       // the next `count` effects run once per element, elements
                 //   `stride` bytes apart, counted by `len_src` under
                 //   `bound` (a sequence's count travels as a u32)
    kLoopEnd,    // the loop at `depth` goes on to its next element
    kRun,        // the next fixed-width effects move `run_bytes` wire
                 //   bytes in each format, checked at once
    kFreeGuard,  // release: the next `count` effects run only when the
                 //   slot's storage is freed
    kFree,       // release: frees the slot's storage, or the block whose
                 //   pointer is in memory at `offset`
    kUnbound,    // a plan item bound to no slot: no compiled op expands
                 //   to it, so no stream matches the plan
  };
  // Unmarshal destination policy for kScalar/kBytes (kNone on marshal).
  enum class Dest : uint8_t {
    kNone,        // marshal direction: wire is the destination
    kSlotScalar,  // args[slot].scalar
    kSlotMem,     // slot memory at `offset`
    kBuffer,      // sequence buffer: borrow/caller/arena policy
    kString,      // string buffer: caller/arena policy + NUL terminator
    kSeqRep,      // a new arena copy, its SeqRep stored in memory at
                  //   `offset` (a byte sequence inside a value)
    kStrPtr,      // a new arena copy + NUL, its char* stored in memory at
                  //   `offset` (a string inside a value)
  };

  Kind kind = Kind::kUnbound;
  uint8_t width = 0;      // kScalar: wire width in bytes
  int slot = -1;          // operand slot
  uint32_t offset = 0;    // native byte offset for memory operands
  uint8_t depth = 0;      // loops around the effect: memory operands are
                          //   in the innermost one's current element
  bool from_memory = false;  // operand in memory at `offset`, not in the
                             //   slot itself
  SpecLenSource len_src = SpecLenSource::kSlotLength;  // kLenPrefix/kLoop
  int len_slot = -1;      // [length_is] slot for kLenSlot
  uint32_t bound = 0;     // declared bound (0 = unbounded); an array's
                          //   element count
  uint32_t count = 0;     // kBytes fixed runs / kEnsure size / effects an
                          //   arm guard, arm end or loop body spans
  uint32_t stride = 0;    // kLoop/kLoopEnd: bytes between elements
  bool fixed = false;     // kBytes: count is compile-time constant
  bool special = false;   // byte run may route through SpecialOps
  Dest dest = Dest::kNone;
  bool nul_terminated = false;  // kBytes into string storage
  bool may_borrow = false;      // kBytes may alias the message buffer
  uint32_t label = 0;           // kDisc success label / kArm label
  uint32_t run_bytes[kWireFormatCount] = {0, 0};  // kRun, per WireFormat
  bool donated = false;  // kFreeGuard/kFree of a slot: [dealloc(always)]

  bool operator==(const WireEffect&) const = default;

  // Compact rendering for diagnostics, e.g. "scalar(w4 slot2)".
  std::string ToString() const;
};

// The plan's effects for one stream, derived by symbolically lowering the
// items of BuildMarshalPlan(op, pres), the plan MarshalProgram compiles —
// independent of CompileSpecPlan's lowering of that plan, which is the
// point: the two lowerings meet only at the comparison.
std::vector<WireEffect> PlanStreamEffects(const OperationDecl& op,
                                          const OpPresentation& pres,
                                          SpecStream stream);

// A SpecProgram's effects, by mechanical opcode expansion.
std::vector<WireEffect> SpecStreamEffects(const SpecProgram& prog);

// Proves every stream of `spec_plan` (the releases too) against the plan,
// and checks each stream's runs on their own. Divergences and misplaced
// runs are reported as FLEX201–FLEX207 errors attributed to
// `file`; returns the number of diagnostics emitted (0 = proven
// equivalent; emission may proceed).
int VerifySpecPlan(const OperationDecl& op, const OpPresentation& pres,
                   const SpecPlan& spec_plan, const std::string& file,
                   DiagnosticSink* diags);

// Reports a FLEX205 warning (with the compiler's reason) for each stream
// of `spec_plan` that `idlc --specialize` does not emit, and that runs on
// the reference executor. Informational: used by --specialize logs and
// tests, never blocks anything.
int ReportUnspecializedStreams(const SpecPlan& spec_plan,
                               const std::string& file,
                               DiagnosticSink* diags);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_ANALYSIS_SPEC_VERIFIER_H_
