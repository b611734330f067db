// The presentation-aware marshal engine: flexrpc's runtime stub bodies.
//
// A MarshalProgram is compiled once per (operation, presentation) pair at
// bind time — the moral equivalent of the paper's threaded-code combination
// signatures — and then executed per call. The wire layout it produces is a
// pure function of the *interface* (items in IDL order, request = in/inout
// params, reply = inout/out params then the result), so endpoints with
// different presentations interoperate byte-for-byte. The presentation only
// chooses where bytes come from and go to:
//   * which ArgVec slot carries each wire item (flattened struct fields vs.
//     a whole struct pointer),
//   * whether buffer lengths are implicit (NUL) or explicit (length slot),
//   * whether byte runs move through memcpy or [special] user routines,
//   * whether receive buffers are caller-provided ([alloc(user)]) or
//     allocated from the receiving arena,
//   * whether the producing stub frees buffers after marshaling
//     ([dealloc(always)] move semantics vs [dealloc(never)]).
//
// Build lowers the pair to a plan (its wire items in order, with their
// slots), then compiles each of the plan's six streams into a SpecProgram:
// a sequence of SpecOps over a closed opcode set whose operands are all
// integer constants, with a loop op for each sequence and array of
// non-byte elements and one space check (kRun) per run of fixed-size
// items. Four streams move a message; two free what the unmarshal streams
// allocated. Each
// opcode has one definition, its step in spec_ops.h; the reference
// executor (spec.h) runs a program one step per op, and `idlc
// --specialize` emits the same steps as generated code, one `for` per loop.

#ifndef FLEXRPC_SRC_MARSHAL_ENGINE_H_
#define FLEXRPC_SRC_MARSHAL_ENGINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/idl/ast.h"
#include "src/marshal/format.h"
#include "src/pdl/presentation.h"
#include "src/support/arena.h"
#include "src/support/status.h"

namespace flexrpc {

// One stub-level argument slot. Scalars live in `scalar`; buffer-like and
// structured values store a pointer in `scalar` with `length` (element
// count) and `capacity` (receive capacity, elements) alongside.
struct ArgValue {
  uint64_t scalar = 0;
  uint32_t length = 0;
  uint32_t capacity = 0;
  // True when ptr() aliases the transport's message buffer instead of
  // owning a block (server-side in-place unmarshaling); such slots are
  // never freed by ReleaseRequest.
  bool borrowed = false;
  // True when ptr() is a block the unmarshal allocated from the arena (not
  // the caller's storage): ReleaseRequest and ReleaseReply free it.
  bool owned = false;

  void* ptr() const { return reinterpret_cast<void*>(scalar); }
  void set_ptr(const void* p) {
    scalar = reinterpret_cast<uint64_t>(p);
  }
};

// The argument vector a runtime stub operates on: one slot per presentation
// parameter, plus a final slot for the operation result. Small vectors
// (the overwhelmingly common case) live entirely on the stack, as the
// storage of a compiled stub would; only the program's slots are
// constructed (zeroed), not the whole inline capacity.
class ArgVec {
 public:
  explicit ArgVec(size_t slot_count) : size_(slot_count), data_(inline_) {
    if (slot_count > kInlineSlots) {
      data_ = new ArgValue[slot_count]();
    } else {
      std::uninitialized_value_construct_n(inline_, slot_count);
    }
  }
  ~ArgVec() {
    if (data_ != inline_) {
      delete[] data_;
    }
  }

  ArgVec(const ArgVec&) = delete;
  ArgVec& operator=(const ArgVec&) = delete;

  ArgValue& operator[](size_t i) { return data_[i]; }
  const ArgValue& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  void Reset() { std::fill(data_, data_ + size_, ArgValue{}); }

 private:
  static constexpr size_t kInlineSlots = 12;

  size_t size_;
  ArgValue* data_;  // inline_, or a heap array past kInlineSlots
  // The first size_ entries are live; the rest stay raw storage.
  union {
    ArgValue inline_[kInlineSlots];
  };
};

// User-provided byte movers for [special] parameters (the paper's Linux
// copyin/copyout routines, or fbuf access routines).
struct SpecialOps {
  // Copies `n` application bytes at `src` into wire storage `dst`.
  std::function<void(uint8_t* dst, const void* src, size_t n)> copy_out;
  // Copies `n` wire bytes at `src` into application storage `dst`.
  std::function<void(void* dst, const uint8_t* src, size_t n)> copy_in;
};

// The closed opcode set every marshal stream compiles to. Every operand is
// fixed at compile time; the only per-call inputs are the ArgVec, the wire,
// and the runtime [special]/borrow/donated flags the engine entry points
// take.
//
// "Memory" below is the op's base plus `offset`: args[slot].ptr() for an
// op outside any loop (`depth` 0), otherwise the current element of the
// loop it is nested in (the loop at `depth` - 1).
//
// A fixed-width op (a scalar, a fixed byte run, a union discriminant)
// moves its bytes at the stream's run pointer, which the kRun op in front
// of its run set: every fixed-width op belongs to one.
enum class SpecOpKind : uint8_t {
  kPutScalarSlot,   // wire scalar from args[slot].scalar
  kPutScalarMem,    // wire scalar loaded from memory (a union's u32
                    //   discriminant among them)
  kPutBytesFixed,   // `count` raw bytes from memory
  kPutSeqBytes,     // u32 length prefix + that many bytes from args[slot]
  kPutString,       // u32 length prefix + string bytes from args[slot]
  kPutSeqBytesMem,  // the byte sequence whose SeqRep is in memory: u32
                    //   length under `bound` + the bytes
  kPutStringMem,    // the string whose char* is in memory (null: length
                    //   0): u32 length under `bound` + the bytes
  kPutUnionDisc,    // u32 from args[slot].scalar; end-of-stream unless
                    //   it equals `label` (void alternate arms)
  kGetScalarSlot,   // wire scalar into args[slot].scalar
  kGetScalarMem,    // wire scalar stored in memory
  kGetBytesFixed,   // `count` raw bytes to memory
  kGetSeqBytes,     // u32 length + bytes into the slot (borrow, caller
                    //   buffer or arena block)
  kGetString,       // u32 length + bytes + NUL into the slot
  kGetSeqBytesMem,  // u32 length under `bound` + bytes, copied into a new
                    //   arena block whose SeqRep goes to memory
  kGetStringMem,    // u32 length under `bound` + bytes, copied with a NUL
                    //   into a new arena block whose char* goes to memory
  kGetUnionDisc,    // u32 into args[slot].scalar; end-of-stream unless
                    //   it equals `label`
  kEnsureStorage,   // if args[slot].ptr() == null, point it at a zeroed
                    //   arena block of `count` bytes
  kArm,             // branch: unless the u32 union discriminant in memory
                    //   equals `label`, skip the next `count` ops (the
                    //   arm's ops and its kArmEnd)
  kArmEnd,          // branch: skip the next `count` ops (the union's
                    //   remaining arms)
  kNoArm,           // end-of-stream with an error: the discriminant in
                    //   memory matches no arm
  kLoop,            // a loop over elements `stride` bytes apart, counted
                    //   by `len_src` (a sequence's count travels as a u32
                    //   under `bound`): runs the next `count` ops, its
                    //   body, once per element (none: skips them and the
                    //   kLoopEnd)
  kLoopEnd,         // back-edge of the loop at `depth`: moves it `stride`
                    //   bytes on, back `count` ops while an element is left
  kRun,             // space check for the maximal run of fixed-width ops
                    //   after it (a kEnsureStorage may sit inside): appends
                    //   or consumes the run's `run_bytes` in the wire's
                    //   format at once; short input leaves the run to read
                    //   one op at a time, to the same error
  kFreeGuard,       // release branch: unless kFreeSlot frees args[slot]'s
                    //   storage, skip the next `count` ops (the frees of the
                    //   blocks nested in it and its kFreeSlot)
  kFreeSlot,        // release: frees args[slot]'s storage when this
                    //   release owns it and clears the slot; a borrowed
                    //   view is only cleared
  kFreeMem,         // release: frees the block whose pointer is in memory
                    //   (a string's char*, a SeqRep's buffer)
};

// Where a length or a loop's count comes from. A marshal op reads it there;
// an unmarshal op of a sequence reads it from the wire and stores it there.
enum class SpecLenSource : uint8_t {
  kSlotLength,  // args[slot].length
  kLenSlot,     // args[len_slot].scalar ([length_is] presentation)
  kStrLen,      // strlen(args[slot].ptr())
  kSeqRep,      // the SeqRep in memory (a sequence inside a value)
  kConstant,    // `bound` (an array)
};

struct SpecOp {
  SpecOpKind kind = SpecOpKind::kPutScalarSlot;
  uint8_t width = 4;     // wire scalar width for *Scalar* ops (1/2/4/8)
  int slot = -1;         // ArgVec slot the op reads or writes
  uint32_t offset = 0;   // native byte offset for memory operands
  uint32_t count = 0;    // byte count for *BytesFixed / kEnsureStorage;
                         //   ops skipped for kArm / kArmEnd; body ops for
                         //   kLoop / kLoopEnd
  uint32_t bound = 0;    // declared length bound (0 = unbounded); an
                         //   array's element count
  SpecLenSource len_src = SpecLenSource::kSlotLength;
  int len_slot = -1;     // [length_is] slot for kLenSlot
  uint32_t label = 0;    // union label for *UnionDisc / kArm
  bool special = false;  // may route through SpecialOps at runtime
  uint8_t depth = 0;     // loops the op is nested in
  uint32_t stride = 0;   // kLoop / kLoopEnd: bytes between elements
  // kRun: the run's wire bytes in each format, indexed by WireFormat (XDR
  // widens narrow scalars and pads byte runs; the native format does not).
  uint32_t run_bytes[kWireFormatCount] = {0, 0};
  bool donated = false;  // kFreeGuard / kFreeSlot: a [dealloc(always)]
                         //   operand, which MarshalReply frees

  bool operator==(const SpecOp&) const = default;
};

struct SpecProgram {
  std::vector<SpecOp> ops;
};

// The per-call streams a plan compiles to: the four that move a message,
// and per side the release that frees what its unmarshal allocated (the
// reply's also frees a server's [dealloc(always)] operands after
// MarshalReply).
enum class SpecStream : uint8_t {
  kMarshalRequest = 0,
  kUnmarshalRequest,
  kMarshalReply,
  kUnmarshalReply,
  kReleaseRequest,
  kReleaseReply,
};
inline constexpr size_t kSpecStreamCount = 6;
// The streams that move wire bytes come first.
inline constexpr size_t kWireStreamCount = 4;

// A marshal plan: the request and reply wire-item streams in wire order,
// with the slot each item reads or writes. MarshalProgram compiles its
// streams from this plan, and the same structure is the surface the
// flexcheck plan verifier (src/analysis/) audits like a bytecode verifier;
// tests hand-build or corrupt a plan to prove each violation is caught.
struct PlanFieldView {
  const Type* type = nullptr;
  int slot = -1;
  const ParamPresentation* pres = nullptr;
};

struct PlanItemView {
  const Type* type = nullptr;  // wire type of the whole item
  ParamDir dir = ParamDir::kIn;
  bool is_result = false;
  bool flattened = false;
  int slot = -1;  // direct slot; -1 when flattened
  const ParamPresentation* pres = nullptr;
  std::vector<PlanFieldView> fields;  // flattened struct fields, in order
  int disc_slot = -1;  // flattened union result discriminant
  uint32_t success_label = 0;  // label of the struct-carrying arm
  const Type* success_struct = nullptr;
};

struct MarshalPlanView {
  size_t slot_count = 0;
  std::vector<PlanItemView> request;
  std::vector<PlanItemView> reply;
};

// Lowers one operation under one side's presentation to its plan.
// MarshalProgram::Build, the flexspec compiler (CompileSpecPlan) and the
// flexspec prover (PlanStreamEffects) all start from this one function.
// `op` and `pres` must outlive the plan.
MarshalPlanView BuildMarshalPlan(const OperationDecl& op,
                                 const OpPresentation& pres);

// flexspec fast path (src/marshal/spec.h): Build looks the plan's SpecKey
// up in the specialization registry once; per call each entry point runs
// the registered generated function when present and enabled, and the
// reference executor over the bind-time program otherwise.
struct SpecFns;

class MarshalProgram {
 public:
  // Compiles the program for one operation under one side's presentation:
  // its plan and the plan's six streams. `op` and `pres` must outlive the
  // program.
  static MarshalProgram Build(const OperationDecl& op,
                              const OpPresentation& pres);

  // --- client side ---
  Status MarshalRequest(const ArgVec& args, WireWriter* w,
                        const SpecialOps* special = nullptr) const;
  // An inout item under [alloc(stub)] gets its reply in stub storage: its
  // slot still holds the caller's in-value, which is cleared first, so
  // neither the reply nor a ReleaseReply after a failed one touches the
  // caller's storage.
  Status UnmarshalReply(WireReader* r, Arena* arena, ArgVec* args,
                        const SpecialOps* special = nullptr) const;

  // --- server side ---
  // Byte-buffer in-parameters are unmarshaled *in place*: their slots
  // alias the request message (which a synchronous server owns for the
  // call's duration) rather than copying into fresh blocks — the standard
  // trick of efficient server stubs. Strings are still copied (they need
  // NUL termination). Pass borrow_bytes=false to force copies when the
  // request buffer does not outlive the ArgVec.
  Status UnmarshalRequest(WireReader* r, Arena* arena, ArgVec* args,
                          const SpecialOps* special = nullptr,
                          bool borrow_bytes = true) const;
  // Marshals the reply, then frees the storage of every [dealloc(always)]
  // slot from `arena` (when given), nested blocks included, and clears the
  // slot, whether the stream succeeded or not; the reply's release stream
  // does it. A donated inout slot is then empty, so the ReleaseRequest
  // that follows does not free it a second time.
  Status MarshalReply(ArgVec* args, WireWriter* w, Arena* arena,
                      const SpecialOps* special = nullptr) const;

  // Frees the storage UnmarshalRequest allocated from `arena`, nested
  // blocks included (server stub epilogue), by the request's release
  // stream. Borrowed views of the request message are only cleared.
  void ReleaseRequest(Arena* arena, ArgVec* args) const;
  // Frees the reply storage UnmarshalReply allocated on the client (the
  // "client frees the donated buffer" step of move semantics), nested
  // blocks included, whatever the slot's alloc policy; storage the caller
  // provided stays untouched, with the blocks nested in it.
  void ReleaseReply(Arena* arena, ArgVec* args) const;

  // Slot bookkeeping. Result occupies the final slot.
  size_t slot_count() const { return plan_.slot_count; }
  int result_slot() const { return static_cast<int>(plan_.slot_count) - 1; }
  // Slot of a named presentation parameter, -1 if absent.
  int SlotOf(std::string_view name) const { return pres_->SlotOf(name); }

  const OperationDecl& op() const { return *op_; }
  const OpPresentation& presentation() const { return *pres_; }

  // The plan the program was compiled from.
  const MarshalPlanView& Plan() const { return plan_; }
  // The program `stream` runs when no generated function serves it.
  const SpecProgram& Stream(SpecStream stream) const {
    return streams_[static_cast<size_t>(stream)];
  }

 private:
  // Runs release stream `stream`: generated code when registered and
  // enabled, the reference executor otherwise. Counts no spec hit or miss.
  void Release(SpecStream stream, Arena* arena, ArgVec* args,
               bool donated) const;

  const OperationDecl* op_ = nullptr;
  const OpPresentation* pres_ = nullptr;
  MarshalPlanView plan_;
  // Reply slots of inout items under [alloc(stub)] that own storage
  // (a direct slot or a flattened field): UnmarshalReply clears them.
  std::vector<int> inout_stub_slots_;
  SpecProgram streams_[kSpecStreamCount];
  const SpecFns* spec_fns_ = nullptr;  // registry hit, or null
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_ENGINE_H_
