#include "src/marshal/spec.h"

#include <cstddef>
#include <map>
#include <mutex>

#include "src/marshal/layout.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

// ---- FNV-1a hashing of the structural plan identity ------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

struct Hasher {
  uint64_t h = kFnvOffset;

  void U8(uint8_t v) {
    h ^= v;
    h *= kFnvPrime;
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      U8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
};

// Structural wire hash of the whole type: kinds, bounds, field/arm shapes
// at every depth — never names, which do not affect the bytes. Aliases
// hash as their targets. Sema rejects by-value recursion, so the walk ends.
void HashType(Hasher* h, const Type* type) {
  const Type* t = type->Resolve();
  h->U8(static_cast<uint8_t>(t->kind()));
  switch (t->kind()) {
    case TypeKind::kString:
      h->U32(t->bound());
      return;
    case TypeKind::kSequence:
    case TypeKind::kArray:
      h->U32(t->bound());
      HashType(h, t->element());
      return;
    case TypeKind::kStruct:
      h->U32(static_cast<uint32_t>(t->fields().size()));
      for (const StructField& f : t->fields()) {
        HashType(h, f.type);
      }
      return;
    case TypeKind::kUnion:
      HashType(h, t->discriminant());
      h->U32(static_cast<uint32_t>(t->arms().size()));
      for (const UnionArm& arm : t->arms()) {
        h->U32(arm.label);
        h->U8(arm.is_default ? 1 : 0);
        HashType(h, arm.type);
      }
      return;
    default:
      return;  // scalar kinds: the kind byte is the whole story
  }
}

void HashParamPresentation(Hasher* h, const OpPresentation& pres,
                           const ParamPresentation& p) {
  h->U8(static_cast<uint8_t>(p.binding.kind));
  h->U32(static_cast<uint32_t>(p.binding.param_index + 1));
  h->U32(static_cast<uint32_t>(p.binding.field_index + 1));
  h->U8(p.explicit_length ? 1 : 0);
  h->U32(static_cast<uint32_t>(
      (p.explicit_length ? pres.SlotOf(p.length_param) : -1) + 1));
  h->U8(p.special ? 1 : 0);
  h->U8(p.trashable ? 1 : 0);
  h->U8(p.preserved ? 1 : 0);
  h->U8(p.nonunique ? 1 : 0);
  h->U8(static_cast<uint8_t>(p.alloc));
  h->U8(static_cast<uint8_t>(p.dealloc));
  h->U8(p.presentation_only ? 1 : 0);
}

}  // namespace

SpecKey ComputeSpecKey(const OperationDecl& op, const OpPresentation& pres) {
  SpecKey key;
  {
    Hasher h;
    h.U8('O');
    h.U8(op.oneway ? 1 : 0);
    h.U32(static_cast<uint32_t>(op.params.size()));
    for (const ParamDecl& p : op.params) {
      h.U8(static_cast<uint8_t>(p.dir));
      HashType(&h, p.type);
    }
    HashType(&h, op.result);
    key.op_hash = h.h;
  }
  {
    Hasher h;
    h.U8('P');
    h.U8(pres.args_flattened ? 1 : 0);
    h.U8(pres.result_flattened ? 1 : 0);
    h.U8(pres.comm_status ? 1 : 0);
    h.U32(static_cast<uint32_t>(pres.params.size()));
    for (const ParamPresentation& p : pres.params) {
      HashParamPresentation(&h, pres, p);
    }
    HashParamPresentation(&h, pres, pres.result);
    key.pres_hash = h.h;
  }
  return key;
}

unsigned WireScalarWidth(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool:
    case TypeKind::kOctet:
    case TypeKind::kChar:
      return 1;
    case TypeKind::kI16:
    case TypeKind::kU16:
      return 2;
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kF32:
    case TypeKind::kEnum:
      return 4;
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kF64:
    case TypeKind::kObjRef:
      return 8;
    default:
      return 0;
  }
}

std::string_view SpecStreamName(SpecStream stream) {
  switch (stream) {
    case SpecStream::kMarshalRequest:
      return "marshal_request";
    case SpecStream::kUnmarshalRequest:
      return "unmarshal_request";
    case SpecStream::kMarshalReply:
      return "marshal_reply";
    case SpecStream::kUnmarshalReply:
      return "unmarshal_reply";
    case SpecStream::kReleaseRequest:
      return "release_request";
    case SpecStream::kReleaseReply:
      return "release_reply";
  }
  return "?";
}

std::string_view SpecOpKindName(SpecOpKind kind) {
  switch (kind) {
    case SpecOpKind::kPutScalarSlot:
      return "kPutScalarSlot";
    case SpecOpKind::kPutScalarMem:
      return "kPutScalarMem";
    case SpecOpKind::kPutBytesFixed:
      return "kPutBytesFixed";
    case SpecOpKind::kPutSeqBytes:
      return "kPutSeqBytes";
    case SpecOpKind::kPutString:
      return "kPutString";
    case SpecOpKind::kPutSeqBytesMem:
      return "kPutSeqBytesMem";
    case SpecOpKind::kPutStringMem:
      return "kPutStringMem";
    case SpecOpKind::kPutUnionDisc:
      return "kPutUnionDisc";
    case SpecOpKind::kGetScalarSlot:
      return "kGetScalarSlot";
    case SpecOpKind::kGetScalarMem:
      return "kGetScalarMem";
    case SpecOpKind::kGetBytesFixed:
      return "kGetBytesFixed";
    case SpecOpKind::kGetSeqBytes:
      return "kGetSeqBytes";
    case SpecOpKind::kGetString:
      return "kGetString";
    case SpecOpKind::kGetSeqBytesMem:
      return "kGetSeqBytesMem";
    case SpecOpKind::kGetStringMem:
      return "kGetStringMem";
    case SpecOpKind::kGetUnionDisc:
      return "kGetUnionDisc";
    case SpecOpKind::kEnsureStorage:
      return "kEnsureStorage";
    case SpecOpKind::kArm:
      return "kArm";
    case SpecOpKind::kArmEnd:
      return "kArmEnd";
    case SpecOpKind::kNoArm:
      return "kNoArm";
    case SpecOpKind::kLoop:
      return "kLoop";
    case SpecOpKind::kLoopEnd:
      return "kLoopEnd";
    case SpecOpKind::kRun:
      return "kRun";
    case SpecOpKind::kFreeGuard:
      return "kFreeGuard";
    case SpecOpKind::kFreeSlot:
      return "kFreeSlot";
    case SpecOpKind::kFreeMem:
      return "kFreeMem";
  }
  return "?";
}

std::string_view SpecLenSourceName(SpecLenSource src) {
  switch (src) {
    case SpecLenSource::kSlotLength:
      return "kSlotLength";
    case SpecLenSource::kLenSlot:
      return "kLenSlot";
    case SpecLenSource::kStrLen:
      return "kStrLen";
    case SpecLenSource::kSeqRep:
      return "kSeqRep";
    case SpecLenSource::kConstant:
      return "kConstant";
  }
  return "?";
}

namespace {

// The wire bytes of fixed-width op `op` in `format` (0 for any other op):
// what its step moves at the run pointer.
size_t FixedWireBytes(const SpecOp& op, WireFormat format) {
  switch (op.kind) {
    case SpecOpKind::kPutScalarSlot:
    case SpecOpKind::kPutScalarMem:
    case SpecOpKind::kGetScalarSlot:
    case SpecOpKind::kGetScalarMem:
      return WireScalarBytes(format, op.width);
    case SpecOpKind::kPutBytesFixed:
    case SpecOpKind::kGetBytesFixed:
      return WireRunBytes(format, op.count);
    case SpecOpKind::kPutUnionDisc:
    case SpecOpKind::kGetUnionDisc:
      return WireScalarBytes(format, 4);
    default:
      return 0;
  }
}

// Compiles one stream of a plan into SpecOps, one wire item at a time.
// Every construct has ops: a scalar, a byte run, a string or a byte
// sequence is one op; a struct or union unrolls to its members' ops at
// constant offsets, a union's arms as branches; a sequence or array of
// other elements is a loop whose body moves one element. A release
// stream visits the same values and frees the blocks in them.
class StreamCompiler {
 public:
  enum class Mode { kMarshal, kUnmarshal, kRelease };

  StreamCompiler(const OpPresentation& pres, Mode mode)
      : pres_(pres), mode_(mode) {}

  SpecProgram Compile(const std::vector<PlanItemView>& items) {
    for (const PlanItemView& item : items) {
      AddItem(item);
    }
    return SpecProgram{std::move(ops_)};
  }

 private:
  bool marshal() const { return mode_ == Mode::kMarshal; }
  bool release() const { return mode_ == Mode::kRelease; }

  // Appends `op`. A fixed-width op joins the open run, or opens one with a
  // kRun in front of it, and adds its bytes to the run's; a discriminant
  // op, which can end the stream, closes its run. Any other op but a
  // kEnsureStorage closes the open run.
  void Emit(const SpecOp& op) {
    if (FixedWireBytes(op, WireFormat::kXdr) == 0) {
      if (op.kind != SpecOpKind::kEnsureStorage) {
        run_ = kNoRun;
      }
      ops_.push_back(op);
      return;
    }
    if (run_ == kNoRun) {
      SpecOp run;
      run.kind = SpecOpKind::kRun;
      run.depth = op.depth;
      run_ = ops_.size();
      ops_.push_back(run);
    }
    for (size_t f = 0; f < kWireFormatCount; ++f) {
      ops_[run_].run_bytes[f] += static_cast<uint32_t>(
          FixedWireBytes(op, static_cast<WireFormat>(f)));
    }
    ops_.push_back(op);
    if (op.kind == SpecOpKind::kPutUnionDisc ||
        op.kind == SpecOpKind::kGetUnionDisc) {
      run_ = kNoRun;
    }
  }

  // BuildMarshalPlan binds every field and the discriminant of a
  // presentation ApplyPdl accepted (the plan verifier's FLEX106 audits it).
  void AddItem(const PlanItemView& item) {
    if (!item.flattened) {
      AddTop(item.pres, item.type, item.slot);
      return;
    }
    if (item.is_result && item.type->Resolve()->kind() == TypeKind::kUnion &&
        !release()) {
      SpecOp op;
      op.kind = marshal() ? SpecOpKind::kPutUnionDisc
                          : SpecOpKind::kGetUnionDisc;
      op.slot = item.disc_slot;
      op.label = item.success_label;
      Emit(op);
    }
    for (const PlanFieldView& field : item.fields) {
      AddTop(field.pres, field.type, field.slot);
    }
  }

  // A marshaled length comes from `implicit` unless [length_is] names a
  // slot.
  void SetMarshalLength(const ParamPresentation* pres,
                        SpecLenSource implicit, SpecOp* op) const {
    op->len_src = implicit;
    if (pres != nullptr && pres->explicit_length) {
      int len_slot = pres_.SlotOf(pres->length_param);
      if (len_slot >= 0) {
        op->len_src = SpecLenSource::kLenSlot;
        op->len_slot = len_slot;
      }
    }
  }

  // One top-level wire value with its own presentation.
  void AddTop(const ParamPresentation* pres, const Type* type, int slot) {
    if (release()) {
      AddTopRelease(pres, type, slot);
      return;
    }
    const Type* t = type->Resolve();
    const bool special = pres != nullptr && pres->special;
    SpecOp op;
    op.slot = slot;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return;
      case TypeKind::kString:
        op.kind = marshal() ? SpecOpKind::kPutString : SpecOpKind::kGetString;
        op.bound = t->bound();
        op.special = special;
        if (marshal()) {
          SetMarshalLength(pres, SpecLenSource::kStrLen, &op);
        }
        Emit(op);
        return;
      case TypeKind::kSequence:
        op.bound = t->bound();
        if (marshal()) {
          SetMarshalLength(pres, SpecLenSource::kSlotLength, &op);
        }
        if (!IsByteElem(t->element())) {
          AddLoop(op, t->element());
          return;
        }
        op.kind =
            marshal() ? SpecOpKind::kPutSeqBytes : SpecOpKind::kGetSeqBytes;
        op.special = special;
        Emit(op);
        return;
      case TypeKind::kArray:
      case TypeKind::kStruct:
      case TypeKind::kUnion:
        if (!marshal()) {
          op.kind = SpecOpKind::kEnsureStorage;
          op.count = static_cast<uint32_t>(t->NativeSize());
          Emit(op);
        }
        // [special] reaches only a top-level byte array's run.
        AddMem(t, slot, 0, 0, t->kind() == TypeKind::kArray && special);
        return;
      default:
        op.kind = marshal() ? SpecOpKind::kPutScalarSlot
                            : SpecOpKind::kGetScalarSlot;
        op.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        Emit(op);
        return;
    }
  }

  // The release of one top-level value: a slot holding a string, a
  // sequence's elements or a value's storage frees it with kFreeSlot,
  // after the blocks nested in it, which a kFreeGuard skips unless the
  // slot's storage is freed. A scalar holds nothing.
  void AddTopRelease(const ParamPresentation* pres, const Type* type,
                     int slot) {
    const Type* t = type->Resolve();
    if (!SlotHoldsBlock(t)) {
      return;
    }
    SpecOp op;
    op.slot = slot;
    op.donated = pres != nullptr && pres->dealloc == DeallocPolicy::kAlways;
    const bool nested =
        t->kind() == TypeKind::kSequence
            ? !IsByteElem(t->element()) && t->element()->HoldsPointers()
            : t->kind() != TypeKind::kString && t->HoldsPointers();
    const size_t guard = ops_.size();
    if (nested) {
      op.kind = SpecOpKind::kFreeGuard;
      Emit(op);
      if (t->kind() == TypeKind::kSequence) {
        SpecOp loop;
        loop.slot = slot;
        loop.bound = t->bound();
        loop.len_src = SpecLenSource::kSlotLength;
        AddLoop(loop, t->element());
      } else {
        AddMem(t, slot, 0, 0, /*special=*/false);
      }
    }
    op.kind = SpecOpKind::kFreeSlot;
    Emit(op);
    if (nested) {
      ops_[guard].count = static_cast<uint32_t>(ops_.size() - guard - 1);
    }
  }

  // A value in the memory of slot `slot` at `depth` loops (spec_ops.h's
  // Mem), at `offset`. `special` applies only to the byte run of a
  // top-level array.
  void AddMem(const Type* type, int slot, uint32_t offset, uint8_t depth,
              bool special) {
    if (release()) {
      AddMemRelease(type, slot, offset, depth);
      return;
    }
    const Type* t = type->Resolve();
    SpecOp op;
    op.slot = slot;
    op.offset = offset;
    op.depth = depth;
    op.bound = t->bound();
    switch (t->kind()) {
      case TypeKind::kVoid:
        return;
      case TypeKind::kArray:
        if (IsByteElem(t->element())) {
          op.kind = marshal() ? SpecOpKind::kPutBytesFixed
                              : SpecOpKind::kGetBytesFixed;
          op.count = t->bound();
          op.bound = 0;
          op.special = special;
          Emit(op);
          return;
        }
        op.len_src = SpecLenSource::kConstant;
        AddLoop(op, t->element());
        return;
      case TypeKind::kStruct:
        AddFields(t, slot, offset, depth);
        return;
      case TypeKind::kUnion:
        AddUnion(t, slot, offset, depth);
        return;
      case TypeKind::kSequence:
        if (IsByteElem(t->element())) {
          op.kind = marshal() ? SpecOpKind::kPutSeqBytesMem
                              : SpecOpKind::kGetSeqBytesMem;
          Emit(op);
          return;
        }
        op.len_src = SpecLenSource::kSeqRep;
        AddLoop(op, t->element());
        return;
      case TypeKind::kString:
        op.kind =
            marshal() ? SpecOpKind::kPutStringMem : SpecOpKind::kGetStringMem;
        Emit(op);
        return;
      default:
        op.kind = marshal() ? SpecOpKind::kPutScalarMem
                            : SpecOpKind::kGetScalarMem;
        op.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        op.bound = 0;
        Emit(op);
        return;
    }
  }

  // The release of a value in memory: a string's block, a sequence's
  // elements and then its buffer, and the loops and arms that reach them.
  // A value without a pointer frees nothing.
  void AddMemRelease(const Type* type, int slot, uint32_t offset,
                     uint8_t depth) {
    const Type* t = type->Resolve();
    if (!t->HoldsPointers()) {
      return;
    }
    SpecOp op;
    op.slot = slot;
    op.offset = offset;
    op.depth = depth;
    op.bound = t->bound();
    switch (t->kind()) {
      case TypeKind::kArray:
        op.len_src = SpecLenSource::kConstant;
        AddLoop(op, t->element());
        return;
      case TypeKind::kStruct:
        AddFields(t, slot, offset, depth);
        return;
      case TypeKind::kUnion:
        AddUnion(t, slot, offset, depth);
        return;
      case TypeKind::kSequence:
        if (!IsByteElem(t->element()) && t->element()->HoldsPointers()) {
          op.len_src = SpecLenSource::kSeqRep;
          AddLoop(op, t->element());
        }
        op = SpecOp{};
        op.kind = SpecOpKind::kFreeMem;
        op.slot = slot;
        op.offset = offset + static_cast<uint32_t>(offsetof(SeqRep, buffer));
        op.depth = depth;
        Emit(op);
        return;
      default:  // a string
        op.kind = SpecOpKind::kFreeMem;
        op.bound = 0;
        Emit(op);
        return;
    }
  }

  void AddFields(const Type* st, int slot, uint32_t offset, uint8_t depth) {
    for (size_t i = 0; i < st->fields().size(); ++i) {
      AddMem(st->fields()[i].type, slot,
             offset + static_cast<uint32_t>(NativeFieldOffset(st, i)), depth,
             /*special=*/false);
    }
  }

  // A loop over `elem`s: `loop` with its count source, then the body (one
  // element at the next depth, at offset 0 of the loop's current element),
  // then the back-edge. Both ends carry the stride and the body's length.
  void AddLoop(SpecOp loop, const Type* elem) {
    loop.kind = SpecOpKind::kLoop;
    loop.stride = static_cast<uint32_t>(elem->NativeSize());
    const size_t at = ops_.size();
    Emit(loop);
    AddMem(elem, loop.slot, 0, static_cast<uint8_t>(loop.depth + 1),
           /*special=*/false);
    ops_[at].count = static_cast<uint32_t>(ops_.size() - at - 1);
    SpecOp back;
    back.kind = SpecOpKind::kLoopEnd;
    back.slot = loop.slot;
    back.count = ops_[at].count;
    back.depth = loop.depth;
    back.stride = loop.stride;
    Emit(back);
  }

  // The union in memory at `offset`: its u32 discriminant, then for each
  // labeled arm a kArm, the arm's ops at the payload offset and a kArmEnd
  // past the remaining arms, then the default arm's ops or, with no
  // default arm, kNoArm. A matching label wins over the default arm. A
  // release reads the discriminant in memory and frees nothing when it
  // matches no arm. Every kArmEnd lands after the union, so the default
  // arm's run ends there and the ops after the union open their own.
  void AddUnion(const Type* u, int slot, uint32_t offset, uint8_t depth) {
    SpecOp op;
    op.slot = slot;
    op.offset = offset;
    op.depth = depth;
    op.kind =
        marshal() ? SpecOpKind::kPutScalarMem : SpecOpKind::kGetScalarMem;
    op.width = 4;
    if (!release()) {
      Emit(op);
    }
    const uint32_t payload =
        offset + static_cast<uint32_t>(UnionPayloadOffset(u));
    std::vector<size_t> arm_ends;
    const UnionArm* fallback = nullptr;
    for (const UnionArm& arm : u->arms()) {
      if (arm.is_default) {
        fallback = &arm;
        continue;
      }
      SpecOp branch = op;
      branch.kind = SpecOpKind::kArm;
      branch.label = arm.label;
      const size_t at = ops_.size();
      Emit(branch);
      AddMem(arm.type, slot, payload, depth, /*special=*/false);
      SpecOp skip = op;
      skip.kind = SpecOpKind::kArmEnd;
      Emit(skip);
      ops_[at].count = static_cast<uint32_t>(ops_.size() - at - 1);
      arm_ends.push_back(ops_.size() - 1);
    }
    if (fallback != nullptr) {
      AddMem(fallback->type, slot, payload, depth, /*special=*/false);
    } else if (!release()) {
      SpecOp none = op;
      none.kind = SpecOpKind::kNoArm;
      Emit(none);
    }
    for (size_t end : arm_ends) {
      ops_[end].count = static_cast<uint32_t>(ops_.size() - end - 1);
    }
    run_ = kNoRun;
  }

  static constexpr size_t kNoRun = SIZE_MAX;

  const OpPresentation& pres_;
  Mode mode_;
  std::vector<SpecOp> ops_;
  size_t run_ = kNoRun;  // the open run's kRun
};

// The index of the op that runs after ops[i]: past what a branch skips,
// past an empty loop's body and back-edge, or back to the first op of a
// loop's body while the loop has an element left.
size_t NextOp(const std::vector<SpecOp>& ops, size_t i, const ArgVec& args,
              SpecLoop* loops, bool donated = false) {
  const SpecOp& op = ops[i];
  switch (op.kind) {
    case SpecOpKind::kLoop:
      return loops[op.depth].left != 0 ? i + 1 : i + op.count + 2;
    case SpecOpKind::kLoopEnd:
      NextElement(op, loops);
      return loops[op.depth].left != 0 ? i - op.count : i + 1;
    default:
      return i + 1 + SkippedOps(op, args, loops, donated);
  }
}

}  // namespace

SpecProgram CompileSpecStream(const MarshalPlanView& plan,
                              const OpPresentation& pres, SpecStream stream,
                              std::string* rejection) {
  using Mode = StreamCompiler::Mode;
  const Mode mode = stream == SpecStream::kMarshalRequest ||
                            stream == SpecStream::kMarshalReply
                        ? Mode::kMarshal
                    : stream == SpecStream::kUnmarshalRequest ||
                            stream == SpecStream::kUnmarshalReply
                        ? Mode::kUnmarshal
                        : Mode::kRelease;
  const bool reply = stream == SpecStream::kMarshalReply ||
                     stream == SpecStream::kUnmarshalReply ||
                     stream == SpecStream::kReleaseReply;
  SpecProgram prog =
      StreamCompiler(pres, mode).Compile(reply ? plan.reply : plan.request);
  if (rejection != nullptr) {
    *rejection = prog.ops.size() > kMaxSpecOps
                     ? StrFormat("%zu ops, past the op budget of %zu",
                                 prog.ops.size(), kMaxSpecOps)
                     : "";
  }
  return prog;
}

SpecPlan CompileSpecPlan(const OperationDecl& op,
                         const OpPresentation& pres) {
  SpecPlan plan;
  plan.key = ComputeSpecKey(op, pres);
  plan.op_name = op.name;
  const MarshalPlanView view = BuildMarshalPlan(op, pres);
  for (size_t s = 0; s < kSpecStreamCount; ++s) {
    plan.streams[s] = CompileSpecStream(view, pres, static_cast<SpecStream>(s),
                                        &plan.rejection[s]);
  }
  return plan;
}

// ---- Reference executor ----------------------------------------------------

namespace {

// Loops nest at most kMaxSequenceNesting deep (SpecLoop), so that many
// base registers serve any stream.
template <typename W>
Status RunMarshalOn(const std::vector<SpecOp>& ops, const ArgVec& args,
                    W* w, const SpecialOps* special) {
  Status end;
  uint8_t* run = nullptr;
  SpecLoop loops[kMaxSequenceNesting];
  for (size_t i = 0; i < ops.size(); i = NextOp(ops, i, args, loops)) {
    if (!MarshalStep(ops[i], args, w, special, &run, &end, loops)) {
      break;
    }
  }
  return end;
}

template <typename R>
Status RunUnmarshalOn(const std::vector<SpecOp>& ops, R* r, Arena* arena,
                      ArgVec* args, const SpecialOps* special,
                      bool borrow_bytes) {
  Status end;
  const uint8_t* run = nullptr;
  SpecLoop loops[kMaxSequenceNesting];
  for (size_t i = 0; i < ops.size(); i = NextOp(ops, i, *args, loops)) {
    if (!UnmarshalStep(ops[i], r, arena, args, special, borrow_bytes, &run,
                       &end, loops)) {
      break;
    }
  }
  return end;
}

}  // namespace

Status RunSpecMarshal(const SpecProgram& prog, const ArgVec& args,
                      WireWriter* w, const SpecialOps* special) {
  return OnCodec(w, [&](auto* codec) {
    return RunMarshalOn(prog.ops, args, codec, special);
  });
}

Status RunSpecUnmarshal(const SpecProgram& prog, WireReader* r, Arena* arena,
                        ArgVec* args, const SpecialOps* special,
                        bool borrow_bytes) {
  return OnCodec(r, [&](auto* codec) {
    return RunUnmarshalOn(prog.ops, codec, arena, args, special,
                          borrow_bytes);
  });
}

void RunSpecRelease(const SpecProgram& prog, Arena* arena, ArgVec* args,
                    bool donated) {
  SpecLoop loops[kMaxSequenceNesting];
  const std::vector<SpecOp>& ops = prog.ops;
  for (size_t i = 0; i < ops.size();
       i = NextOp(ops, i, *args, loops, donated)) {
    ReleaseStep(ops[i], arena, args, donated, loops);
  }
}

// ---- Registry and dispatch switch ------------------------------------------

namespace {

struct Registry {
  std::mutex mu;
  std::map<SpecKey, SpecFns> fns;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

}  // namespace

bool RegisterSpecialization(const SpecKey& key, const SpecFns& fns) {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.fns.emplace(key, fns).second;
}

const SpecFns* FindSpecialization(const SpecKey& key) {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.fns.find(key);
  return it == reg.fns.end() ? nullptr : &it->second;
}

void UnregisterSpecialization(const SpecKey& key) {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.fns.erase(key);
}

void SetMarshalSpecializationEnabled(bool enabled) {
  spec_internal::g_spec_enabled.store(enabled, std::memory_order_relaxed);
}

}  // namespace flexrpc
