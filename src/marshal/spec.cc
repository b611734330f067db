#include "src/marshal/spec.h"

#include <atomic>
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

// Compiles one stream of a plan into SpecOps, one wire item at a time.
// Every construct has ops: a scalar, a byte run, a string or a byte
// sequence is one op; a struct or union unrolls to its members' ops at
// constant offsets, a union's arms as branches; a sequence or array of
// other elements is a loop whose body moves one element.
class StreamCompiler {
 public:
  StreamCompiler(const OpPresentation& pres, bool marshal)
      : pres_(pres), marshal_(marshal) {}

  SpecProgram Compile(const std::vector<PlanItemView>& items) {
    for (const PlanItemView& item : items) {
      AddItem(item);
    }
    return SpecProgram{std::move(ops_)};
  }

 private:
  void Emit(const SpecOp& op) { ops_.push_back(op); }

  // BuildMarshalPlan binds every field and the discriminant of a
  // presentation ApplyPdl accepted (the plan verifier's FLEX106 audits it).
  void AddItem(const PlanItemView& item) {
    if (!item.flattened) {
      AddTop(item.pres, item.type, item.slot);
      return;
    }
    if (item.is_result && item.type->Resolve()->kind() == TypeKind::kUnion) {
      SpecOp op;
      op.kind = marshal_ ? SpecOpKind::kPutUnionDisc
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
    const Type* t = type->Resolve();
    const bool special = pres != nullptr && pres->special;
    SpecOp op;
    op.slot = slot;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return;
      case TypeKind::kString:
        op.kind = marshal_ ? SpecOpKind::kPutString : SpecOpKind::kGetString;
        op.bound = t->bound();
        op.special = special;
        if (marshal_) {
          SetMarshalLength(pres, SpecLenSource::kStrLen, &op);
        }
        Emit(op);
        return;
      case TypeKind::kSequence:
        op.bound = t->bound();
        if (marshal_) {
          SetMarshalLength(pres, SpecLenSource::kSlotLength, &op);
        }
        if (!IsByteElem(t->element())) {
          AddLoop(op, t->element());
          return;
        }
        op.kind =
            marshal_ ? SpecOpKind::kPutSeqBytes : SpecOpKind::kGetSeqBytes;
        op.special = special;
        Emit(op);
        return;
      case TypeKind::kArray:
      case TypeKind::kStruct:
      case TypeKind::kUnion:
        if (!marshal_) {
          op.kind = SpecOpKind::kEnsureStorage;
          op.count = static_cast<uint32_t>(t->NativeSize());
          Emit(op);
        }
        // [special] reaches only a top-level byte array's run.
        AddMem(t, slot, 0, 0, t->kind() == TypeKind::kArray && special);
        return;
      default:
        op.kind = marshal_ ? SpecOpKind::kPutScalarSlot
                           : SpecOpKind::kGetScalarSlot;
        op.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        Emit(op);
        return;
    }
  }

  // A value in the memory of slot `slot` at `depth` loops (spec_ops.h's
  // Mem), at `offset`. `special` applies only to the byte run of a
  // top-level array.
  void AddMem(const Type* type, int slot, uint32_t offset, uint8_t depth,
              bool special) {
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
          op.kind = marshal_ ? SpecOpKind::kPutBytesFixed
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
        for (size_t i = 0; i < t->fields().size(); ++i) {
          AddMem(t->fields()[i].type, slot,
                 offset + static_cast<uint32_t>(NativeFieldOffset(t, i)),
                 depth, /*special=*/false);
        }
        return;
      case TypeKind::kUnion:
        AddUnion(t, slot, offset, depth);
        return;
      case TypeKind::kSequence:
        if (IsByteElem(t->element())) {
          op.kind = marshal_ ? SpecOpKind::kPutSeqBytesMem
                             : SpecOpKind::kGetSeqBytesMem;
          Emit(op);
          return;
        }
        op.len_src = SpecLenSource::kSeqRep;
        AddLoop(op, t->element());
        return;
      case TypeKind::kString:
        op.kind =
            marshal_ ? SpecOpKind::kPutStringMem : SpecOpKind::kGetStringMem;
        Emit(op);
        return;
      default:
        op.kind = marshal_ ? SpecOpKind::kPutScalarMem
                           : SpecOpKind::kGetScalarMem;
        op.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        op.bound = 0;
        Emit(op);
        return;
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
  // default arm, kNoArm. A matching label wins over the default arm.
  void AddUnion(const Type* u, int slot, uint32_t offset, uint8_t depth) {
    SpecOp op;
    op.slot = slot;
    op.offset = offset;
    op.depth = depth;
    op.kind =
        marshal_ ? SpecOpKind::kPutScalarMem : SpecOpKind::kGetScalarMem;
    op.width = 4;
    Emit(op);
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
    } else {
      SpecOp none = op;
      none.kind = SpecOpKind::kNoArm;
      Emit(none);
    }
    for (size_t end : arm_ends) {
      ops_[end].count = static_cast<uint32_t>(ops_.size() - end - 1);
    }
  }

  const OpPresentation& pres_;
  bool marshal_;
  std::vector<SpecOp> ops_;
};

// The index of the op that runs after ops[i]: past what a branch skips,
// past an empty loop's body and back-edge, or back to the first op of a
// loop's body while the loop has an element left.
size_t NextOp(const std::vector<SpecOp>& ops, size_t i, const ArgVec& args,
              SpecLoop* loops) {
  const SpecOp& op = ops[i];
  switch (op.kind) {
    case SpecOpKind::kLoop:
      return loops[op.depth].left != 0 ? i + 1 : i + op.count + 2;
    case SpecOpKind::kLoopEnd:
      NextElement(op, loops);
      return loops[op.depth].left != 0 ? i - op.count : i + 1;
    default:
      return i + 1 + SkippedOps(op, args, loops);
  }
}

}  // namespace

SpecProgram CompileSpecStream(const MarshalPlanView& plan,
                              const OpPresentation& pres, SpecStream stream,
                              std::string* rejection) {
  const bool marshal = stream == SpecStream::kMarshalRequest ||
                       stream == SpecStream::kMarshalReply;
  const bool reply = stream == SpecStream::kMarshalReply ||
                     stream == SpecStream::kUnmarshalReply;
  SpecProgram prog = StreamCompiler(pres, marshal)
                         .Compile(reply ? plan.reply : plan.request);
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

// Loops nest at most kMaxSequenceNesting deep (SpecLoop), so that many
// base registers serve any stream.
Status RunSpecMarshal(const SpecProgram& prog, const ArgVec& args,
                      WireWriter* w, const SpecialOps* special) {
  Status end;
  SpecLoop loops[kMaxSequenceNesting];
  const std::vector<SpecOp>& ops = prog.ops;
  for (size_t i = 0; i < ops.size(); i = NextOp(ops, i, args, loops)) {
    if (!MarshalStep(ops[i], args, w, special, &end, loops)) {
      break;
    }
  }
  return end;
}

Status RunSpecUnmarshal(const SpecProgram& prog, WireReader* r, Arena* arena,
                        ArgVec* args, const SpecialOps* special,
                        bool borrow_bytes) {
  Status end;
  SpecLoop loops[kMaxSequenceNesting];
  const std::vector<SpecOp>& ops = prog.ops;
  for (size_t i = 0; i < ops.size(); i = NextOp(ops, i, *args, loops)) {
    if (!UnmarshalStep(ops[i], r, arena, args, special, borrow_bytes, &end,
                       loops)) {
      break;
    }
  }
  return end;
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

std::atomic<bool> g_spec_enabled{true};

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
  g_spec_enabled.store(enabled, std::memory_order_relaxed);
}

bool MarshalSpecializationEnabled() {
  return g_spec_enabled.load(std::memory_order_relaxed);
}

}  // namespace flexrpc
