#include "src/marshal/spec.h"

#include <atomic>
#include <map>
#include <mutex>

#include "src/marshal/layout.h"
#include "src/marshal/value.h"
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
    case SpecOpKind::kPutUnionDisc:
      return "kPutUnionDisc";
    case SpecOpKind::kPutValue:
      return "kPutValue";
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
    case SpecOpKind::kGetUnionDisc:
      return "kGetUnionDisc";
    case SpecOpKind::kGetValue:
      return "kGetValue";
    case SpecOpKind::kEnsureStorage:
      return "kEnsureStorage";
    case SpecOpKind::kArm:
      return "kArm";
    case SpecOpKind::kArmEnd:
      return "kArmEnd";
    case SpecOpKind::kNoArm:
      return "kNoArm";
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
  }
  return "?";
}

namespace {

// Compiles one stream of a plan into SpecOps, one wire item at a time.
// Every construct has an op: a struct, array or union unrolls to leaves at
// constant offsets (a union's arms as branches) when they fit in
// kMaxSpecOps, and a value no leaf op expresses (a non-byte sequence, a
// string inside a struct, a value past the budget) is one value op. The
// first construct that keeps the stream out of generated code becomes its
// rejection.
class StreamCompiler {
 public:
  StreamCompiler(const OpPresentation& pres, bool marshal)
      : pres_(pres), marshal_(marshal) {}

  SpecProgram Compile(const std::vector<PlanItemView>& items) {
    for (const PlanItemView& item : items) {
      AddItem(item);
    }
    if (ops_.size() > kMaxSpecOps) {
      Reject("superinstruction budget exceeded");
    }
    return SpecProgram{std::move(ops_)};
  }

  std::string TakeRejection() { return std::move(rejection_); }

 private:
  void Reject(std::string why) {
    if (rejection_.empty()) {
      rejection_ = std::move(why);
    }
  }

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
        if (!IsByteElem(t->element())) {
          AddValue(pres, t, slot, "sequence of non-byte elements");
          return;
        }
        op.kind =
            marshal_ ? SpecOpKind::kPutSeqBytes : SpecOpKind::kGetSeqBytes;
        op.bound = t->bound();
        op.special = special;
        if (marshal_) {
          SetMarshalLength(pres, SpecLenSource::kSlotLength, &op);
        }
        Emit(op);
        return;
      case TypeKind::kArray:
      case TypeKind::kStruct:
      case TypeKind::kUnion: {
        const size_t mark = ops_.size();
        if (!marshal_) {
          op.kind = SpecOpKind::kEnsureStorage;
          op.count = static_cast<uint32_t>(t->NativeSize());
          Emit(op);
        }
        // [special] reaches only a top-level byte array's run: members
        // go through MarshalValue/UnmarshalValue semantics, which never
        // consult it.
        leaf_mark_ = ops_.size();
        std::string why;
        if (AddMemValue(t, slot, 0, t->kind() == TypeKind::kArray && special,
                        &why)) {
          return;
        }
        ops_.resize(mark);
        AddValue(pres, t, slot, std::move(why));
        return;
      }
      default:
        op.kind = marshal_ ? SpecOpKind::kPutScalarSlot
                           : SpecOpKind::kGetScalarSlot;
        op.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        Emit(op);
        return;
    }
  }

  // One whole value through MarshalValue/UnmarshalValue. A top-level
  // sequence takes its marshaled length like a byte sequence does.
  void AddValue(const ParamPresentation* pres, const Type* t, int slot,
                std::string why) {
    SpecOp op;
    op.kind = marshal_ ? SpecOpKind::kPutValue : SpecOpKind::kGetValue;
    op.slot = slot;
    op.type = t;
    if (marshal_ && t->kind() == TypeKind::kSequence) {
      SetMarshalLength(pres, SpecLenSource::kSlotLength, &op);
    }
    Emit(op);
    Reject(std::move(why));
  }

  // A value living in native memory at slot.ptr()+offset, unrolled to one
  // leaf op per scalar, byte run or byte sequence at a constant offset,
  // with a union's arms as branches. Fails, with the reason in `*why`, on
  // a member no leaf op moves (a string, a non-byte sequence) or on a leaf
  // past kMaxSpecOps. `special` applies only to the outermost byte run of
  // a top-level array.
  bool AddMemValue(const Type* type, int slot, uint32_t offset, bool special,
                   std::string* why) {
    const Type* t = type->Resolve();
    SpecOp op;
    op.slot = slot;
    op.offset = offset;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return true;
      case TypeKind::kArray: {
        const Type* elem = t->element();
        if (IsByteElem(elem)) {
          op.kind = marshal_ ? SpecOpKind::kPutBytesFixed
                             : SpecOpKind::kGetBytesFixed;
          op.count = t->bound();
          op.special = special;
          return AddLeaf(op, why);
        }
        size_t stride = elem->NativeSize();
        for (uint32_t i = 0; i < t->bound(); ++i) {
          if (!AddMemValue(elem, slot,
                           offset + i * static_cast<uint32_t>(stride),
                           /*special=*/false, why)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kStruct:
        for (size_t i = 0; i < t->fields().size(); ++i) {
          if (!AddMemValue(
                  t->fields()[i].type, slot,
                  offset + static_cast<uint32_t>(NativeFieldOffset(t, i)),
                  /*special=*/false, why)) {
            return false;
          }
        }
        return true;
      case TypeKind::kUnion:
        return AddUnion(t, slot, offset, why);
      case TypeKind::kSequence:
        if (IsByteElem(t->element())) {
          op.kind = marshal_ ? SpecOpKind::kPutSeqBytesMem
                             : SpecOpKind::kGetSeqBytesMem;
          op.bound = t->bound();
          return AddLeaf(op, why);
        }
        *why = "nested sequence of non-byte elements";
        return false;
      case TypeKind::kString:
        *why = "nested string member";
        return false;
      default:
        op.kind = marshal_ ? SpecOpKind::kPutScalarMem
                           : SpecOpKind::kGetScalarMem;
        op.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        return AddLeaf(op, why);
    }
  }

  // The union at slot.ptr()+offset: its u32 discriminant, then for each
  // labeled arm a kArm, the arm's leaves at the payload offset and a
  // kArmEnd past the remaining arms, then the default arm's leaves or, with
  // no default arm, kNoArm. A matching label wins over the default arm, as
  // in MarshalValue/UnmarshalValue.
  bool AddUnion(const Type* u, int slot, uint32_t offset, std::string* why) {
    SpecOp op;
    op.slot = slot;
    op.offset = offset;
    op.kind =
        marshal_ ? SpecOpKind::kPutScalarMem : SpecOpKind::kGetScalarMem;
    op.width = 4;
    if (!AddLeaf(op, why)) {
      return false;
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
      if (!AddLeaf(branch, why) ||
          !AddMemValue(arm.type, slot, payload, /*special=*/false, why)) {
        return false;
      }
      SpecOp skip = op;
      skip.kind = SpecOpKind::kArmEnd;
      if (!AddLeaf(skip, why)) {
        return false;
      }
      ops_[at].count = static_cast<uint32_t>(ops_.size() - at - 1);
      arm_ends.push_back(ops_.size() - 1);
    }
    if (fallback != nullptr) {
      if (!AddMemValue(fallback->type, slot, payload, /*special=*/false,
                       why)) {
        return false;
      }
    } else {
      SpecOp none = op;
      none.kind = SpecOpKind::kNoArm;
      if (!AddLeaf(none, why)) {
        return false;
      }
    }
    for (size_t end : arm_ends) {
      ops_[end].count = static_cast<uint32_t>(ops_.size() - end - 1);
    }
    return true;
  }

  bool AddLeaf(const SpecOp& op, std::string* why) {
    if (ops_.size() - leaf_mark_ >= kMaxSpecOps) {
      *why = "superinstruction budget exceeded";
      return false;
    }
    Emit(op);
    return true;
  }

  const OpPresentation& pres_;
  bool marshal_;
  std::vector<SpecOp> ops_;
  size_t leaf_mark_ = 0;  // first leaf op of the value being unrolled
  std::string rejection_;
};

}  // namespace

SpecProgram CompileSpecStream(const MarshalPlanView& plan,
                              const OpPresentation& pres, SpecStream stream,
                              std::string* rejection) {
  const bool marshal = stream == SpecStream::kMarshalRequest ||
                       stream == SpecStream::kMarshalReply;
  const bool reply = stream == SpecStream::kMarshalReply ||
                     stream == SpecStream::kUnmarshalReply;
  StreamCompiler compiler(pres, marshal);
  SpecProgram prog = compiler.Compile(reply ? plan.reply : plan.request);
  if (rejection != nullptr) {
    *rejection = compiler.TakeRejection();
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

// ---- Value ops -------------------------------------------------------------

Status PutValueOp(const SpecOp& op, const ArgVec& args, WireWriter* w) {
  void* value = args[static_cast<size_t>(op.slot)].ptr();
  if (op.type->kind() != TypeKind::kSequence) {
    return MarshalValue(w, op.type, value);
  }
  // A top-level sequence travels unpacked: its elements at the slot's
  // pointer, its length from `len_src`.
  const uint32_t len = spec_internal::MarshalLength(op, args);
  SeqRep rep{len, len, value};
  return MarshalValue(w, op.type, &rep);
}

Status GetValueOp(const SpecOp& op, WireReader* r, Arena* arena,
                  ArgVec* args) {
  ArgValue* slot = &(*args)[static_cast<size_t>(op.slot)];
  const Type* t = op.type;
  // A slot that already carries a pointer is caller storage ([alloc(user)]
  // receive buffers arrive this way).
  const bool caller_buffer = slot->ptr() != nullptr;
  if (t->kind() != TypeKind::kSequence) {
    if (!caller_buffer) {
      slot->set_ptr(AllocateZeroedBlock(arena, t->NativeSize()));
    }
    return UnmarshalValue(r, t, slot->ptr(), arena);
  }
  FLEXRPC_ASSIGN_OR_RETURN(uint32_t len, r->GetU32());
  if (t->bound() != 0 && len > t->bound()) {
    return DataLossError(StrFormat(
        "wire sequence length %u exceeds bound %u", len, t->bound()));
  }
  if (len > r->remaining()) {
    // Every non-byte element takes at least one wire byte: a larger count
    // is malformed, and must not size an allocation.
    return DataLossError(
        StrFormat("wire sequence length %u exceeds the %zu bytes left", len,
                  r->remaining()));
  }
  const Type* elem = t->element();
  const size_t stride = elem->NativeSize();
  if (caller_buffer) {
    if (slot->capacity < len) {
      return ResourceExhaustedError("caller buffer too small for sequence");
    }
  } else {
    slot->set_ptr(AllocateZeroedBlock(arena, len > 0 ? len * stride : 1));
  }
  // The length covers every element before any is read, so a release
  // after a failed element frees the ones already read.
  slot->length = len;
  auto* base = static_cast<uint8_t*>(slot->ptr());
  for (uint32_t i = 0; i < len; ++i) {
    FLEXRPC_RETURN_IF_ERROR(
        UnmarshalValue(r, elem, base + i * stride, arena));
  }
  return Status::Ok();
}

// ---- Reference executor ----------------------------------------------------

// A branch op's step does nothing; the loop then moves past the ops it
// skips.
Status RunSpecMarshal(const SpecProgram& prog, const ArgVec& args,
                      WireWriter* w, const SpecialOps* special) {
  Status end;
  const std::vector<SpecOp>& ops = prog.ops;
  for (size_t i = 0; i < ops.size(); i += 1 + SkippedOps(ops[i], args)) {
    if (!MarshalStep(ops[i], args, w, special, &end)) {
      break;
    }
  }
  return end;
}

Status RunSpecUnmarshal(const SpecProgram& prog, WireReader* r, Arena* arena,
                        ArgVec* args, const SpecialOps* special,
                        bool borrow_bytes) {
  Status end;
  const std::vector<SpecOp>& ops = prog.ops;
  for (size_t i = 0; i < ops.size(); i += 1 + SkippedOps(ops[i], *args)) {
    if (!UnmarshalStep(ops[i], r, arena, args, special, borrow_bytes,
                       &end)) {
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
