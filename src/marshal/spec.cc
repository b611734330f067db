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

// Structural wire hash of a type: kinds, bounds, field/arm shapes — never
// names, which do not affect the bytes. Aliases hash as their targets.
void HashType(Hasher* h, const Type* type, int depth) {
  const Type* t = type->Resolve();
  h->U8(static_cast<uint8_t>(t->kind()));
  if (depth > 32) {
    return;  // depth fuse; seed IDLs are nowhere near this
  }
  switch (t->kind()) {
    case TypeKind::kString:
      h->U32(t->bound());
      return;
    case TypeKind::kSequence:
    case TypeKind::kArray:
      h->U32(t->bound());
      HashType(h, t->element(), depth + 1);
      return;
    case TypeKind::kStruct:
      h->U32(static_cast<uint32_t>(t->fields().size()));
      for (const StructField& f : t->fields()) {
        HashType(h, f.type, depth + 1);
      }
      return;
    case TypeKind::kUnion:
      HashType(h, t->discriminant(), depth + 1);
      h->U32(static_cast<uint32_t>(t->arms().size()));
      for (const UnionArm& arm : t->arms()) {
        h->U32(arm.label);
        h->U8(arm.is_default ? 1 : 0);
        HashType(h, arm.type, depth + 1);
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
      HashType(&h, p.type, 0);
    }
    HashType(&h, op.result, 0);
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
    case SpecOpKind::kGetUnionDisc:
      return "kGetUnionDisc";
    case SpecOpKind::kEnsureStorage:
      return "kEnsureStorage";
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

// Straight-line budget: a stream longer than this stops being a
// superinstruction and goes back to the interpreter.
constexpr size_t kMaxSpecOps = 192;

// Compiles one of the four streams of a plan into SpecOps. Mirrors the
// exact decision structure of MarshalProgram::MarshalItem/UnmarshalItem —
// every construct it cannot express as a constant-operand op rejects the
// stream (it keeps the interpreter; nothing is ever approximated).
class StreamCompiler {
 public:
  StreamCompiler(const OpPresentation& pres, bool marshal, bool is_reply)
      : pres_(pres), marshal_(marshal), is_reply_(is_reply) {}

  bool Compile(const std::vector<PlanItemView>& items) {
    for (const PlanItemView& item : items) {
      if (!AddItem(item)) {
        return false;
      }
    }
    return ops_.size() <= kMaxSpecOps ||
           Reject("superinstruction budget exceeded");
  }

  std::vector<SpecOp> TakeOps() { return std::move(ops_); }
  const std::string& reason() const { return reason_; }

 private:
  bool Reject(std::string why) {
    if (reason_.empty()) {
      reason_ = std::move(why);
    }
    return false;
  }

  void Emit(SpecOp op) { ops_.push_back(op); }

  bool AddItem(const PlanItemView& item) {
    if (!item.flattened) {
      return AddTop(item.pres, item.type, item.slot);
    }
    const Type* resolved = item.type->Resolve();
    if (item.is_result && resolved->kind() == TypeKind::kUnion) {
      if (item.disc_slot < 0) {
        return Reject("flattened union result lacks a discriminant slot");
      }
      SpecOp op;
      op.kind = marshal_ ? SpecOpKind::kPutUnionDisc
                         : SpecOpKind::kGetUnionDisc;
      op.slot = item.disc_slot;
      op.label = item.success_label;
      Emit(op);
    }
    for (const PlanFieldView& field : item.fields) {
      if (field.type == nullptr) {
        return Reject("flattened item has an unbound field");
      }
      if (!AddTop(field.pres, field.type, field.slot)) {
        return false;
      }
    }
    return true;
  }

  // One top-level wire value with its own presentation — the unit
  // MarshalTop/UnmarshalTop handles.
  bool AddTop(const ParamPresentation* pres, const Type* type, int slot) {
    const Type* t = type->Resolve();
    if (marshal_ && is_reply_ && pres != nullptr &&
        pres->dealloc == DeallocPolicy::kAlways) {
      // The interpreter's reply epilogue frees donated buffers
      // (DeallocAfterMarshal); that side effect is not in the
      // superinstruction vocabulary.
      return Reject("dealloc(always) requires the interpreter epilogue");
    }
    bool special = pres != nullptr && pres->special;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return true;
      case TypeKind::kString: {
        SpecOp op;
        op.slot = slot;
        op.bound = t->bound();
        op.special = special;
        if (marshal_) {
          op.kind = SpecOpKind::kPutString;
          op.len_src = SpecLenSource::kStrLen;
          if (pres != nullptr && pres->explicit_length) {
            int len_slot = pres_.SlotOf(pres->length_param);
            if (len_slot >= 0) {
              op.len_src = SpecLenSource::kLenSlot;
              op.len_slot = len_slot;
            }
          }
        } else {
          op.kind = SpecOpKind::kGetString;
        }
        Emit(op);
        return true;
      }
      case TypeKind::kSequence: {
        if (!IsByteElem(t->element())) {
          return Reject("sequence of non-byte elements");
        }
        SpecOp op;
        op.slot = slot;
        op.bound = t->bound();
        op.special = special;
        if (marshal_) {
          op.kind = SpecOpKind::kPutSeqBytes;
          op.len_src = SpecLenSource::kSlotLength;
          if (pres != nullptr && pres->explicit_length) {
            int len_slot = pres_.SlotOf(pres->length_param);
            if (len_slot >= 0) {
              op.len_src = SpecLenSource::kLenSlot;
              op.len_slot = len_slot;
            }
          }
        } else {
          op.kind = SpecOpKind::kGetSeqBytes;
        }
        Emit(op);
        return true;
      }
      case TypeKind::kArray: {
        if (!marshal_) {
          SpecOp ensure;
          ensure.kind = SpecOpKind::kEnsureStorage;
          ensure.slot = slot;
          ensure.count = static_cast<uint32_t>(t->NativeSize());
          Emit(ensure);
        }
        return AddFixedValue(t, slot, 0, special);
      }
      case TypeKind::kStruct: {
        if (!marshal_) {
          SpecOp ensure;
          ensure.kind = SpecOpKind::kEnsureStorage;
          ensure.slot = slot;
          ensure.count = static_cast<uint32_t>(t->NativeSize());
          Emit(ensure);
        }
        // The interpreter hands structs to MarshalValue/UnmarshalValue,
        // which never consult [special] — nested byte runs stay plain.
        return AddFixedValue(t, slot, 0, /*special=*/false);
      }
      case TypeKind::kUnion:
        return Reject("direct union slot needs arm selection at run time");
      default: {
        unsigned width = WireScalarWidth(t->kind());
        if (width == 0) {
          return Reject(StrFormat("unsupported type kind %s",
                                  std::string(TypeKindName(t->kind()))
                                      .c_str()));
        }
        SpecOp op;
        op.kind = marshal_ ? SpecOpKind::kPutScalarSlot
                           : SpecOpKind::kGetScalarSlot;
        op.width = static_cast<uint8_t>(width);
        op.slot = slot;
        Emit(op);
        return true;
      }
    }
  }

  // A fixed-wire-size value living in native memory at slot.ptr()+offset:
  // scalars, byte arrays, scalar arrays, and structs thereof — the subset
  // MarshalValue/UnmarshalValue handle without arena allocation, unrolled
  // to constant offsets. `special` applies only to the outermost byte run
  // of a top-level array (the one place the interpreter routes [special]).
  bool AddFixedValue(const Type* type, int slot, uint32_t offset,
                     bool special) {
    const Type* t = type->Resolve();
    switch (t->kind()) {
      case TypeKind::kArray: {
        const Type* elem = t->element();
        if (IsByteElem(elem)) {
          SpecOp op;
          op.kind = marshal_ ? SpecOpKind::kPutBytesFixed
                             : SpecOpKind::kGetBytesFixed;
          op.slot = slot;
          op.offset = offset;
          op.count = t->bound();
          op.special = special;
          Emit(op);
          return true;
        }
        size_t stride = elem->NativeSize();
        for (uint32_t i = 0; i < t->bound(); ++i) {
          if (ops_.size() > kMaxSpecOps) {
            return Reject("superinstruction budget exceeded");
          }
          if (!AddFixedValue(elem, slot,
                             offset + i * static_cast<uint32_t>(stride),
                             /*special=*/false)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kStruct: {
        for (size_t i = 0; i < t->fields().size(); ++i) {
          if (ops_.size() > kMaxSpecOps) {
            return Reject("superinstruction budget exceeded");
          }
          if (!AddFixedValue(
                  t->fields()[i].type, slot,
                  offset + static_cast<uint32_t>(NativeFieldOffset(t, i)),
                  /*special=*/false)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kString:
      case TypeKind::kSequence:
      case TypeKind::kUnion:
      case TypeKind::kVoid:
        return Reject(StrFormat(
            "nested %s member is not fixed-size straight-line code",
            std::string(TypeKindName(t->kind())).c_str()));
      default: {
        unsigned width = WireScalarWidth(t->kind());
        if (width == 0) {
          return Reject("unsupported nested scalar kind");
        }
        SpecOp op;
        op.kind = marshal_ ? SpecOpKind::kPutScalarMem
                           : SpecOpKind::kGetScalarMem;
        op.width = static_cast<uint8_t>(width);
        op.slot = slot;
        op.offset = offset;
        Emit(op);
        return true;
      }
    }
  }

  const OpPresentation& pres_;
  bool marshal_;
  bool is_reply_;
  std::vector<SpecOp> ops_;
  std::string reason_;
};

}  // namespace

SpecPlan CompileSpecPlan(const OperationDecl& op,
                         const OpPresentation& pres) {
  SpecPlan plan;
  plan.key = ComputeSpecKey(op, pres);
  plan.op_name = op.name;
  const MarshalPlanView view = BuildMarshalPlan(op, pres);

  struct StreamSpec {
    SpecStream stream;
    const std::vector<PlanItemView>* items;
    bool marshal;
    bool is_reply;
  };
  const StreamSpec streams[] = {
      {SpecStream::kMarshalRequest, &view.request, true, false},
      {SpecStream::kUnmarshalRequest, &view.request, false, false},
      {SpecStream::kMarshalReply, &view.reply, true, true},
      {SpecStream::kUnmarshalReply, &view.reply, false, true},
  };
  for (const StreamSpec& s : streams) {
    StreamCompiler compiler(pres, s.marshal, s.is_reply);
    size_t index = static_cast<size_t>(s.stream);
    if (compiler.Compile(*s.items)) {
      plan.has_stream[index] = true;
      plan.streams[index].ops = compiler.TakeOps();
    } else {
      plan.rejection[index] = compiler.reason();
    }
  }
  return plan;
}

// ---- Reference executors ---------------------------------------------------

Status RunSpecMarshal(const SpecProgram& prog, const ArgVec& args,
                      WireWriter* w, const SpecialOps* special) {
  Status end;
  for (const SpecOp& op : prog.ops) {
    if (!MarshalStep(op, args, w, special, &end)) {
      break;
    }
  }
  return end;
}

Status RunSpecUnmarshal(const SpecProgram& prog, WireReader* r, Arena* arena,
                        ArgVec* args, const SpecialOps* special,
                        bool borrow_bytes) {
  Status end;
  for (const SpecOp& op : prog.ops) {
    if (!UnmarshalStep(op, r, arena, args, special, borrow_bytes, &end)) {
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
