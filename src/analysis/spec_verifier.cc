#include "src/analysis/spec_verifier.h"

#include "src/marshal/engine.h"
#include "src/marshal/layout.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

const char* DestName(WireEffect::Dest dest) {
  switch (dest) {
    case WireEffect::Dest::kNone:
      return "wire";
    case WireEffect::Dest::kSlotScalar:
      return "slot-scalar";
    case WireEffect::Dest::kSlotMem:
      return "slot-mem";
    case WireEffect::Dest::kBuffer:
      return "buffer";
    case WireEffect::Dest::kString:
      return "string";
    case WireEffect::Dest::kValue:
      return "value";
  }
  return "?";
}

const char* LenSourceName(SpecLenSource src) {
  switch (src) {
    case SpecLenSource::kSlotLength:
      return "slot-length";
    case SpecLenSource::kLenSlot:
      return "length-slot";
    case SpecLenSource::kStrLen:
      return "strlen";
  }
  return "?";
}

// Symbolic lowering of the plan: one pass over the item stream, lowering
// each wire item the way the engine's semantics define it, on its own
// terms rather than through CompileSpecPlan. A value MarshalValue/
// UnmarshalValue moves whole lowers to one kOpaque effect.
class PlanLowering {
 public:
  PlanLowering(const OpPresentation& pres, bool marshal)
      : pres_(pres), marshal_(marshal) {}

  std::vector<WireEffect> Lower(const std::vector<PlanItemView>& items) {
    for (const PlanItemView& item : items) {
      LowerItem(item);
    }
    return std::move(effects_);
  }

 private:
  void Opaque(int slot) {
    WireEffect e;
    e.kind = WireEffect::Kind::kOpaque;
    e.slot = slot;
    effects_.push_back(e);
  }

  void LowerItem(const PlanItemView& item) {
    if (!item.flattened) {
      LowerTop(item.pres, item.type, item.slot);
      return;
    }
    if (item.is_result &&
        item.type->Resolve()->kind() == TypeKind::kUnion) {
      if (item.disc_slot < 0) {
        Opaque(-1);
        return;
      }
      WireEffect e;
      e.kind = WireEffect::Kind::kDisc;
      e.slot = item.disc_slot;
      e.label = item.success_label;
      e.dest = marshal_ ? WireEffect::Dest::kNone
                        : WireEffect::Dest::kSlotScalar;
      effects_.push_back(e);
    }
    for (const PlanFieldView& field : item.fields) {
      if (field.type == nullptr) {
        Opaque(field.slot);
        continue;
      }
      LowerTop(field.pres, field.type, field.slot);
    }
  }

  // The marshaled length of a string or sequence: `implicit` unless
  // [length_is] names a slot.
  void MarshalLength(const ParamPresentation* pres, SpecLenSource implicit,
                     WireEffect* e) const {
    e->len_src = implicit;
    if (pres != nullptr && pres->explicit_length) {
      int ls = pres_.SlotOf(pres->length_param);
      if (ls >= 0) {
        e->len_src = SpecLenSource::kLenSlot;
        e->len_slot = ls;
      }
    }
  }

  // A value moved whole by MarshalValue/UnmarshalValue: into caller
  // storage or a zeroed arena block on unmarshal; a top-level sequence
  // keeps its marshaled length source.
  void Value(const ParamPresentation* pres, const Type* t, int slot) {
    WireEffect e;
    e.kind = WireEffect::Kind::kOpaque;
    e.slot = slot;
    e.type = t;
    if (!marshal_) {
      e.dest = WireEffect::Dest::kValue;
    } else if (t->kind() == TypeKind::kSequence) {
      MarshalLength(pres, SpecLenSource::kSlotLength, &e);
    }
    effects_.push_back(e);
  }

  void LowerTop(const ParamPresentation* pres, const Type* type, int slot) {
    const Type* t = type->Resolve();
    bool special = pres != nullptr && pres->special;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return;
      case TypeKind::kString: {
        WireEffect len;
        len.kind = WireEffect::Kind::kLenPrefix;
        len.slot = slot;
        len.bound = t->bound();
        if (marshal_) {
          MarshalLength(pres, SpecLenSource::kStrLen, &len);
        }
        effects_.push_back(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = slot;
        bytes.special = special;
        if (!marshal_) {
          bytes.dest = WireEffect::Dest::kString;
          bytes.nul_terminated = true;
        }
        effects_.push_back(bytes);
        return;
      }
      case TypeKind::kSequence: {
        if (!IsByteElem(t->element())) {
          Value(pres, t, slot);  // per-element MarshalValue recursion
          return;
        }
        WireEffect len;
        len.kind = WireEffect::Kind::kLenPrefix;
        len.slot = slot;
        len.bound = t->bound();
        if (marshal_) {
          MarshalLength(pres, SpecLenSource::kSlotLength, &len);
        }
        effects_.push_back(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = slot;
        bytes.special = special;
        if (!marshal_) {
          bytes.dest = WireEffect::Dest::kBuffer;
          bytes.may_borrow = true;
        }
        effects_.push_back(bytes);
        return;
      }
      case TypeKind::kArray:
      case TypeKind::kStruct: {
        const size_t mark = effects_.size();
        if (!marshal_) {
          WireEffect ensure;
          ensure.kind = WireEffect::Kind::kEnsure;
          ensure.slot = slot;
          ensure.count = static_cast<uint32_t>(t->NativeSize());
          effects_.push_back(ensure);
        }
        // MarshalValue/UnmarshalValue recursion ignores [special]; only a
        // top-level byte array's run takes it.
        leaf_mark_ = effects_.size();
        if (!LowerFixedValue(t, slot, 0,
                             t->kind() == TypeKind::kArray && special)) {
          effects_.resize(mark);
          Value(pres, t, slot);
        }
        return;
      }
      case TypeKind::kUnion:
        Value(pres, t, slot);  // runtime arm selection
        return;
      default: {
        WireEffect e;
        e.kind = WireEffect::Kind::kScalar;
        e.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        e.slot = slot;
        e.dest = marshal_ ? WireEffect::Dest::kNone
                          : WireEffect::Dest::kSlotScalar;
        effects_.push_back(e);
        return;
      }
    }
  }

  // Mirror of MarshalValue/UnmarshalValue over fixed-wire-size values:
  // recursion to scalar loads/stores and raw byte runs at constant
  // offsets. False on a member that is not fixed-size, or once the value
  // has more leaves than the emission budget lets a value unroll to.
  bool LowerFixedValue(const Type* type, int slot, uint32_t offset,
                       bool special) {
    const Type* t = type->Resolve();
    WireEffect e;
    e.slot = slot;
    e.offset = offset;
    switch (t->kind()) {
      case TypeKind::kArray: {
        const Type* elem = t->element();
        if (IsByteElem(elem)) {
          e.kind = WireEffect::Kind::kBytes;
          e.count = t->bound();
          e.fixed = true;
          e.special = special;
          if (!marshal_) {
            e.dest = WireEffect::Dest::kSlotMem;
          }
          return Leaf(e);
        }
        size_t stride = elem->NativeSize();
        for (uint32_t i = 0; i < t->bound(); ++i) {
          if (!LowerFixedValue(elem, slot,
                               offset + i * static_cast<uint32_t>(stride),
                               /*special=*/false)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kStruct:
        for (size_t i = 0; i < t->fields().size(); ++i) {
          if (!LowerFixedValue(
                  t->fields()[i].type, slot,
                  offset + static_cast<uint32_t>(NativeFieldOffset(t, i)),
                  /*special=*/false)) {
            return false;
          }
        }
        return true;
      case TypeKind::kString:
      case TypeKind::kSequence:
      case TypeKind::kUnion:
      case TypeKind::kVoid:
        return false;  // arena-allocating members: not fixed-size
      default:
        e.kind = WireEffect::Kind::kScalar;
        e.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        e.from_memory = true;
        e.dest = marshal_ ? WireEffect::Dest::kNone
                          : WireEffect::Dest::kSlotMem;
        return Leaf(e);
    }
  }

  bool Leaf(const WireEffect& e) {
    if (effects_.size() - leaf_mark_ >= kMaxSpecOps) {
      return false;
    }
    effects_.push_back(e);
    return true;
  }

  const OpPresentation& pres_;
  bool marshal_;
  std::vector<WireEffect> effects_;
  size_t leaf_mark_ = 0;  // first leaf effect of the value being lowered
};

}  // namespace

std::string WireEffect::ToString() const {
  switch (kind) {
    case Kind::kScalar:
      return StrFormat("scalar(w%u %s slot%d%s dest=%s)", width,
                       from_memory ? "mem" : "reg", slot,
                       from_memory
                           ? StrFormat("+%u", offset).c_str()
                           : "",
                       DestName(dest));
    case Kind::kLenPrefix:
      return StrFormat("len(slot%d src=%s len_slot%d bound=%u)", slot,
                       LenSourceName(len_src), len_slot, bound);
    case Kind::kBytes:
      return StrFormat(
          "bytes(slot%d+%u %s%s%s dest=%s%s%s)", slot, offset,
          fixed ? StrFormat("fixed=%u", count).c_str() : "var",
          special ? " special" : "", may_borrow ? " borrow" : "",
          DestName(dest), nul_terminated ? " nul" : "", "");
    case Kind::kDisc:
      return StrFormat("disc(slot%d label=%u dest=%s)", slot, label,
                       DestName(dest));
    case Kind::kEnsure:
      return StrFormat("ensure(slot%d %u bytes)", slot, count);
    case Kind::kOpaque:
      return StrFormat("opaque(slot%d %s src=%s len_slot%d dest=%s)", slot,
                       type != nullptr ? type->ToString().c_str() : "?",
                       LenSourceName(len_src), len_slot, DestName(dest));
  }
  return "?";
}

std::vector<WireEffect> PlanStreamEffects(const OperationDecl& op,
                                          const OpPresentation& pres,
                                          SpecStream stream) {
  const MarshalPlanView view = BuildMarshalPlan(op, pres);
  bool marshal = stream == SpecStream::kMarshalRequest ||
                 stream == SpecStream::kMarshalReply;
  bool is_reply = stream == SpecStream::kMarshalReply ||
                  stream == SpecStream::kUnmarshalReply;
  PlanLowering lowering(pres, marshal);
  return lowering.Lower(is_reply ? view.reply : view.request);
}

std::vector<WireEffect> SpecStreamEffects(const SpecProgram& prog) {
  std::vector<WireEffect> effects;
  for (const SpecOp& op : prog.ops) {
    switch (op.kind) {
      case SpecOpKind::kPutScalarSlot:
      case SpecOpKind::kGetScalarSlot: {
        WireEffect e;
        e.kind = WireEffect::Kind::kScalar;
        e.width = op.width;
        e.slot = op.slot;
        e.dest = op.kind == SpecOpKind::kGetScalarSlot
                     ? WireEffect::Dest::kSlotScalar
                     : WireEffect::Dest::kNone;
        effects.push_back(e);
        break;
      }
      case SpecOpKind::kPutScalarMem:
      case SpecOpKind::kGetScalarMem: {
        WireEffect e;
        e.kind = WireEffect::Kind::kScalar;
        e.width = op.width;
        e.slot = op.slot;
        e.offset = op.offset;
        e.from_memory = true;
        e.dest = op.kind == SpecOpKind::kGetScalarMem
                     ? WireEffect::Dest::kSlotMem
                     : WireEffect::Dest::kNone;
        effects.push_back(e);
        break;
      }
      case SpecOpKind::kPutBytesFixed:
      case SpecOpKind::kGetBytesFixed: {
        WireEffect e;
        e.kind = WireEffect::Kind::kBytes;
        e.slot = op.slot;
        e.offset = op.offset;
        e.count = op.count;
        e.fixed = true;
        e.special = op.special;
        e.dest = op.kind == SpecOpKind::kGetBytesFixed
                     ? WireEffect::Dest::kSlotMem
                     : WireEffect::Dest::kNone;
        effects.push_back(e);
        break;
      }
      case SpecOpKind::kPutSeqBytes: {
        WireEffect len;
        len.kind = WireEffect::Kind::kLenPrefix;
        len.slot = op.slot;
        len.len_src = op.len_src;
        len.len_slot = op.len_slot;
        len.bound = op.bound;
        effects.push_back(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = op.slot;
        bytes.special = op.special;
        effects.push_back(bytes);
        break;
      }
      case SpecOpKind::kPutString: {
        WireEffect len;
        len.kind = WireEffect::Kind::kLenPrefix;
        len.slot = op.slot;
        len.len_src = op.len_src;
        len.len_slot = op.len_slot;
        len.bound = op.bound;
        effects.push_back(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = op.slot;
        bytes.special = op.special;
        effects.push_back(bytes);
        break;
      }
      case SpecOpKind::kGetSeqBytes: {
        WireEffect len;
        len.kind = WireEffect::Kind::kLenPrefix;
        len.slot = op.slot;
        len.bound = op.bound;
        effects.push_back(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = op.slot;
        bytes.special = op.special;
        bytes.dest = WireEffect::Dest::kBuffer;
        bytes.may_borrow = true;
        effects.push_back(bytes);
        break;
      }
      case SpecOpKind::kGetString: {
        WireEffect len;
        len.kind = WireEffect::Kind::kLenPrefix;
        len.slot = op.slot;
        len.bound = op.bound;
        effects.push_back(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = op.slot;
        bytes.special = op.special;
        bytes.dest = WireEffect::Dest::kString;
        bytes.nul_terminated = true;
        effects.push_back(bytes);
        break;
      }
      case SpecOpKind::kPutUnionDisc:
      case SpecOpKind::kGetUnionDisc: {
        WireEffect e;
        e.kind = WireEffect::Kind::kDisc;
        e.slot = op.slot;
        e.label = op.label;
        e.dest = op.kind == SpecOpKind::kGetUnionDisc
                     ? WireEffect::Dest::kSlotScalar
                     : WireEffect::Dest::kNone;
        effects.push_back(e);
        break;
      }
      case SpecOpKind::kEnsureStorage: {
        WireEffect e;
        e.kind = WireEffect::Kind::kEnsure;
        e.slot = op.slot;
        e.count = op.count;
        effects.push_back(e);
        break;
      }
      case SpecOpKind::kPutValue:
      case SpecOpKind::kGetValue: {
        WireEffect e;
        e.kind = WireEffect::Kind::kOpaque;
        e.slot = op.slot;
        e.type = op.type;
        e.len_src = op.len_src;
        e.len_slot = op.len_slot;
        e.dest = op.kind == SpecOpKind::kGetValue ? WireEffect::Dest::kValue
                                                  : WireEffect::Dest::kNone;
        effects.push_back(e);
        break;
      }
    }
  }
  return effects;
}

namespace {

// Classifies one effect-pair divergence into its FLEX2xx code.
std::string_view DivergenceCode(const WireEffect& plan,
                                const WireEffect& spec) {
  bool plan_disc = plan.kind == WireEffect::Kind::kDisc;
  bool spec_disc = spec.kind == WireEffect::Kind::kDisc;
  if (plan_disc != spec_disc) {
    return "FLEX207";
  }
  if (plan_disc && spec_disc) {
    return "FLEX207";  // same kind: slot or label diverged
  }
  if (plan.kind != spec.kind) {
    return "FLEX202";
  }
  if (plan.slot != spec.slot || plan.offset != spec.offset ||
      plan.width != spec.width || plan.from_memory != spec.from_memory ||
      plan.type != spec.type) {
    return "FLEX203";
  }
  if (plan.len_src != spec.len_src || plan.len_slot != spec.len_slot ||
      plan.bound != spec.bound || plan.count != spec.count ||
      plan.fixed != spec.fixed) {
    return "FLEX204";
  }
  return "FLEX206";  // dest / special / borrow / NUL policy
}

}  // namespace

int VerifySpecPlan(const OperationDecl& op, const OpPresentation& pres,
                   const SpecPlan& spec_plan, const std::string& file,
                   DiagnosticSink* diags) {
  int reported = 0;
  for (size_t s = 0; s < kSpecStreamCount; ++s) {
    SpecStream stream = static_cast<SpecStream>(s);
    std::vector<WireEffect> plan_fx = PlanStreamEffects(op, pres, stream);
    std::vector<WireEffect> spec_fx =
        SpecStreamEffects(spec_plan.streams[s]);
    std::string where = StrFormat("%s %s", spec_plan.op_name.c_str(),
                                  std::string(SpecStreamName(stream))
                                      .c_str());
    if (plan_fx.size() != spec_fx.size()) {
      diags->Report("FLEX201", file, SourcePos{},
                    StrFormat("%s: plan performs %zu wire effects, "
                              "compiled stream performs %zu",
                              where.c_str(), plan_fx.size(),
                              spec_fx.size()));
      ++reported;
      continue;
    }
    for (size_t i = 0; i < plan_fx.size(); ++i) {
      if (plan_fx[i] == spec_fx[i]) {
        continue;
      }
      diags->Report(DivergenceCode(plan_fx[i], spec_fx[i]), file,
                    SourcePos{},
                    StrFormat("%s: effect %zu diverges: plan %s vs "
                              "compiled stream %s",
                              where.c_str(), i,
                              plan_fx[i].ToString().c_str(),
                              spec_fx[i].ToString().c_str()));
      ++reported;
    }
  }
  return reported;
}

int ReportUnspecializedStreams(const SpecPlan& spec_plan,
                               const std::string& file,
                               DiagnosticSink* diags) {
  int reported = 0;
  for (size_t s = 0; s < kSpecStreamCount; ++s) {
    if (spec_plan.Emits(s)) {
      continue;
    }
    diags->Report("FLEX205", file, SourcePos{},
                  StrFormat("%s %s: %s", spec_plan.op_name.c_str(),
                            std::string(SpecStreamName(
                                            static_cast<SpecStream>(s)))
                                .c_str(),
                            spec_plan.rejection[s].c_str()));
    ++reported;
  }
  return reported;
}

}  // namespace flexrpc
