#include "src/analysis/spec_verifier.h"

#include <cstdint>

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
    case WireEffect::Dest::kSeqRep:
      return "seqrep";
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
          Value(pres, t, slot);  // per-element recursion
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
      case TypeKind::kStruct:
      case TypeKind::kUnion: {
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
        leaves_ = 0;
        if (!LowerMemValue(t, slot, 0,
                           t->kind() == TypeKind::kArray && special)) {
          effects_.resize(mark);
          Value(pres, t, slot);
        }
        return;
      }
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

  // Mirror of MarshalValue/UnmarshalValue over a value in native memory:
  // recursion to scalar loads/stores, raw byte runs and byte sequences at
  // constant offsets, and each union's arm selection. False on a member
  // they recurse into further (a string, a non-byte sequence), or once the
  // value has more leaves than the emission budget lets a value unroll to.
  bool LowerMemValue(const Type* type, int slot, uint32_t offset,
                     bool special) {
    const Type* t = type->Resolve();
    WireEffect e;
    e.slot = slot;
    e.offset = offset;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return true;  // moves nothing
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
          if (!LowerMemValue(elem, slot,
                             offset + i * static_cast<uint32_t>(stride),
                             /*special=*/false)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kStruct:
        for (size_t i = 0; i < t->fields().size(); ++i) {
          if (!LowerMemValue(
                  t->fields()[i].type, slot,
                  offset + static_cast<uint32_t>(NativeFieldOffset(t, i)),
                  /*special=*/false)) {
            return false;
          }
        }
        return true;
      case TypeKind::kUnion:
        return LowerUnion(t, slot, offset);
      case TypeKind::kSequence: {
        if (!IsByteElem(t->element())) {
          return false;  // element-by-element recursion
        }
        // The SeqRep in memory: its length under the bound, then its
        // bytes; UnmarshalValue always copies into a new arena block.
        e.kind = WireEffect::Kind::kLenPrefix;
        e.from_memory = true;
        e.bound = t->bound();
        WireEffect bytes = e;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.bound = 0;
        if (!marshal_) {
          bytes.dest = WireEffect::Dest::kSeqRep;
        }
        if (!Leaf(e)) {
          return false;
        }
        effects_.push_back(bytes);  // the same leaf's second effect
        return true;
      }
      case TypeKind::kString:
        return false;  // not lowered inside a value
      default:
        e.kind = WireEffect::Kind::kScalar;
        e.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        e.from_memory = true;
        e.dest = marshal_ ? WireEffect::Dest::kNone
                          : WireEffect::Dest::kSlotMem;
        return Leaf(e);
    }
  }

  // A union as SelectArm reads it: the u32 discriminant at `offset`, then
  // the arm whose label it equals, else the default arm, else an error.
  // Lowered as a chain of guarded blocks, one per labeled arm in
  // declaration order, each ending in a jump past the rest; then the
  // default arm's effects, or kNoArm.
  bool LowerUnion(const Type* u, int slot, uint32_t offset) {
    WireEffect disc;
    disc.kind = WireEffect::Kind::kScalar;
    disc.width = 4;
    disc.slot = slot;
    disc.offset = offset;
    disc.from_memory = true;
    disc.dest =
        marshal_ ? WireEffect::Dest::kNone : WireEffect::Dest::kSlotMem;
    if (!Leaf(disc)) {
      return false;
    }
    WireEffect control;
    control.slot = slot;
    control.offset = offset;
    const uint32_t payload =
        offset + static_cast<uint32_t>(UnionPayloadOffset(u));
    const Type* fallback = nullptr;
    std::vector<size_t> jumps;
    for (const UnionArm& arm : u->arms()) {
      if (arm.is_default) {
        fallback = arm.type;
        continue;
      }
      const size_t guard = effects_.size();
      WireEffect test = control;
      test.kind = WireEffect::Kind::kArm;
      test.label = arm.label;
      WireEffect jump = control;
      jump.kind = WireEffect::Kind::kArmEnd;
      if (!Leaf(test) || !LowerMemValue(arm.type, slot, payload, false) ||
          !Leaf(jump)) {
        return false;
      }
      effects_[guard].count =
          static_cast<uint32_t>(effects_.size() - guard - 1);
      jumps.push_back(effects_.size() - 1);
    }
    if (fallback != nullptr) {
      if (!LowerMemValue(fallback, slot, payload, false)) {
        return false;
      }
    } else {
      WireEffect none = control;
      none.kind = WireEffect::Kind::kNoArm;
      if (!Leaf(none)) {
        return false;
      }
    }
    for (size_t at : jumps) {
      effects_[at].count = static_cast<uint32_t>(effects_.size() - at - 1);
    }
    return true;
  }

  // One leaf of an unrolled value, counted against the emission budget
  // the way the compiler counts its ops.
  bool Leaf(const WireEffect& e) {
    if (leaves_ >= kMaxSpecOps) {
      return false;
    }
    ++leaves_;
    effects_.push_back(e);
    return true;
  }

  const OpPresentation& pres_;
  bool marshal_;
  std::vector<WireEffect> effects_;
  size_t leaves_ = 0;  // leaves of the value being lowered so far
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
      return StrFormat("len(slot%d%s src=%s len_slot%d bound=%u)", slot,
                       from_memory ? StrFormat("+%u mem", offset).c_str()
                                   : "",
                       LenSourceName(len_src), len_slot, bound);
    case Kind::kBytes:
      return StrFormat(
          "bytes(slot%d+%u %s%s%s dest=%s%s)", slot, offset,
          fixed ? StrFormat("fixed=%u", count).c_str() : "var",
          special ? " special" : "", may_borrow ? " borrow" : "",
          DestName(dest), nul_terminated ? " nul" : "");
    case Kind::kDisc:
      return StrFormat("disc(slot%d label=%u dest=%s)", slot, label,
                       DestName(dest));
    case Kind::kEnsure:
      return StrFormat("ensure(slot%d %u bytes)", slot, count);
    case Kind::kOpaque:
      return StrFormat("opaque(slot%d %s src=%s len_slot%d dest=%s)", slot,
                       type != nullptr ? type->ToString().c_str() : "?",
                       LenSourceName(len_src), len_slot, DestName(dest));
    case Kind::kArm:
      return StrFormat("arm(slot%d+%u label=%u skip=%u)", slot, offset,
                       label, count);
    case Kind::kArmEnd:
      return StrFormat("arm_end(slot%d+%u skip=%u)", slot, offset, count);
    case Kind::kNoArm:
      return StrFormat("no_arm(slot%d+%u)", slot, offset);
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
  return PlanLowering(pres, marshal)
      .Lower(is_reply ? view.reply : view.request);
}

namespace {

// A length prefix effect governed by `op`'s length operands.
WireEffect LenEffect(const SpecOp& op) {
  WireEffect len;
  len.kind = WireEffect::Kind::kLenPrefix;
  len.slot = op.slot;
  len.len_src = op.len_src;
  len.len_slot = op.len_slot;
  len.bound = op.bound;
  return len;
}

// A variable byte run effect moved by `op`.
WireEffect BytesEffect(const SpecOp& op) {
  WireEffect bytes;
  bytes.kind = WireEffect::Kind::kBytes;
  bytes.slot = op.slot;
  bytes.special = op.special;
  return bytes;
}

// Appends one op's effects, expanded from its kind alone. A branch op's
// `count` still counts ops here; SpecStreamEffects converts it.
void ExpandOp(const SpecOp& op, std::vector<WireEffect>* effects) {
  WireEffect e;
  e.slot = op.slot;
  switch (op.kind) {
    case SpecOpKind::kPutScalarSlot:
    case SpecOpKind::kGetScalarSlot:
      e.kind = WireEffect::Kind::kScalar;
      e.width = op.width;
      e.dest = op.kind == SpecOpKind::kGetScalarSlot
                   ? WireEffect::Dest::kSlotScalar
                   : WireEffect::Dest::kNone;
      effects->push_back(e);
      return;
    case SpecOpKind::kPutScalarMem:
    case SpecOpKind::kGetScalarMem:
      e.kind = WireEffect::Kind::kScalar;
      e.width = op.width;
      e.offset = op.offset;
      e.from_memory = true;
      e.dest = op.kind == SpecOpKind::kGetScalarMem
                   ? WireEffect::Dest::kSlotMem
                   : WireEffect::Dest::kNone;
      effects->push_back(e);
      return;
    case SpecOpKind::kPutBytesFixed:
    case SpecOpKind::kGetBytesFixed:
      e.kind = WireEffect::Kind::kBytes;
      e.offset = op.offset;
      e.count = op.count;
      e.fixed = true;
      e.special = op.special;
      e.dest = op.kind == SpecOpKind::kGetBytesFixed
                   ? WireEffect::Dest::kSlotMem
                   : WireEffect::Dest::kNone;
      effects->push_back(e);
      return;
    case SpecOpKind::kPutSeqBytes:
    case SpecOpKind::kPutString:
      effects->push_back(LenEffect(op));
      effects->push_back(BytesEffect(op));
      return;
    case SpecOpKind::kGetSeqBytes:
    case SpecOpKind::kGetString: {
      WireEffect len = LenEffect(op);
      len.len_src = SpecLenSource::kSlotLength;  // the wire gives it
      len.len_slot = -1;
      effects->push_back(len);
      WireEffect bytes = BytesEffect(op);
      if (op.kind == SpecOpKind::kGetString) {
        bytes.dest = WireEffect::Dest::kString;
        bytes.nul_terminated = true;
      } else {
        bytes.dest = WireEffect::Dest::kBuffer;
        bytes.may_borrow = true;
      }
      effects->push_back(bytes);
      return;
    }
    case SpecOpKind::kPutSeqBytesMem:
    case SpecOpKind::kGetSeqBytesMem: {
      WireEffect len = LenEffect(op);
      len.offset = op.offset;
      len.from_memory = true;
      effects->push_back(len);
      WireEffect bytes = BytesEffect(op);
      bytes.offset = op.offset;
      bytes.from_memory = true;
      if (op.kind == SpecOpKind::kGetSeqBytesMem) {
        bytes.dest = WireEffect::Dest::kSeqRep;
      }
      effects->push_back(bytes);
      return;
    }
    case SpecOpKind::kPutUnionDisc:
    case SpecOpKind::kGetUnionDisc:
      e.kind = WireEffect::Kind::kDisc;
      e.label = op.label;
      e.dest = op.kind == SpecOpKind::kGetUnionDisc
                   ? WireEffect::Dest::kSlotScalar
                   : WireEffect::Dest::kNone;
      effects->push_back(e);
      return;
    case SpecOpKind::kEnsureStorage:
      e.kind = WireEffect::Kind::kEnsure;
      e.count = op.count;
      effects->push_back(e);
      return;
    case SpecOpKind::kPutValue:
    case SpecOpKind::kGetValue:
      e.kind = WireEffect::Kind::kOpaque;
      e.type = op.type;
      e.len_src = op.len_src;
      e.len_slot = op.len_slot;
      e.dest = op.kind == SpecOpKind::kGetValue ? WireEffect::Dest::kValue
                                                : WireEffect::Dest::kNone;
      effects->push_back(e);
      return;
    case SpecOpKind::kArm:
    case SpecOpKind::kArmEnd:
    case SpecOpKind::kNoArm:
      e.kind = op.kind == SpecOpKind::kArm      ? WireEffect::Kind::kArm
               : op.kind == SpecOpKind::kArmEnd ? WireEffect::Kind::kArmEnd
                                                : WireEffect::Kind::kNoArm;
      e.offset = op.offset;
      e.label = op.kind == SpecOpKind::kArm ? op.label : 0;
      e.count = op.kind == SpecOpKind::kNoArm ? 0 : op.count;
      effects->push_back(e);
      return;
  }
}

}  // namespace

std::vector<WireEffect> SpecStreamEffects(const SpecProgram& prog) {
  const std::vector<SpecOp>& ops = prog.ops;
  std::vector<WireEffect> effects;
  std::vector<size_t> first(ops.size() + 1);  // op i's first effect
  for (size_t i = 0; i < ops.size(); ++i) {
    first[i] = effects.size();
    ExpandOp(ops[i], &effects);
  }
  first[ops.size()] = effects.size();
  // A branch skips ops; its effect skips the effects of those ops. A skip
  // past the stream's end matches no plan.
  for (size_t i = 0; i < ops.size(); ++i) {
    WireEffect& e = effects[first[i]];
    if (e.kind == WireEffect::Kind::kArm ||
        e.kind == WireEffect::Kind::kArmEnd) {
      const size_t past = i + 1 + ops[i].count;
      e.count = past <= ops.size()
                    ? static_cast<uint32_t>(first[past] - first[i + 1])
                    : UINT32_MAX;
    }
  }
  return effects;
}

namespace {

// Classifies one effect-pair divergence into its FLEX2xx code.
std::string_view DivergenceCode(const WireEffect& plan,
                                const WireEffect& spec) {
  // Any union control: a discriminant, an arm's label or skip, no-arm.
  auto union_control = [](WireEffect::Kind kind) {
    return kind == WireEffect::Kind::kDisc || kind == WireEffect::Kind::kArm ||
           kind == WireEffect::Kind::kArmEnd ||
           kind == WireEffect::Kind::kNoArm;
  };
  if (union_control(plan.kind) || union_control(spec.kind)) {
    return "FLEX207";
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
