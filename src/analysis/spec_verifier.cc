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
    case WireEffect::Dest::kSeqRep:
      return "seqrep";
    case WireEffect::Dest::kStrPtr:
      return "strptr";
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
    case SpecLenSource::kSeqRep:
      return "seqrep";
    case SpecLenSource::kConstant:
      return "constant";
  }
  return "?";
}

// Symbolic lowering of the plan: one pass over the item stream, lowering
// each wire item the way the engine's semantics define it, on its own
// terms rather than through CompileSpecPlan.
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
  void Unbound(int slot) {
    WireEffect e;
    e.kind = WireEffect::Kind::kUnbound;
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
        Unbound(-1);
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
        Unbound(field.slot);
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
        WireEffect len;
        len.slot = slot;
        len.bound = t->bound();
        if (marshal_) {
          MarshalLength(pres, SpecLenSource::kSlotLength, &len);
        }
        if (!IsByteElem(t->element())) {
          // Travels unpacked: elements at the slot's pointer, count in its
          // length; on unmarshal a caller buffer or a zeroed arena block.
          LowerLoop(len, t->element());
          return;
        }
        len.kind = WireEffect::Kind::kLenPrefix;
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
        if (!marshal_) {
          WireEffect ensure;
          ensure.kind = WireEffect::Kind::kEnsure;
          ensure.slot = slot;
          ensure.count = static_cast<uint32_t>(t->NativeSize());
          effects_.push_back(ensure);
        }
        // Only a top-level byte array's run takes [special].
        LowerMem(t, slot, 0, 0, t->kind() == TypeKind::kArray && special);
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

  // A value in memory at `offset`, inside `depth` loops (in the current
  // element of the innermost one; in slot memory at depth 0): scalar loads
  // and stores, raw byte runs, byte sequences and strings each copied into
  // a new arena block on unmarshal, a union's arm selection, and a loop
  // over each sequence or array of non-byte elements.
  void LowerMem(const Type* type, int slot, uint32_t offset, uint8_t depth,
                bool special) {
    const Type* t = type->Resolve();
    WireEffect e;
    e.slot = slot;
    e.offset = offset;
    e.depth = depth;
    switch (t->kind()) {
      case TypeKind::kVoid:
        return;  // moves nothing
      case TypeKind::kArray:
        if (IsByteElem(t->element())) {
          e.kind = WireEffect::Kind::kBytes;
          e.count = t->bound();
          e.fixed = true;
          e.special = special;
          if (!marshal_) {
            e.dest = WireEffect::Dest::kSlotMem;
          }
          effects_.push_back(e);
          return;
        }
        e.len_src = SpecLenSource::kConstant;
        e.bound = t->bound();
        LowerLoop(e, t->element());
        return;
      case TypeKind::kStruct:
        for (size_t i = 0; i < t->fields().size(); ++i) {
          LowerMem(t->fields()[i].type, slot,
                   offset + static_cast<uint32_t>(NativeFieldOffset(t, i)),
                   depth, /*special=*/false);
        }
        return;
      case TypeKind::kUnion:
        LowerUnion(t, slot, offset, depth);
        return;
      case TypeKind::kSequence:
        e.bound = t->bound();
        if (!IsByteElem(t->element())) {
          e.len_src = SpecLenSource::kSeqRep;
          LowerLoop(e, t->element());
          return;
        }
        LowerMemRun(e, WireEffect::Dest::kSeqRep);
        return;
      case TypeKind::kString:
        e.bound = t->bound();
        if (marshal_) {
          e.len_src = SpecLenSource::kStrLen;
        }
        LowerMemRun(e, WireEffect::Dest::kStrPtr);
        return;
      default:
        e.kind = WireEffect::Kind::kScalar;
        e.width = static_cast<uint8_t>(WireScalarWidth(t->kind()));
        e.from_memory = true;
        e.dest = marshal_ ? WireEffect::Dest::kNone
                          : WireEffect::Dest::kSlotMem;
        effects_.push_back(e);
        return;
    }
  }

  // A byte sequence or string in memory (`len` holds its place and length
  // discipline): its length under the bound, then its bytes, which an
  // unmarshal copies into a new arena block whose SeqRep or char* (`dest`)
  // goes to memory.
  void LowerMemRun(WireEffect len, WireEffect::Dest dest) {
    len.kind = WireEffect::Kind::kLenPrefix;
    len.from_memory = true;
    effects_.push_back(len);
    WireEffect bytes = len;
    bytes.kind = WireEffect::Kind::kBytes;
    bytes.bound = 0;
    bytes.len_src = SpecLenSource::kSlotLength;
    if (!marshal_) {
      bytes.dest = dest;
      bytes.nul_terminated = dest == WireEffect::Dest::kStrPtr;
    }
    effects_.push_back(bytes);
  }

  // A loop over `elem`s (`loop` holds its place, count source and bound):
  // the loop, one element's effects at offset 0 of the current element one
  // level deeper, and the back-edge; both ends carry the stride and the
  // number of body effects.
  void LowerLoop(WireEffect loop, const Type* elem) {
    loop.kind = WireEffect::Kind::kLoop;
    loop.stride = static_cast<uint32_t>(elem->NativeSize());
    const size_t head = effects_.size();
    effects_.push_back(loop);
    LowerMem(elem, loop.slot, 0, static_cast<uint8_t>(loop.depth + 1),
             /*special=*/false);
    effects_[head].count = static_cast<uint32_t>(effects_.size() - head - 1);
    WireEffect back;
    back.kind = WireEffect::Kind::kLoopEnd;
    back.slot = loop.slot;
    back.depth = loop.depth;
    back.stride = loop.stride;
    back.count = effects_[head].count;
    effects_.push_back(back);
  }

  // A union as SelectArm reads it: the u32 discriminant at `offset`, then
  // the arm whose label it equals, else the default arm, else an error.
  // Lowered as a chain of guarded blocks, one per labeled arm in
  // declaration order, each ending in a jump past the rest; then the
  // default arm's effects, or kNoArm.
  void LowerUnion(const Type* u, int slot, uint32_t offset, uint8_t depth) {
    WireEffect control;
    control.slot = slot;
    control.offset = offset;
    control.depth = depth;
    WireEffect disc = control;
    disc.kind = WireEffect::Kind::kScalar;
    disc.width = 4;
    disc.from_memory = true;
    disc.dest =
        marshal_ ? WireEffect::Dest::kNone : WireEffect::Dest::kSlotMem;
    effects_.push_back(disc);
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
      effects_.push_back(test);
      LowerMem(arm.type, slot, payload, depth, /*special=*/false);
      WireEffect jump = control;
      jump.kind = WireEffect::Kind::kArmEnd;
      effects_.push_back(jump);
      effects_[guard].count =
          static_cast<uint32_t>(effects_.size() - guard - 1);
      jumps.push_back(effects_.size() - 1);
    }
    if (fallback != nullptr) {
      LowerMem(fallback, slot, payload, depth, /*special=*/false);
    } else {
      WireEffect none = control;
      none.kind = WireEffect::Kind::kNoArm;
      effects_.push_back(none);
    }
    for (size_t at : jumps) {
      effects_[at].count = static_cast<uint32_t>(effects_.size() - at - 1);
    }
  }

  const OpPresentation& pres_;
  bool marshal_;
  std::vector<WireEffect> effects_;
};

// "slot2+12", with "@1" for an operand at loop depth 1.
std::string Place(const WireEffect& e) {
  std::string out = StrFormat("slot%d+%u", e.slot, e.offset);
  if (e.depth != 0) {
    out += StrFormat("@%u", e.depth);
  }
  return out;
}

}  // namespace

std::string WireEffect::ToString() const {
  switch (kind) {
    case Kind::kScalar:
      return StrFormat("scalar(w%u %s %s dest=%s)", width,
                       from_memory ? "mem" : "reg", Place(*this).c_str(),
                       DestName(dest));
    case Kind::kLenPrefix:
      return StrFormat("len(%s%s src=%s len_slot%d bound=%u)",
                       Place(*this).c_str(), from_memory ? " mem" : "",
                       LenSourceName(len_src), len_slot, bound);
    case Kind::kBytes:
      return StrFormat(
          "bytes(%s %s%s%s dest=%s%s)", Place(*this).c_str(),
          fixed ? StrFormat("fixed=%u", count).c_str() : "var",
          special ? " special" : "", may_borrow ? " borrow" : "",
          DestName(dest), nul_terminated ? " nul" : "");
    case Kind::kDisc:
      return StrFormat("disc(slot%d label=%u dest=%s)", slot, label,
                       DestName(dest));
    case Kind::kEnsure:
      return StrFormat("ensure(slot%d %u bytes)", slot, count);
    case Kind::kArm:
      return StrFormat("arm(%s label=%u skip=%u)", Place(*this).c_str(),
                       label, count);
    case Kind::kArmEnd:
      return StrFormat("arm_end(%s skip=%u)", Place(*this).c_str(), count);
    case Kind::kNoArm:
      return StrFormat("no_arm(%s)", Place(*this).c_str());
    case Kind::kLoop:
      return StrFormat("loop(%s src=%s len_slot%d bound=%u stride=%u "
                       "body=%u)",
                       Place(*this).c_str(), LenSourceName(len_src),
                       len_slot, bound, stride, count);
    case Kind::kLoopEnd:
      return StrFormat("loop_end(%s stride=%u body=%u)",
                       Place(*this).c_str(), stride, count);
    case Kind::kUnbound:
      return StrFormat("unbound(slot%d)", slot);
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
  len.depth = op.depth;
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
  bytes.depth = op.depth;
  bytes.special = op.special;
  return bytes;
}

// Appends one op's effects, expanded from its kind alone. A branch op's or
// a loop op's `count` still counts ops here; SpecStreamEffects converts it.
void ExpandOp(const SpecOp& op, std::vector<WireEffect>* effects) {
  WireEffect e;
  e.slot = op.slot;
  e.depth = op.depth;
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
    case SpecOpKind::kGetSeqBytesMem:
    case SpecOpKind::kPutStringMem:
    case SpecOpKind::kGetStringMem: {
      const bool string = op.kind == SpecOpKind::kPutStringMem ||
                          op.kind == SpecOpKind::kGetStringMem;
      WireEffect len = LenEffect(op);
      len.offset = op.offset;
      len.from_memory = true;
      if (op.kind == SpecOpKind::kPutStringMem) {
        len.len_src = SpecLenSource::kStrLen;
      }
      effects->push_back(len);
      WireEffect bytes = BytesEffect(op);
      bytes.offset = op.offset;
      bytes.from_memory = true;
      if (op.kind == SpecOpKind::kGetSeqBytesMem ||
          op.kind == SpecOpKind::kGetStringMem) {
        bytes.dest =
            string ? WireEffect::Dest::kStrPtr : WireEffect::Dest::kSeqRep;
        bytes.nul_terminated = string;
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
    case SpecOpKind::kLoop:
      e.kind = WireEffect::Kind::kLoop;
      e.offset = op.offset;
      e.len_src = op.len_src;
      e.len_slot = op.len_slot;
      e.bound = op.bound;
      e.stride = op.stride;
      e.count = op.count;
      effects->push_back(e);
      return;
    case SpecOpKind::kLoopEnd:
      e.kind = WireEffect::Kind::kLoopEnd;
      e.stride = op.stride;
      e.count = op.count;
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
  // A branch or a loop spans ops, and its effect the effects of those ops:
  // the ops after it (kArm, kArmEnd, kLoop), or before it (kLoopEnd). A
  // span past either end of the stream matches no plan.
  for (size_t i = 0; i < ops.size(); ++i) {
    WireEffect& e = effects[first[i]];
    const size_t n = ops[i].count;
    switch (e.kind) {
      case WireEffect::Kind::kArm:
      case WireEffect::Kind::kArmEnd:
      case WireEffect::Kind::kLoop:
        e.count = i + 1 + n <= ops.size()
                      ? static_cast<uint32_t>(first[i + 1 + n] - first[i + 1])
                      : UINT32_MAX;
        break;
      case WireEffect::Kind::kLoopEnd:
        e.count = n <= i ? static_cast<uint32_t>(first[i] - first[i - n])
                         : UINT32_MAX;
        break;
      default:
        break;
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
      plan.depth != spec.depth || plan.width != spec.width ||
      plan.from_memory != spec.from_memory || plan.stride != spec.stride) {
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
