#include "src/analysis/spec_verifier.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>

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

// The wire bytes a fixed-width effect moves in `format`: a scalar, a fixed
// byte run or a discriminant; 0 for any other effect.
size_t FixedBytes(const WireEffect& e, WireFormat format) {
  switch (e.kind) {
    case WireEffect::Kind::kScalar:
      return WireScalarBytes(format, e.width);
    case WireEffect::Kind::kBytes:
      return e.fixed ? WireRunBytes(format, e.count) : 0;
    case WireEffect::Kind::kDisc:
      return WireScalarBytes(format, 4);
    default:
      return 0;
  }
}

// Symbolic lowering of the plan: one pass over the item stream, lowering
// each wire item the way the engine's semantics define it, on its own
// terms rather than through CompileSpecPlan.
class PlanLowering {
 public:
  enum class Mode { kMarshal, kUnmarshal, kRelease };

  PlanLowering(const OpPresentation& pres, Mode mode)
      : pres_(pres), marshal_(mode == Mode::kMarshal),
        release_(mode == Mode::kRelease) {}

  std::vector<WireEffect> Lower(const std::vector<PlanItemView>& items) {
    for (const PlanItemView& item : items) {
      LowerItem(item);
    }
    return std::move(effects_);
  }

 private:
  // Appends `e`. The wire is checked once per maximal run of fixed-width
  // effects: the first opens the run with a kRun effect, each adds its
  // bytes to it, and a discriminant (which can end the stream) closes it;
  // any other effect but an unmarshal's storage guarantee closes it too.
  void Push(const WireEffect& e) {
    if (FixedBytes(e, WireFormat::kXdr) == 0) {
      if (e.kind != WireEffect::Kind::kEnsure) {
        run_ = kNoRun;
      }
      effects_.push_back(e);
      return;
    }
    if (run_ == kNoRun) {
      WireEffect run;
      run.kind = WireEffect::Kind::kRun;
      run.depth = e.depth;
      run_ = effects_.size();
      effects_.push_back(run);
    }
    for (size_t f = 0; f < kWireFormatCount; ++f) {
      effects_[run_].run_bytes[f] +=
          static_cast<uint32_t>(FixedBytes(e, static_cast<WireFormat>(f)));
    }
    effects_.push_back(e);
    if (e.kind == WireEffect::Kind::kDisc) {
      run_ = kNoRun;
    }
  }

  void Unbound(int slot) {
    WireEffect e;
    e.kind = WireEffect::Kind::kUnbound;
    e.slot = slot;
    Push(e);
  }

  void LowerItem(const PlanItemView& item) {
    if (!item.flattened) {
      LowerTop(item.pres, item.type, item.slot);
      return;
    }
    if (item.is_result && !release_ &&
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
      Push(e);
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
    if (release_) {
      LowerTopRelease(pres, type, slot);
      return;
    }
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
        Push(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = slot;
        bytes.special = special;
        if (!marshal_) {
          bytes.dest = WireEffect::Dest::kString;
          bytes.nul_terminated = true;
        }
        Push(bytes);
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
        Push(len);
        WireEffect bytes;
        bytes.kind = WireEffect::Kind::kBytes;
        bytes.slot = slot;
        bytes.special = special;
        if (!marshal_) {
          bytes.dest = WireEffect::Dest::kBuffer;
          bytes.may_borrow = true;
        }
        Push(bytes);
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
          Push(ensure);
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
        Push(e);
        return;
      }
    }
  }

  // What a release frees of one operand, as the unmarshal allocated it
  // (or, for a [dealloc(always)] operand after MarshalReply, as the work
  // function donated it): every block nested in the value, then the
  // operand's own storage, the nested frees guarded by whether that
  // storage is freed. A string's and a sequence's storage is its buffer, a
  // value's the block that holds it. A scalar owns nothing.
  void LowerTopRelease(const ParamPresentation* pres, const Type* type,
                       int slot) {
    const Type* t = type->Resolve();
    const bool donated =
        pres != nullptr && pres->dealloc == DeallocPolicy::kAlways;
    const bool sequence = t->kind() == TypeKind::kSequence;
    if (t->kind() != TypeKind::kString && !sequence &&
        t->kind() != TypeKind::kArray && t->kind() != TypeKind::kStruct &&
        t->kind() != TypeKind::kUnion) {
      return;
    }
    // A sequence in a slot travels unpacked: its elements are the slot's
    // storage, counted by the slot's length.
    const bool nested =
        sequence ? !IsByteElem(t->element()) && t->element()->HoldsPointers()
                 : t->kind() != TypeKind::kString && t->HoldsPointers();
    WireEffect free;
    free.kind = WireEffect::Kind::kFree;
    free.slot = slot;
    free.donated = donated;
    if (!nested) {
      Push(free);
      return;
    }
    WireEffect guard = free;
    guard.kind = WireEffect::Kind::kFreeGuard;
    const size_t at = effects_.size();
    Push(guard);
    if (sequence) {
      WireEffect loop;
      loop.slot = slot;
      loop.bound = t->bound();
      loop.len_src = SpecLenSource::kSlotLength;
      LowerLoop(loop, t->element());
    } else {
      LowerMem(t, slot, 0, 0, /*special=*/false);
    }
    Push(free);
    effects_[at].count = static_cast<uint32_t>(effects_.size() - at - 1);
  }

  // A release of the value in memory at `offset`: a string's block, a
  // sequence's elements and then its buffer (the pointer in its SeqRep),
  // through every struct field, union arm and array element that holds a
  // pointer.
  void LowerMemRelease(const Type* t, int slot, uint32_t offset,
                       uint8_t depth) {
    if (!t->HoldsPointers()) {
      return;
    }
    WireEffect e;
    e.slot = slot;
    e.offset = offset;
    e.depth = depth;
    switch (t->kind()) {
      case TypeKind::kArray:
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
        if (!IsByteElem(t->element()) && t->element()->HoldsPointers()) {
          WireEffect loop = e;
          loop.len_src = SpecLenSource::kSeqRep;
          loop.bound = t->bound();
          LowerLoop(loop, t->element());
        }
        e.offset = offset + static_cast<uint32_t>(offsetof(SeqRep, buffer));
        break;
      default:  // a string: its char*
        break;
    }
    e.kind = WireEffect::Kind::kFree;
    e.from_memory = true;
    Push(e);
  }

  // A value in memory at `offset`, inside `depth` loops (in the current
  // element of the innermost one; in slot memory at depth 0): scalar loads
  // and stores, raw byte runs, byte sequences and strings each copied into
  // a new arena block on unmarshal, a union's arm selection, and a loop
  // over each sequence or array of non-byte elements.
  void LowerMem(const Type* type, int slot, uint32_t offset, uint8_t depth,
                bool special) {
    const Type* t = type->Resolve();
    if (release_) {
      LowerMemRelease(t, slot, offset, depth);
      return;
    }
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
          Push(e);
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
        Push(e);
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
    Push(len);
    WireEffect bytes = len;
    bytes.kind = WireEffect::Kind::kBytes;
    bytes.bound = 0;
    bytes.len_src = SpecLenSource::kSlotLength;
    if (!marshal_) {
      bytes.dest = dest;
      bytes.nul_terminated = dest == WireEffect::Dest::kStrPtr;
    }
    Push(bytes);
  }

  // A loop over `elem`s (`loop` holds its place, count source and bound):
  // the loop, one element's effects at offset 0 of the current element one
  // level deeper, and the back-edge; both ends carry the stride and the
  // number of body effects.
  void LowerLoop(WireEffect loop, const Type* elem) {
    loop.kind = WireEffect::Kind::kLoop;
    loop.stride = static_cast<uint32_t>(elem->NativeSize());
    const size_t head = effects_.size();
    Push(loop);
    LowerMem(elem, loop.slot, 0, static_cast<uint8_t>(loop.depth + 1),
             /*special=*/false);
    effects_[head].count = static_cast<uint32_t>(effects_.size() - head - 1);
    WireEffect back;
    back.kind = WireEffect::Kind::kLoopEnd;
    back.slot = loop.slot;
    back.depth = loop.depth;
    back.stride = loop.stride;
    back.count = effects_[head].count;
    Push(back);
  }

  // A union as SelectArm reads it: the u32 discriminant at `offset`, then
  // the arm whose label it equals, else the default arm, else an error.
  // Lowered as a chain of guarded blocks, one per labeled arm in
  // declaration order, each ending in a jump past the rest; then the
  // default arm's effects, or kNoArm. A release reads no discriminant off
  // the wire and frees nothing when it matches no arm. The jumps land
  // after the union, where the default arm's run ends.
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
    if (!release_) {
      Push(disc);
    }
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
      Push(test);
      LowerMem(arm.type, slot, payload, depth, /*special=*/false);
      WireEffect jump = control;
      jump.kind = WireEffect::Kind::kArmEnd;
      Push(jump);
      effects_[guard].count =
          static_cast<uint32_t>(effects_.size() - guard - 1);
      jumps.push_back(effects_.size() - 1);
    }
    if (fallback != nullptr) {
      LowerMem(fallback, slot, payload, depth, /*special=*/false);
    } else if (!release_) {
      WireEffect none = control;
      none.kind = WireEffect::Kind::kNoArm;
      Push(none);
    }
    for (size_t at : jumps) {
      effects_[at].count = static_cast<uint32_t>(effects_.size() - at - 1);
    }
    run_ = kNoRun;
  }

  static constexpr size_t kNoRun = SIZE_MAX;

  const OpPresentation& pres_;
  bool marshal_;
  bool release_;
  std::vector<WireEffect> effects_;
  size_t run_ = kNoRun;  // the open run's kRun effect
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
    case Kind::kRun:
      return StrFormat("run(xdr=%u native=%u)",
                       run_bytes[static_cast<size_t>(WireFormat::kXdr)],
                       run_bytes[static_cast<size_t>(WireFormat::kNative)]);
    case Kind::kFreeGuard:
      return StrFormat("free_guard(slot%d%s skip=%u)", slot,
                       donated ? " donated" : "", count);
    case Kind::kFree:
      return from_memory ? StrFormat("free(%s mem)", Place(*this).c_str())
                         : StrFormat("free(slot%d%s)", slot,
                                     donated ? " donated" : "");
    case Kind::kUnbound:
      return StrFormat("unbound(slot%d)", slot);
  }
  return "?";
}

std::vector<WireEffect> PlanStreamEffects(const OperationDecl& op,
                                          const OpPresentation& pres,
                                          SpecStream stream) {
  using Mode = PlanLowering::Mode;
  const MarshalPlanView view = BuildMarshalPlan(op, pres);
  const Mode mode = stream == SpecStream::kMarshalRequest ||
                            stream == SpecStream::kMarshalReply
                        ? Mode::kMarshal
                    : stream == SpecStream::kUnmarshalRequest ||
                            stream == SpecStream::kUnmarshalReply
                        ? Mode::kUnmarshal
                        : Mode::kRelease;
  const bool is_reply = stream == SpecStream::kMarshalReply ||
                        stream == SpecStream::kUnmarshalReply ||
                        stream == SpecStream::kReleaseReply;
  return PlanLowering(pres, mode).Lower(is_reply ? view.reply
                                                 : view.request);
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
    case SpecOpKind::kRun:
      e.kind = WireEffect::Kind::kRun;
      e.slot = -1;
      for (size_t f = 0; f < kWireFormatCount; ++f) {
        e.run_bytes[f] = op.run_bytes[f];
      }
      effects->push_back(e);
      return;
    case SpecOpKind::kFreeGuard:
    case SpecOpKind::kFreeSlot:
      e.kind = op.kind == SpecOpKind::kFreeGuard ? WireEffect::Kind::kFreeGuard
                                                 : WireEffect::Kind::kFree;
      e.donated = op.donated;
      e.count = op.kind == SpecOpKind::kFreeGuard ? op.count : 0;
      effects->push_back(e);
      return;
    case SpecOpKind::kFreeMem:
      e.kind = WireEffect::Kind::kFree;
      e.offset = op.offset;
      e.from_memory = true;
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
  // the ops after it (kArm, kArmEnd, kLoop, kFreeGuard), or before it
  // (kLoopEnd). A
  // span past either end of the stream matches no plan.
  for (size_t i = 0; i < ops.size(); ++i) {
    WireEffect& e = effects[first[i]];
    const size_t n = ops[i].count;
    switch (e.kind) {
      case WireEffect::Kind::kArm:
      case WireEffect::Kind::kArmEnd:
      case WireEffect::Kind::kLoop:
      case WireEffect::Kind::kFreeGuard:
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
      plan.fixed != spec.fixed ||
      !std::equal(std::begin(plan.run_bytes), std::end(plan.run_bytes),
                  std::begin(spec.run_bytes))) {
    return "FLEX204";
  }
  return "FLEX206";  // dest / special / borrow / NUL / donated policy
}

// Checks, on the compiled stream alone, where it checks its space: each
// fixed-width effect lies in the run the kRun before it opened, a run's
// bytes in each format are its effects' sum, a discriminant (which can end
// the stream) ends its run, and no branch or loop lands inside a run, past
// the kRun that checks it. Returns what is wrong, or an empty string.
std::string RunFault(const std::vector<WireEffect>& fx) {
  // Where a branch or a loop goes other than to the next effect.
  std::vector<bool> lands(fx.size() + 1, false);
  for (size_t i = 0; i < fx.size(); ++i) {
    const size_t n = fx[i].count;
    size_t to = SIZE_MAX;
    switch (fx[i].kind) {
      case WireEffect::Kind::kArm:
      case WireEffect::Kind::kArmEnd:
      case WireEffect::Kind::kFreeGuard:
        to = i + 1 + n;
        break;
      case WireEffect::Kind::kLoop:
        to = i + 2 + n;  // an empty loop: past its back-edge
        break;
      case WireEffect::Kind::kLoopEnd:
        to = n <= i ? i - n : SIZE_MAX;
        break;
      default:
        break;
    }
    if (to < lands.size()) {
      lands[to] = true;
    }
  }
  size_t run = 0;                        // the open run's kRun
  uint32_t left[kWireFormatCount] = {};  // its bytes not moved yet
  auto open = [&left] {
    return std::any_of(std::begin(left), std::end(left),
                       [](uint32_t n) { return n != 0; });
  };
  for (size_t i = 0; i < fx.size(); ++i) {
    const WireEffect& e = fx[i];
    if (open() && lands[i]) {
      return StrFormat("effect %zu, where a branch lands, lies inside the run "
                       "at effect %zu",
                       i, run);
    }
    const bool fixed = FixedBytes(e, WireFormat::kXdr) != 0;
    if (open() && !fixed && e.kind != WireEffect::Kind::kEnsure) {
      return StrFormat("the run at effect %zu is not used up at effect %zu",
                       run, i);
    }
    if (e.kind == WireEffect::Kind::kRun) {
      run = i;
      std::copy(std::begin(e.run_bytes), std::end(e.run_bytes), left);
      continue;
    }
    for (size_t f = 0; f < kWireFormatCount; ++f) {
      const size_t bytes = FixedBytes(e, static_cast<WireFormat>(f));
      if (bytes > left[f]) {
        return StrFormat("effect %zu moves bytes no run checked", i);
      }
      left[f] -= static_cast<uint32_t>(bytes);
    }
    if (e.kind == WireEffect::Kind::kDisc && open()) {
      return StrFormat("the run at effect %zu is not used up at the "
                       "discriminant at effect %zu, which can end the stream",
                       run, i);
    }
  }
  if (open()) {
    return StrFormat("the run at effect %zu is not used up at the stream's "
                     "end",
                     run);
  }
  return "";
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
    const std::string run_fault = RunFault(spec_fx);
    if (!run_fault.empty()) {
      diags->Report("FLEX204", file, SourcePos{},
                    StrFormat("%s: %s", where.c_str(), run_fault.c_str()));
      ++reported;
    }
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
