#include "src/marshal/engine.h"

#include <cstring>
#include <utility>

#include "src/marshal/layout.h"
#include "src/marshal/spec.h"
#include "src/marshal/value.h"
#include "src/pdl/apply.h"
#include "src/support/recorder.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {

// Classifies one interpreter step for the per-opcode trace counters.
// [special] presentations are their own bucket: they replace the copy
// routine wholesale, so their cost profile differs from the plain kinds.
TraceCounter MarshalOpCounter(const Type* resolved, bool use_special) {
  if (use_special) {
    return TraceCounter::kMarshalOpSpecial;
  }
  switch (resolved->kind()) {
    case TypeKind::kString:
      return TraceCounter::kMarshalOpString;
    case TypeKind::kSequence:
    case TypeKind::kArray:
      return TraceCounter::kMarshalOpBytes;
    case TypeKind::kStruct:
      return TraceCounter::kMarshalOpStruct;
    case TypeKind::kUnion:
      return TraceCounter::kMarshalOpUnion;
    default:
      return TraceCounter::kMarshalOpScalar;
  }
}

bool OwnsHeapStorage(const Type* type) {
  switch (type->Resolve()->kind()) {
    case TypeKind::kString:
    case TypeKind::kSequence:
    case TypeKind::kArray:
    case TypeKind::kStruct:
    case TypeKind::kUnion:
      return true;
    default:
      return false;
  }
}

// Frees the storage `slot` owns as a value of `type` (its block and every
// block nested in it, each sequence element's included) and clears the
// slot. A borrowed view of the request message is only cleared; scalar
// slots own nothing and keep their value.
void ReleaseSlot(Arena* arena, const Type* type, ArgValue* slot) {
  if (!OwnsHeapStorage(type) || slot->ptr() == nullptr) {
    return;
  }
  if (!slot->borrowed) {
    const Type* t = type->Resolve();
    void* p = slot->ptr();
    if (t->kind() == TypeKind::kSequence) {
      // A slot carries a sequence unpacked; FreeValue takes its SeqRep and
      // frees each element's blocks, then the buffer.
      SeqRep rep{slot->length, slot->length, p};
      FreeValue(arena, t, &rep);
    } else {
      if (t->kind() != TypeKind::kString) {
        FreeValue(arena, t, p);
      }
      arena->FreeBlock(p);
    }
  }
  slot->set_ptr(nullptr);
  slot->borrowed = false;
}

// The operand walk every interpreter step shares: `fn(pres, type, slot)`
// runs on the item's direct slot, or on each flattened field in order. A
// flattened union result first hands its discriminant slot to `disc`,
// which yields false when the value is an alternate arm; those are void by
// construction (FlattenableResultStruct), so the item ends there.
template <typename Disc, typename Fn>
Status ForEachOperand(const PlanItemView& item, Disc disc, Fn fn) {
  if (!item.flattened) {
    return fn(item.pres, item.type, item.slot);
  }
  if (item.is_result && item.type->Resolve()->kind() == TypeKind::kUnion) {
    FLEXRPC_ASSIGN_OR_RETURN(bool success_arm, disc(item.disc_slot));
    if (!success_arm) {
      return Status::Ok();
    }
  }
  for (const PlanFieldView& field : item.fields) {
    FLEXRPC_RETURN_IF_ERROR(fn(field.pres, field.type, field.slot));
  }
  return Status::Ok();
}

// The releases visit every field slot, whatever the discriminant says.
Result<bool> EveryField(int /*disc_slot*/) { return true; }

// Wire position marks for the fused path's byte credit: bytes written so
// far on a writer, bytes left on a reader.
size_t WireMark(const WireWriter* w) { return w->size(); }
size_t WireMark(const WireReader* r) { return r->remaining(); }
void CreditWireBytes(const WireWriter* w, size_t mark) {
  TraceAdd(TraceCounter::kMarshalBytesOut, w->size() - mark);
}
void CreditWireBytes(const WireReader* r, size_t mark) {
  TraceAdd(TraceCounter::kMarshalBytesIn, mark - r->remaining());
}

// Recorder spans of the client entry points (the `a` field of their
// kMarshalBegin/kMarshalEnd pair); the server side records none here.
constexpr int kNoSpan = -1;
constexpr int kRequestSpan = 0;
constexpr int kReplySpan = 1;

// The one stream runner behind the four entry points. When `fns` (the
// program's registry hit) has its `kFused` stream set and specialization
// is on, the stream runs that straight-line function on `fused_args`;
// otherwise it interprets `items`, one `step` each. Client streams
// (`span` != kNoSpan) record a marshal begin/end pair tagged a = span.
template <auto kFused, typename Wire, typename Step, typename... FusedArgs>
Status RunStream(const SpecFns* fns, int span,
                 const std::vector<PlanItemView>& items, Wire* wire,
                 Step step, FusedArgs&&... fused_args) {
  // The engine has no call identity of its own; it records only when the
  // caller opened a RecorderCallScope (src/apps/nfs.cc does, around each
  // stub invocation). Marshal work is host CPU, so the span is zero-width
  // in virtual time — its wall stamps still separate begin from end.
  const bool record =
      span != kNoSpan && RecorderEnabled() && RecorderCallScope::Active();
  if (record) {
    RecordEvent(RecEvent::kMarshalBegin, RecEndpoint::kClient,
                RecorderCallScope::CurrentXid(),
                RecorderCallScope::CurrentVirtualNanos(), span);
  }
  const auto fused = fns != nullptr ? fns->*kFused : nullptr;
  if (fused != nullptr && MarshalSpecializationEnabled()) {
    TraceAdd(TraceCounter::kMarshalSpecHits);
    const size_t mark = WireMark(wire);
    FLEXRPC_RETURN_IF_ERROR(fused(std::forward<FusedArgs>(fused_args)...));
    // The fused code skips the interpreter's per-item counters; account
    // its work as wire-delta bytes so traced budgets stay attributable.
    CreditWireBytes(wire, mark);
  } else {
    TraceAdd(TraceCounter::kMarshalSpecMisses);
    for (const PlanItemView& item : items) {
      FLEXRPC_RETURN_IF_ERROR(step(item));
    }
  }
  if (record) {
    RecordEvent(RecEvent::kMarshalEnd, RecEndpoint::kClient,
                RecorderCallScope::CurrentXid(),
                RecorderCallScope::CurrentVirtualNanos(), span);
  }
  return Status::Ok();
}

}  // namespace

MarshalPlanView BuildMarshalPlan(const OperationDecl& op,
                                 const OpPresentation& pres) {
  MarshalPlanView plan;
  plan.slot_count = pres.params.size() + 1;
  // Flattens `item` into the fields of struct `st`: field f goes in the
  // slot whose binding is (kind, param_index, f).
  auto flatten = [&](PlanItemView* item, const Type* st, BindingKind kind,
                     int param_index) {
    item->flattened = true;
    item->fields.resize(st->fields().size());
    for (size_t s = 0; s < pres.params.size(); ++s) {
      const Binding& b = pres.params[s].binding;
      if (b.kind == kind && b.param_index == param_index) {
        auto f = static_cast<size_t>(b.field_index);
        item->fields[f] = PlanFieldView{st->fields()[f].type,
                                        static_cast<int>(s), &pres.params[s]};
      }
    }
  };

  for (size_t i = 0; i < op.params.size(); ++i) {
    PlanItemView item;
    item.type = op.params[i].type;
    item.dir = op.params[i].dir;
    for (size_t s = 0; s < pres.params.size() && item.slot < 0; ++s) {
      const Binding& b = pres.params[s].binding;
      if (b.kind == BindingKind::kParam &&
          b.param_index == static_cast<int>(i)) {
        item.slot = static_cast<int>(s);
        item.pres = &pres.params[s];
      }
    }
    if (item.slot < 0) {
      // No direct binding: the parameter was flattened into its fields.
      flatten(&item, item.type->Resolve(), BindingKind::kParamField,
              static_cast<int>(i));
    }
    if (item.dir != ParamDir::kOut) {
      plan.request.push_back(item);
    }
    if (item.dir != ParamDir::kIn) {
      plan.reply.push_back(std::move(item));
    }
  }

  const Type* result = op.result->Resolve();
  if (result->kind() == TypeKind::kVoid) {
    return plan;
  }
  PlanItemView item;
  item.type = op.result;
  item.dir = ParamDir::kOut;
  item.is_result = true;
  if (!pres.result_flattened) {
    item.slot = static_cast<int>(plan.slot_count) - 1;
    item.pres = &pres.result;
  } else {
    item.flattened = true;
    item.success_struct = FlattenableResultStruct(op);
    if (result->kind() == TypeKind::kUnion) {
      for (const UnionArm& arm : result->arms()) {
        if (arm.type->Resolve() == item.success_struct) {
          item.success_label = arm.label;
          break;
        }
      }
    }
    if (item.success_struct != nullptr) {
      flatten(&item, item.success_struct, BindingKind::kResultField, -1);
    }
    for (size_t s = 0; s < pres.params.size(); ++s) {
      if (pres.params[s].binding.kind == BindingKind::kResultDiscriminant) {
        item.disc_slot = static_cast<int>(s);
      }
    }
  }
  plan.reply.push_back(std::move(item));
  return plan;
}

MarshalProgram MarshalProgram::Build(const OperationDecl& op,
                                     const OpPresentation& pres) {
  MarshalProgram prog;
  prog.op_ = &op;
  prog.pres_ = &pres;
  prog.plan_ = BuildMarshalPlan(op, pres);
  // flexspec bind-time step: one key computation and one registry probe
  // here buys branch-free per-call dispatch below.
  prog.spec_fns_ = FindSpecialization(ComputeSpecKey(op, pres));
  return prog;
}

uint32_t MarshalProgram::EffectiveLength(const ParamPresentation* pres,
                                         const Type* type,
                                         const ArgValue& slot,
                                         const ArgVec& args) const {
  if (pres != nullptr && pres->explicit_length) {
    int len_slot = SlotOf(pres->length_param);
    if (len_slot >= 0) {
      return static_cast<uint32_t>(args[static_cast<size_t>(len_slot)]
                                       .scalar);
    }
  }
  if (type->Resolve()->kind() == TypeKind::kString) {
    const char* s = static_cast<const char*>(slot.ptr());
    return s == nullptr ? 0 : static_cast<uint32_t>(std::strlen(s));
  }
  return slot.length;
}

Status MarshalProgram::MarshalRequest(const ArgVec& args, WireWriter* w,
                                      const SpecialOps* special) const {
  return RunStream<&SpecFns::marshal_request>(
      spec_fns_, kRequestSpan, plan_.request, w,
      [&](const PlanItemView& item) {
        return MarshalItem(item, args, w, special);
      },
      args, w, special);
}

Status MarshalProgram::UnmarshalRequest(WireReader* r, Arena* arena,
                                        ArgVec* args,
                                        const SpecialOps* special,
                                        bool borrow_bytes) const {
  return RunStream<&SpecFns::unmarshal_request>(
      spec_fns_, kNoSpan, plan_.request, r,
      [&](const PlanItemView& item) {
        return UnmarshalItem(item, r, arena, args, special, borrow_bytes);
      },
      r, arena, args, special, borrow_bytes);
}

Status MarshalProgram::MarshalReply(const ArgVec& args, WireWriter* w,
                                    Arena* arena,
                                    const SpecialOps* special) const {
  // Streams with [dealloc(always)] parameters are never specialized
  // (CompileSpecPlan rejects them), so the DeallocAfterMarshal epilogue
  // belongs to the interpreted path only.
  return RunStream<&SpecFns::marshal_reply>(
      spec_fns_, kNoSpan, plan_.reply, w,
      [&](const PlanItemView& item) {
        FLEXRPC_RETURN_IF_ERROR(MarshalItem(item, args, w, special));
        if (arena != nullptr) {
          DeallocAfterMarshal(item, args, arena);
        }
        return Status::Ok();
      },
      args, w, special);
}

Status MarshalProgram::UnmarshalReply(WireReader* r, Arena* arena,
                                      ArgVec* args,
                                      const SpecialOps* special) const {
  // Never borrow on the client: the reply buffer is released as soon as
  // the stub returns.
  return RunStream<&SpecFns::unmarshal_reply>(
      spec_fns_, kReplySpan, plan_.reply, r,
      [&](const PlanItemView& item) {
        return UnmarshalItem(item, r, arena, args, special,
                             /*borrow_bytes=*/false);
      },
      r, arena, args, special, /*borrow_bytes=*/false);
}

Status MarshalProgram::MarshalItem(const PlanItemView& item,
                                   const ArgVec& args, WireWriter* w,
                                   const SpecialOps* special) const {
  return ForEachOperand(
      item,
      [&](int disc_slot) -> Result<bool> {
        auto disc = static_cast<uint32_t>(
            args[static_cast<size_t>(disc_slot)].scalar);
        w->PutU32(disc);
        return disc == item.success_label;
      },
      [&](const ParamPresentation* pres, const Type* type, int s) {
        const ArgValue& slot = args[static_cast<size_t>(s)];
        return MarshalTop(pres, type, slot,
                          EffectiveLength(pres, type, slot, args), w,
                          special);
      });
}

Status MarshalProgram::UnmarshalItem(const PlanItemView& item, WireReader* r,
                                     Arena* arena, ArgVec* args,
                                     const SpecialOps* special,
                                     bool borrow_bytes) const {
  return ForEachOperand(
      item,
      [&](int disc_slot) -> Result<bool> {
        FLEXRPC_ASSIGN_OR_RETURN(uint32_t disc, r->GetU32());
        (*args)[static_cast<size_t>(disc_slot)].scalar = disc;
        return disc == item.success_label;
      },
      [&](const ParamPresentation* pres, const Type* type, int s) {
        return UnmarshalTop(pres, type, &(*args)[static_cast<size_t>(s)], r,
                            arena, special, borrow_bytes);
      });
}

Status MarshalProgram::MarshalTop(const ParamPresentation* pres,
                                  const Type* type, const ArgValue& slot,
                                  uint32_t explicit_len, WireWriter* w,
                                  const SpecialOps* special) const {
  const Type* t = type->Resolve();
  bool use_special = pres != nullptr && pres->special &&
                     special != nullptr && special->copy_out != nullptr;
  // A byte run moves through the [special] routine when one applies.
  auto put_run = [&](const void* src, uint32_t n) {
    if (use_special) {
      special->copy_out(w->ReserveBytes(n), src, n);
    } else {
      w->PutBytes(src, n);
    }
  };
  if (TraceEnabled()) {
    TraceAdd(MarshalOpCounter(t, use_special));
    // Payload accounting: variable-length kinds by their wire length,
    // everything else by native size (recursive struct internals are
    // attributed to the top-level op).
    size_t bytes;
    switch (t->kind()) {
      case TypeKind::kVoid:
        bytes = 0;
        break;
      case TypeKind::kString:
        bytes = explicit_len;
        break;
      case TypeKind::kSequence:
        bytes = explicit_len *
                (IsByteElem(t->element()) ? 1 : t->element()->NativeSize());
        break;
      default:
        bytes = t->NativeSize();
    }
    TraceAdd(TraceCounter::kMarshalBytesOut, bytes);
  }
  switch (t->kind()) {
    case TypeKind::kVoid:
      return Status::Ok();
    case TypeKind::kString: {
      const char* s = static_cast<const char*>(slot.ptr());
      uint32_t len = explicit_len;
      if (t->bound() != 0 && len > t->bound()) {
        return InvalidArgumentError(
            StrFormat("string length %u exceeds bound %u", len, t->bound()));
      }
      w->PutU32(len);
      put_run(s, len);
      return Status::Ok();
    }
    case TypeKind::kSequence: {
      uint32_t len = explicit_len;
      if (t->bound() != 0 && len > t->bound()) {
        return InvalidArgumentError(
            StrFormat("sequence length %u exceeds bound %u", len,
                      t->bound()));
      }
      w->PutU32(len);
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        put_run(slot.ptr(), len);
        return Status::Ok();
      }
      size_t stride = elem->NativeSize();
      const auto* base = static_cast<const uint8_t*>(slot.ptr());
      for (uint32_t i = 0; i < len; ++i) {
        FLEXRPC_RETURN_IF_ERROR(MarshalValue(w, elem, base + i * stride));
      }
      return Status::Ok();
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        put_run(slot.ptr(), t->bound());
        return Status::Ok();
      }
      size_t stride = elem->NativeSize();
      const auto* base = static_cast<const uint8_t*>(slot.ptr());
      for (uint32_t i = 0; i < t->bound(); ++i) {
        FLEXRPC_RETURN_IF_ERROR(MarshalValue(w, elem, base + i * stride));
      }
      return Status::Ok();
    }
    case TypeKind::kStruct:
    case TypeKind::kUnion:
      return MarshalValue(w, t, slot.ptr());
    default:
      PutScalarWire(w, t, slot.scalar);
      return Status::Ok();
  }
}

Status MarshalProgram::UnmarshalTop(const ParamPresentation* pres,
                                    const Type* type, ArgValue* slot,
                                    WireReader* r, Arena* arena,
                                    const SpecialOps* special,
                                    bool borrow_bytes) const {
  const Type* t = type->Resolve();
  bool use_special = pres != nullptr && pres->special &&
                     special != nullptr && special->copy_in != nullptr;
  // A byte run moves through the [special] routine when one applies.
  auto copy_run = [&](void* dest, const uint8_t* bytes, uint32_t n) {
    if (use_special) {
      special->copy_in(dest, bytes, n);
    } else {
      std::memcpy(dest, bytes, n);
    }
  };
  TraceAdd(MarshalOpCounter(t, use_special));
  // A slot that already carries a destination pointer is caller storage:
  // [alloc(user)] receive buffers and [special] user-space destinations both
  // arrive this way. Otherwise the stub allocates from the receiving arena.
  bool caller_buffer = slot->ptr() != nullptr;
  switch (t->kind()) {
    case TypeKind::kVoid:
      return Status::Ok();
    case TypeKind::kString: {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t len, r->GetU32());
      if (t->bound() != 0 && len > t->bound()) {
        return DataLossError(
            StrFormat("wire string length %u exceeds bound %u", len,
                      t->bound()));
      }
      FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes, r->GetBytes(len));
      TraceAdd(TraceCounter::kMarshalBytesIn, len);
      char* dest;
      if (caller_buffer) {
        if (slot->capacity < len + 1) {
          return ResourceExhaustedError(
              StrFormat("caller buffer (%u bytes) too small for %u-byte "
                        "string",
                        slot->capacity, len));
        }
        dest = static_cast<char*>(slot->ptr());
      } else {
        dest = static_cast<char*>(arena->AllocateBlock(len + 1));
        slot->set_ptr(dest);
      }
      copy_run(dest, bytes, len);
      dest[len] = '\0';
      slot->length = len;
      return Status::Ok();
    }
    case TypeKind::kSequence: {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t len, r->GetU32());
      if (t->bound() != 0 && len > t->bound()) {
        return DataLossError(
            StrFormat("wire sequence length %u exceeds bound %u", len,
                      t->bound()));
      }
      const Type* elem = t->element();
      TraceAdd(TraceCounter::kMarshalBytesIn,
               len * (IsByteElem(elem) ? 1 : elem->NativeSize()));
      if (IsByteElem(elem)) {
        FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes, r->GetBytes(len));
        if (borrow_bytes && !caller_buffer && !use_special) {
          // In-place view of the request message: zero-copy unmarshal.
          slot->set_ptr(bytes);
          slot->length = len;
          slot->borrowed = true;
          return Status::Ok();
        }
        void* dest;
        if (caller_buffer) {
          if (slot->capacity < len) {
            return ResourceExhaustedError(
                StrFormat("caller buffer (%u bytes) too small for %u-byte "
                          "sequence",
                          slot->capacity, len));
          }
          dest = slot->ptr();
        } else {
          dest = arena->AllocateBlock(len > 0 ? len : 1);
          slot->set_ptr(dest);
        }
        copy_run(dest, bytes, len);
        slot->length = len;
        return Status::Ok();
      }
      if (len > r->remaining()) {
        // Every non-byte element takes at least one wire byte: a larger
        // count is malformed, and must not size an allocation.
        return DataLossError(StrFormat(
            "wire sequence length %u exceeds the %zu bytes left", len,
            r->remaining()));
      }
      size_t stride = elem->NativeSize();
      uint8_t* base;
      if (caller_buffer) {
        if (slot->capacity < len) {
          return ResourceExhaustedError(
              "caller buffer too small for sequence");
        }
        base = static_cast<uint8_t*>(slot->ptr());
      } else {
        base = static_cast<uint8_t*>(
            AllocateZeroedBlock(arena, len > 0 ? len * stride : 1));
        slot->set_ptr(base);
      }
      // The length covers every element before any is read, so a release
      // after a failed element frees the ones already read.
      slot->length = len;
      for (uint32_t i = 0; i < len; ++i) {
        FLEXRPC_RETURN_IF_ERROR(
            UnmarshalValue(r, elem, base + i * stride, arena));
      }
      return Status::Ok();
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      size_t total = t->NativeSize();
      TraceAdd(TraceCounter::kMarshalBytesIn, total);
      uint8_t* dest;
      if (caller_buffer) {
        // Fixed-size data goes into provided storage when there is any.
        dest = static_cast<uint8_t*>(slot->ptr());
      } else {
        dest = static_cast<uint8_t*>(AllocateZeroedBlock(arena, total));
        slot->set_ptr(dest);
      }
      if (IsByteElem(elem)) {
        FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes,
                                 r->GetBytes(t->bound()));
        copy_run(dest, bytes, t->bound());
        return Status::Ok();
      }
      size_t stride = elem->NativeSize();
      for (uint32_t i = 0; i < t->bound(); ++i) {
        FLEXRPC_RETURN_IF_ERROR(
            UnmarshalValue(r, elem, dest + i * stride, arena));
      }
      return Status::Ok();
    }
    case TypeKind::kStruct:
    case TypeKind::kUnion: {
      TraceAdd(TraceCounter::kMarshalBytesIn, t->NativeSize());
      void* dest;
      if (caller_buffer) {
        dest = slot->ptr();
      } else {
        dest = AllocateZeroedBlock(arena, t->NativeSize());
        slot->set_ptr(dest);
      }
      return UnmarshalValue(r, t, dest, arena);
    }
    default: {
      FLEXRPC_ASSIGN_OR_RETURN(uint64_t bits, GetScalarWire(r, t));
      TraceAdd(TraceCounter::kMarshalBytesIn, t->NativeSize());
      slot->scalar = bits;
      return Status::Ok();
    }
  }
}

void MarshalProgram::DeallocAfterMarshal(const PlanItemView& item,
                                         const ArgVec& args,
                                         Arena* arena) const {
  // [dealloc(always)] move semantics: the marshaled storage is freed; the
  // caller's const slot keeps its (now dangling) pointer.
  (void)ForEachOperand(
      item, EveryField,
      [&](const ParamPresentation* pres, const Type* type, int s) {
        if (pres != nullptr && pres->dealloc == DeallocPolicy::kAlways) {
          ArgValue donated = args[static_cast<size_t>(s)];
          ReleaseSlot(arena, type, &donated);
        }
        return Status::Ok();
      });
}

void MarshalProgram::ReleaseRequest(Arena* arena, ArgVec* args) const {
  for (const PlanItemView& item : plan_.request) {
    (void)ForEachOperand(
        item, EveryField,
        [&](const ParamPresentation*, const Type* type, int s) {
          ReleaseSlot(arena, type, &(*args)[static_cast<size_t>(s)]);
          return Status::Ok();
        });
  }
}

void MarshalProgram::ReleaseReply(Arena* arena, ArgVec* args) const {
  for (const PlanItemView& item : plan_.reply) {
    (void)ForEachOperand(
        item, EveryField,
        [&](const ParamPresentation* pres, const Type* type, int s) {
          // Caller-provided storage is the caller's to manage.
          if (pres == nullptr || pres->alloc != AllocPolicy::kUser) {
            ReleaseSlot(arena, type, &(*args)[static_cast<size_t>(s)]);
          }
          return Status::Ok();
        });
  }
}

}  // namespace flexrpc
