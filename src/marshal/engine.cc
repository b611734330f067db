#include "src/marshal/engine.h"

#include <cstring>
#include <unordered_map>

#include "src/marshal/layout.h"
#include "src/marshal/spec.h"
#include "src/marshal/value.h"
#include "src/pdl/apply.h"
#include "src/support/recorder.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {

bool IsByteElem(const Type* elem) {
  TypeKind k = elem->Resolve()->kind();
  return k == TypeKind::kOctet || k == TypeKind::kChar;
}

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

}  // namespace

MarshalProgram MarshalProgram::Build(const OperationDecl& op,
                                     const OpPresentation& pres) {
  MarshalProgram prog;
  prog.op_ = &op;
  prog.pres_ = &pres;
  prog.slot_count_ = pres.params.size() + 1;

  auto make_param_item = [&](int pi) {
    Item item;
    const ParamDecl& decl = op.params[static_cast<size_t>(pi)];
    item.type = decl.type;
    item.dir = decl.dir;
    for (size_t s = 0; s < pres.params.size(); ++s) {
      const Binding& b = pres.params[s].binding;
      if (b.kind == BindingKind::kParam && b.param_index == pi) {
        item.slot = static_cast<int>(s);
        item.pres = &pres.params[s];
        return item;
      }
    }
    // No direct binding: the parameter was flattened into its fields.
    item.flattened = true;
    const Type* st = item.type->Resolve();
    item.fields.resize(st->fields().size());
    for (size_t s = 0; s < pres.params.size(); ++s) {
      const Binding& b = pres.params[s].binding;
      if (b.kind == BindingKind::kParamField && b.param_index == pi) {
        item.fields[static_cast<size_t>(b.field_index)] = FieldSlot{
            st->fields()[static_cast<size_t>(b.field_index)].type,
            static_cast<int>(s), &pres.params[s]};
      }
    }
    return item;
  };

  for (size_t i = 0; i < op.params.size(); ++i) {
    Item item = make_param_item(static_cast<int>(i));
    if (item.dir != ParamDir::kOut) {
      prog.request_items_.push_back(item);
    }
    if (item.dir != ParamDir::kIn) {
      prog.reply_items_.push_back(item);
    }
  }

  const Type* result = op.result->Resolve();
  bool result_void = result->kind() == TypeKind::kVoid;
  if (!result_void) {
    Item item;
    item.type = op.result;
    item.dir = ParamDir::kOut;
    item.is_result = true;
    if (!pres.result_flattened) {
      item.slot = prog.result_slot();
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
        item.fields.resize(item.success_struct->fields().size());
      }
      for (size_t s = 0; s < pres.params.size(); ++s) {
        const Binding& b = pres.params[s].binding;
        if (b.kind == BindingKind::kResultField) {
          item.fields[static_cast<size_t>(b.field_index)] = FieldSlot{
              item.success_struct->fields()[static_cast<size_t>(
                  b.field_index)].type,
              static_cast<int>(s), &pres.params[s]};
        } else if (b.kind == BindingKind::kResultDiscriminant) {
          item.disc_slot = static_cast<int>(s);
        }
      }
    }
    prog.reply_items_.push_back(std::move(item));
  }
  // flexspec bind-time step: one key computation and one registry probe
  // here buys branch-free per-call dispatch below.
  prog.spec_fns_ = FindSpecialization(ComputeSpecKey(op, pres));
  return prog;
}

MarshalPlanView MarshalProgram::Plan() const {
  auto view_items = [](const std::vector<Item>& items) {
    std::vector<PlanItemView> out;
    out.reserve(items.size());
    for (const Item& item : items) {
      PlanItemView v;
      v.type = item.type;
      v.dir = item.dir;
      v.is_result = item.is_result;
      v.flattened = item.flattened;
      v.slot = item.slot;
      v.pres = item.pres;
      v.disc_slot = item.disc_slot;
      v.success_label = item.success_label;
      v.success_struct = item.success_struct;
      for (const FieldSlot& field : item.fields) {
        v.fields.push_back(PlanFieldView{field.type, field.slot, field.pres});
      }
      out.push_back(std::move(v));
    }
    return out;
  };
  MarshalPlanView plan;
  plan.slot_count = slot_count_;
  plan.request = view_items(request_items_);
  plan.reply = view_items(reply_items_);
  return plan;
}

int MarshalProgram::SlotOf(std::string_view name) const {
  for (size_t i = 0; i < pres_->params.size(); ++i) {
    if (pres_->params[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
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
  // The engine has no call identity of its own; it records only when the
  // caller opened a RecorderCallScope (src/apps/nfs.cc does, around each
  // stub invocation). Marshal work is host CPU, so the span is zero-width
  // in virtual time — its wall stamps still separate begin from end.
  const bool record = RecorderEnabled() && RecorderCallScope::Active();
  if (record) {
    RecordEvent(RecEvent::kMarshalBegin, RecEndpoint::kClient,
                RecorderCallScope::CurrentXid(),
                RecorderCallScope::CurrentVirtualNanos());
  }
  const size_t wire_before = w->size();
  if (spec_fns_ != nullptr && spec_fns_->marshal_request != nullptr &&
      MarshalSpecializationEnabled()) {
    TraceAdd(TraceCounter::kMarshalSpecHits);
    FLEXRPC_RETURN_IF_ERROR(spec_fns_->marshal_request(args, w, special));
    // The fused code skips the interpreter's per-item counters; account
    // its work as wire-delta bytes so traced budgets stay attributable.
    TraceAdd(TraceCounter::kMarshalBytesOut, w->size() - wire_before);
  } else {
    TraceAdd(TraceCounter::kMarshalSpecMisses);
    for (const Item& item : request_items_) {
      FLEXRPC_RETURN_IF_ERROR(MarshalItem(item, args, w, special));
    }
  }
  if (record) {
    RecordEvent(RecEvent::kMarshalEnd, RecEndpoint::kClient,
                RecorderCallScope::CurrentXid(),
                RecorderCallScope::CurrentVirtualNanos());
  }
  return Status::Ok();
}

Status MarshalProgram::UnmarshalRequest(WireReader* r, Arena* arena,
                                        ArgVec* args,
                                        const SpecialOps* special,
                                        bool borrow_bytes) const {
  const size_t wire_before = r->remaining();
  if (spec_fns_ != nullptr && spec_fns_->unmarshal_request != nullptr &&
      MarshalSpecializationEnabled()) {
    TraceAdd(TraceCounter::kMarshalSpecHits);
    FLEXRPC_RETURN_IF_ERROR(spec_fns_->unmarshal_request(
        r, arena, args, special, borrow_bytes));
    TraceAdd(TraceCounter::kMarshalBytesIn, wire_before - r->remaining());
  } else {
    TraceAdd(TraceCounter::kMarshalSpecMisses);
    for (const Item& item : request_items_) {
      FLEXRPC_RETURN_IF_ERROR(
          UnmarshalItem(item, r, arena, args, special, borrow_bytes));
    }
  }
  return Status::Ok();
}

Status MarshalProgram::MarshalReply(const ArgVec& args, WireWriter* w,
                                    Arena* arena,
                                    const SpecialOps* special) const {
  const size_t wire_before = w->size();
  if (spec_fns_ != nullptr && spec_fns_->marshal_reply != nullptr &&
      MarshalSpecializationEnabled()) {
    // Streams with [dealloc(always)] parameters are never specialized
    // (CompileSpecPlan rejects them), so skipping the DeallocAfterMarshal
    // epilogue here is sound.
    TraceAdd(TraceCounter::kMarshalSpecHits);
    FLEXRPC_RETURN_IF_ERROR(spec_fns_->marshal_reply(args, w, special));
    TraceAdd(TraceCounter::kMarshalBytesOut, w->size() - wire_before);
  } else {
    TraceAdd(TraceCounter::kMarshalSpecMisses);
    for (const Item& item : reply_items_) {
      FLEXRPC_RETURN_IF_ERROR(MarshalItem(item, args, w, special));
      if (arena != nullptr) {
        DeallocAfterMarshal(item, args, arena);
      }
    }
  }
  return Status::Ok();
}

Status MarshalProgram::UnmarshalReply(WireReader* r, Arena* arena,
                                      ArgVec* args,
                                      const SpecialOps* special) const {
  const bool record = RecorderEnabled() && RecorderCallScope::Active();
  if (record) {
    RecordEvent(RecEvent::kMarshalBegin, RecEndpoint::kClient,
                RecorderCallScope::CurrentXid(),
                RecorderCallScope::CurrentVirtualNanos(), /*a=*/1);
  }
  const size_t wire_before = r->remaining();
  if (spec_fns_ != nullptr && spec_fns_->unmarshal_reply != nullptr &&
      MarshalSpecializationEnabled()) {
    TraceAdd(TraceCounter::kMarshalSpecHits);
    FLEXRPC_RETURN_IF_ERROR(spec_fns_->unmarshal_reply(
        r, arena, args, special, /*borrow_bytes=*/false));
    TraceAdd(TraceCounter::kMarshalBytesIn, wire_before - r->remaining());
  } else {
    TraceAdd(TraceCounter::kMarshalSpecMisses);
    for (const Item& item : reply_items_) {
      // Never borrow on the client: the reply buffer is released as soon
      // as the stub returns.
      FLEXRPC_RETURN_IF_ERROR(UnmarshalItem(item, r, arena, args, special,
                                            /*borrow_bytes=*/false));
    }
  }
  if (record) {
    RecordEvent(RecEvent::kMarshalEnd, RecEndpoint::kClient,
                RecorderCallScope::CurrentXid(),
                RecorderCallScope::CurrentVirtualNanos(), /*a=*/1);
  }
  return Status::Ok();
}

Status MarshalProgram::MarshalItem(const Item& item, const ArgVec& args,
                                   WireWriter* w,
                                   const SpecialOps* special) const {
  if (!item.flattened) {
    const ArgValue& slot = args[static_cast<size_t>(item.slot)];
    return MarshalTop(item.pres, item.type, slot,
                      EffectiveLength(item.pres, item.type, slot, args), w,
                      special);
  }
  const Type* resolved = item.type->Resolve();
  if (item.is_result && resolved->kind() == TypeKind::kUnion) {
    uint32_t disc =
        static_cast<uint32_t>(args[static_cast<size_t>(item.disc_slot)]
                                  .scalar);
    w->PutU32(disc);
    if (disc != item.success_label) {
      // The alternate arms of a flattenable result are void by
      // construction (FlattenableResultStruct).
      return Status::Ok();
    }
  }
  for (const FieldSlot& field : item.fields) {
    const ArgValue& slot = args[static_cast<size_t>(field.slot)];
    FLEXRPC_RETURN_IF_ERROR(MarshalTop(
        field.pres, field.type, slot,
        EffectiveLength(field.pres, field.type, slot, args), w, special));
  }
  return Status::Ok();
}

Status MarshalProgram::UnmarshalItem(const Item& item, WireReader* r,
                                     Arena* arena, ArgVec* args,
                                     const SpecialOps* special,
                                     bool borrow_bytes) const {
  if (!item.flattened) {
    ArgValue* slot = &(*args)[static_cast<size_t>(item.slot)];
    return UnmarshalTop(item.pres, item.type, slot, r, arena, special,
                        borrow_bytes);
  }
  const Type* resolved = item.type->Resolve();
  if (item.is_result && resolved->kind() == TypeKind::kUnion) {
    FLEXRPC_ASSIGN_OR_RETURN(uint32_t disc, r->GetU32());
    (*args)[static_cast<size_t>(item.disc_slot)].scalar = disc;
    if (disc != item.success_label) {
      return Status::Ok();
    }
  }
  for (const FieldSlot& field : item.fields) {
    ArgValue* slot = &(*args)[static_cast<size_t>(field.slot)];
    FLEXRPC_RETURN_IF_ERROR(UnmarshalTop(field.pres, field.type, slot, r,
                                         arena, special, borrow_bytes));
  }
  return Status::Ok();
}

Status MarshalProgram::MarshalTop(const ParamPresentation* pres,
                                  const Type* type, const ArgValue& slot,
                                  uint32_t explicit_len, WireWriter* w,
                                  const SpecialOps* special) const {
  const Type* t = type->Resolve();
  bool use_special = pres != nullptr && pres->special &&
                     special != nullptr && special->copy_out != nullptr;
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
      if (use_special) {
        special->copy_out(w->ReserveBytes(len), s, len);
      } else {
        w->PutBytes(s, len);
      }
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
        if (use_special) {
          special->copy_out(w->ReserveBytes(len), slot.ptr(), len);
        } else {
          w->PutBytes(slot.ptr(), len);
        }
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
        if (use_special) {
          special->copy_out(w->ReserveBytes(t->bound()), slot.ptr(),
                            t->bound());
        } else {
          w->PutBytes(slot.ptr(), t->bound());
        }
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
      if (use_special) {
        special->copy_in(dest, bytes, len);
      } else {
        std::memcpy(dest, bytes, len);
      }
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
        if (use_special) {
          special->copy_in(dest, bytes, len);
        } else {
          std::memcpy(dest, bytes, len);
        }
        slot->length = len;
        return Status::Ok();
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
            arena->AllocateBlock(len > 0 ? len * stride : 1));
        slot->set_ptr(base);
      }
      for (uint32_t i = 0; i < len; ++i) {
        FLEXRPC_RETURN_IF_ERROR(
            UnmarshalValue(r, elem, base + i * stride, arena));
      }
      slot->length = len;
      return Status::Ok();
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      size_t total = t->NativeSize();
      TraceAdd(TraceCounter::kMarshalBytesIn, total);
      uint8_t* dest;
      if (caller_buffer || slot->ptr() != nullptr) {
        // Fixed-size data goes into provided storage when there is any.
        dest = static_cast<uint8_t*>(slot->ptr());
      } else {
        dest = static_cast<uint8_t*>(arena->AllocateBlock(total));
        slot->set_ptr(dest);
      }
      if (IsByteElem(elem)) {
        FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes,
                                 r->GetBytes(t->bound()));
        if (use_special) {
          special->copy_in(dest, bytes, t->bound());
        } else {
          std::memcpy(dest, bytes, t->bound());
        }
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
      if (caller_buffer || slot->ptr() != nullptr) {
        dest = slot->ptr();
      } else {
        dest = arena->AllocateBlock(t->NativeSize());
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

void MarshalProgram::DeallocAfterMarshal(const Item& item,
                                         const ArgVec& args,
                                         Arena* arena) const {
  auto release = [&](const ParamPresentation* pres, const Type* type,
                     const ArgValue& slot) {
    if (pres == nullptr || pres->dealloc != DeallocPolicy::kAlways) {
      return;
    }
    void* p = slot.ptr();
    if (p == nullptr) {
      return;
    }
    const Type* t = type->Resolve();
    if (t->kind() == TypeKind::kStruct || t->kind() == TypeKind::kUnion ||
        t->kind() == TypeKind::kArray) {
      FreeValue(arena, t, p);
    }
    arena->FreeBlock(p);
  };
  if (!item.flattened) {
    release(item.pres, item.type, args[static_cast<size_t>(item.slot)]);
    return;
  }
  for (const FieldSlot& field : item.fields) {
    release(field.pres, field.type, args[static_cast<size_t>(field.slot)]);
  }
}

void MarshalProgram::ReleaseRequest(Arena* arena, ArgVec* args) const {
  auto release = [&](const Type* type, ArgValue* slot) {
    if (!OwnsHeapStorage(type) || slot->ptr() == nullptr) {
      return;
    }
    if (slot->borrowed) {
      slot->set_ptr(nullptr);
      slot->borrowed = false;
      return;
    }
    const Type* t = type->Resolve();
    if (t->kind() == TypeKind::kStruct || t->kind() == TypeKind::kUnion ||
        t->kind() == TypeKind::kArray) {
      FreeValue(arena, t, slot->ptr());
    }
    arena->FreeBlock(slot->ptr());
    slot->set_ptr(nullptr);
  };
  for (const Item& item : request_items_) {
    if (!item.flattened) {
      release(item.type, &(*args)[static_cast<size_t>(item.slot)]);
      continue;
    }
    for (const FieldSlot& field : item.fields) {
      release(field.type, &(*args)[static_cast<size_t>(field.slot)]);
    }
  }
}

void MarshalProgram::ReleaseReply(Arena* arena, ArgVec* args) const {
  auto release = [&](const ParamPresentation* pres, const Type* type,
                     ArgValue* slot) {
    if (!OwnsHeapStorage(type) || slot->ptr() == nullptr) {
      return;
    }
    if (pres != nullptr && pres->alloc == AllocPolicy::kUser) {
      return;  // caller-provided storage is the caller's to manage
    }
    const Type* t = type->Resolve();
    if (t->kind() == TypeKind::kStruct || t->kind() == TypeKind::kUnion ||
        t->kind() == TypeKind::kArray) {
      FreeValue(arena, t, slot->ptr());
    }
    arena->FreeBlock(slot->ptr());
    slot->set_ptr(nullptr);
  };
  for (const Item& item : reply_items_) {
    if (!item.flattened) {
      release(item.pres, item.type, &(*args)[static_cast<size_t>(item.slot)]);
      continue;
    }
    for (const FieldSlot& field : item.fields) {
      release(field.pres, field.type,
              &(*args)[static_cast<size_t>(field.slot)]);
    }
  }
}

}  // namespace flexrpc
