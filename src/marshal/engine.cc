#include "src/marshal/engine.h"

#include <utility>

#include "src/marshal/layout.h"
#include "src/marshal/spec.h"
#include "src/marshal/value.h"
#include "src/pdl/apply.h"
#include "src/support/recorder.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {

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

// Runs `fn(pres, type, slot)` on the item's direct slot, or on each
// flattened field in order, whatever a union discriminant says.
template <typename Fn>
void ForEachOperand(const PlanItemView& item, Fn fn) {
  if (!item.flattened) {
    fn(item.pres, item.type, item.slot);
    return;
  }
  for (const PlanFieldView& field : item.fields) {
    fn(field.pres, field.type, field.slot);
  }
}

// Wire position marks for a stream's byte credit: bytes written so far on
// a writer, bytes left on a reader.
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

// The one stream runner behind the four entry points. With specialization
// on, the program's registered generated function (`fns->*kFused`) runs
// the stream; otherwise the reference executor `kReference` runs the
// bind-time `program`. Either way the stream counts one marshal.spec.hit
// or marshal.spec.miss and, when it succeeds, credits marshal.bytes_* with
// its wire delta. Client streams (`span` != kNoSpan) record a marshal
// begin/end pair tagged a = span.
template <auto kFused, auto kReference, typename Wire, typename... Args>
Status RunStream(const SpecFns* fns, const SpecProgram& program, int span,
                 Wire* wire, Args&&... args) {
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
  const size_t mark = WireMark(wire);
  const auto fused = fns != nullptr ? fns->*kFused : nullptr;
  if (fused != nullptr && MarshalSpecializationEnabled()) {
    TraceAdd(TraceCounter::kMarshalSpecHits);
    FLEXRPC_RETURN_IF_ERROR(fused(args...));
  } else {
    TraceAdd(TraceCounter::kMarshalSpecMisses);
    FLEXRPC_RETURN_IF_ERROR(kReference(program, args...));
  }
  CreditWireBytes(wire, mark);
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
  for (const PlanItemView& item : prog.plan_.reply) {
    ForEachOperand(item, [&](const ParamPresentation* p, const Type* type,
                             int s) {
      if (item.dir == ParamDir::kInOut && p != nullptr &&
          p->alloc == AllocPolicy::kStub && OwnsHeapStorage(type)) {
        prog.inout_stub_slots_.push_back(s);
      }
    });
  }
  for (size_t s = 0; s < kSpecStreamCount; ++s) {
    prog.streams_[s] = CompileSpecStream(
        prog.plan_, pres, static_cast<SpecStream>(s), /*rejection=*/nullptr);
  }
  // flexspec bind-time step: one key computation and one registry probe
  // here buys branch-free per-call dispatch below.
  prog.spec_fns_ = FindSpecialization(ComputeSpecKey(op, pres));
  return prog;
}

Status MarshalProgram::MarshalRequest(const ArgVec& args, WireWriter* w,
                                      const SpecialOps* special) const {
  return RunStream<&SpecFns::marshal_request, &RunSpecMarshal>(
      spec_fns_, Stream(SpecStream::kMarshalRequest), kRequestSpan, w,
      args, w, special);
}

Status MarshalProgram::UnmarshalRequest(WireReader* r, Arena* arena,
                                        ArgVec* args,
                                        const SpecialOps* special,
                                        bool borrow_bytes) const {
  return RunStream<&SpecFns::unmarshal_request, &RunSpecUnmarshal>(
      spec_fns_, Stream(SpecStream::kUnmarshalRequest), kNoSpan, r, r,
      arena, args, special, borrow_bytes);
}

Status MarshalProgram::MarshalReply(ArgVec* args, WireWriter* w,
                                    Arena* arena,
                                    const SpecialOps* special) const {
  Status st = RunStream<&SpecFns::marshal_reply, &RunSpecMarshal>(
      spec_fns_, Stream(SpecStream::kMarshalReply), kNoSpan, w,
      *args, w, special);
  if (arena != nullptr) {
    // [dealloc(always)] move semantics: the donated storage is freed even
    // when the stream failed part-way, and its slot is cleared.
    for (const PlanItemView& item : plan_.reply) {
      ForEachOperand(item, [&](const ParamPresentation* pres,
                               const Type* type, int s) {
        if (pres != nullptr && pres->dealloc == DeallocPolicy::kAlways) {
          ReleaseSlot(arena, type, &(*args)[static_cast<size_t>(s)]);
        }
      });
    }
  }
  return st;
}

Status MarshalProgram::UnmarshalReply(WireReader* r, Arena* arena,
                                      ArgVec* args,
                                      const SpecialOps* special) const {
  for (int s : inout_stub_slots_) {
    (*args)[static_cast<size_t>(s)].set_ptr(nullptr);
  }
  // Never borrow on the client: the reply buffer is released as soon as
  // the stub returns.
  return RunStream<&SpecFns::unmarshal_reply, &RunSpecUnmarshal>(
      spec_fns_, Stream(SpecStream::kUnmarshalReply), kReplySpan, r, r,
      arena, args, special, /*borrow_bytes=*/false);
}

void MarshalProgram::ReleaseRequest(Arena* arena, ArgVec* args) const {
  for (const PlanItemView& item : plan_.request) {
    ForEachOperand(item, [&](const ParamPresentation*, const Type* type,
                             int s) {
      ReleaseSlot(arena, type, &(*args)[static_cast<size_t>(s)]);
    });
  }
}

void MarshalProgram::ReleaseReply(Arena* arena, ArgVec* args) const {
  for (const PlanItemView& item : plan_.reply) {
    ForEachOperand(item, [&](const ParamPresentation* pres, const Type* type,
                             int s) {
      // Caller-provided storage is the caller's to manage.
      if (pres == nullptr || pres->alloc != AllocPolicy::kUser) {
        ReleaseSlot(arena, type, &(*args)[static_cast<size_t>(s)]);
      }
    });
  }
}

}  // namespace flexrpc
