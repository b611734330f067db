#include "src/pdl/lint.h"

#include <string>

#include "src/support/strings.h"

namespace flexrpc {

namespace {

class PresentationLinter {
 public:
  // Reports the findings whose catalog severity is `quietest` or graver.
  PresentationLinter(const InterfaceFile& idl, const InterfaceDecl& itf,
                     const InterfacePresentation& pres,
                     DiagnosticSink* diags, DiagSeverity quietest)
      : idl_(idl), itf_(itf), pres_(pres), diags_(diags),
        quietest_(quietest) {}

  int Run() {
    for (size_t oi = 0; oi < itf_.ops.size() && oi < pres_.ops.size();
         ++oi) {
      LintOp(itf_.ops[oi], pres_.ops[oi]);
    }
    return count_;
  }

 private:
  void Report(std::string_view code, SourcePos pos, std::string message) {
    if (FlexSeverity(code) > quietest_) {
      return;
    }
    diags_->Report(code, idl_.filename, pos, std::move(message));
    ++count_;
  }

  // Position of the wire item behind `p`, defaulting to the op.
  SourcePos PosOf(const OperationDecl& op, const ParamPresentation& p) {
    if (p.binding.kind == BindingKind::kParam ||
        p.binding.kind == BindingKind::kParamField) {
      int pi = p.binding.param_index;
      if (pi >= 0 && pi < static_cast<int>(op.params.size())) {
        return op.params[static_cast<size_t>(pi)].pos;
      }
    }
    return op.pos;
  }

  void LintOp(const OperationDecl& op, const OpPresentation& pres) {
    for (const ParamPresentation& p : pres.params) {
      LintParam(op, pres, p);
    }
    LintParam(op, pres, pres.result);
    LintCoverage(op, pres);
    LintDeadSlots(op, pres);
  }

  void LintParam(const OperationDecl& op, const OpPresentation& pres,
                 const ParamPresentation& p) {
    const Type* type = BindingType(op, p.binding);
    SourcePos pos = PosOf(op, p);

    if (p.presentation_only) {
      if (p.special || p.trashable || p.preserved || p.nonunique ||
          p.explicit_length || p.alloc != AllocPolicy::kAuto ||
          p.dealloc != DeallocPolicy::kDefault) {
        Report("FLEX013", pos,
               StrFormat("presentation-only slot '%s' of '%s' carries a "
                         "marshaling attribute, but no wire item stands "
                         "behind it",
                         p.name.c_str(), op.name.c_str()));
      }
      return;
    }
    if (p.trashable && pres_.side == Side::kServer) {
      Report("FLEX001", pos,
             StrFormat("[trashable] on '%s' of '%s' is a client-side "
                       "waiver; a server presentation cannot discard the "
                       "caller's buffer contents",
                       p.name.c_str(), op.name.c_str()));
    }
    if (p.preserved && pres_.side == Side::kClient) {
      Report("FLEX002", pos,
             StrFormat("[preserved] on '%s' of '%s' is a server-side "
                       "promise; a client presentation cannot make it",
                       p.name.c_str(), op.name.c_str()));
    }
    if (pres_.trust == TrustLevel::kFull && (p.preserved || p.trashable)) {
      Report("FLEX009", pos,
             StrFormat("trust(full) on '%s' waives integrity protection, "
                       "so the [%s] buffer-sharing promise on '%s' is "
                       "unenforceable against the peer",
                       itf_.name.c_str(),
                       p.preserved ? "preserved" : "trashable",
                       p.name.c_str()));
    }
    if (p.explicit_length) {
      LintLengthIs(op, pres, p, pos);
    }
    if (type == nullptr) {
      return;  // an out-of-range binding: FLEX008 reports it
    }
    if (p.special && !IsBufferLike(type)) {
      Report("FLEX006", pos,
             StrFormat("[special] on '%s' of '%s' requires a buffer-like "
                       "type (got %s): user marshal routines move byte "
                       "runs, not scalars",
                       p.name.c_str(), op.name.c_str(),
                       type->ToString().c_str()));
    }
    if (p.nonunique && type->Resolve()->kind() != TypeKind::kObjRef) {
      Report("FLEX007", pos,
             StrFormat("[nonunique] on '%s' of '%s' requires an object "
                       "reference (got %s): only transferred port names "
                       "have uniqueness to waive",
                       p.name.c_str(), op.name.c_str(),
                       type->ToString().c_str()));
    }
    ParamDir dir = BindingDir(op, p.binding);
    if (pres_.side == Side::kClient && dir == ParamDir::kInOut &&
        p.alloc == AllocPolicy::kUser &&
        p.dealloc == DeallocPolicy::kAlways) {
      Report("FLEX005", pos,
             StrFormat("[dealloc(always)] on '%s' of '%s' frees the "
                       "caller-owned [alloc(user)] buffer after request "
                       "marshaling, then the reply unmarshals into freed "
                       "storage the caller frees again (double free)",
                       p.name.c_str(), op.name.c_str()));
    }
    LintApplicability(op, p, type, dir, pos);
    if (quietest_ == DiagSeverity::kNote) {
      Advise(op, p, type, dir, pos);
    }
  }

  // FLEX013: an attribute that the item's kind or direction gives nothing
  // to act on.
  void LintApplicability(const OperationDecl& op, const ParamPresentation& p,
                         const Type* type, ParamDir dir, SourcePos pos) {
    auto refuse = [&](const char* attr, const char* applies_to) {
      Report("FLEX013", pos,
             StrFormat("[%s] on '%s' of '%s' applies only to %s, not to "
                       "%s %s",
                       attr, p.name.c_str(), op.name.c_str(), applies_to,
                       std::string(ParamDirName(dir)).c_str(),
                       type->ToString().c_str()));
    };
    TypeKind kind = type->Resolve()->kind();
    if (p.explicit_length && kind != TypeKind::kString &&
        kind != TypeKind::kSequence) {
      refuse("length_is", "a string or sequence");
    }
    bool buffer_in = dir != ParamDir::kOut && IsBufferLike(type);
    if (p.trashable && !buffer_in) {
      refuse("trashable", "an in or inout buffer");
    }
    if (p.preserved && !buffer_in) {
      refuse("preserved", "an in or inout buffer");
    }
    if (p.alloc != AllocPolicy::kAuto && dir == ParamDir::kIn) {
      refuse("alloc", "out, inout or result data");
    }
    if (p.dealloc != DeallocPolicy::kDefault && IsScalarKind(kind)) {
      refuse("dealloc", "allocated (non-scalar) data");
    }
  }

  void LintLengthIs(const OperationDecl& op, const OpPresentation& pres,
                    const ParamPresentation& p, SourcePos pos) {
    const ParamPresentation* len = pres.FindParam(p.length_param);
    if (len == nullptr) {
      Report("FLEX003", pos,
             StrFormat("[length_is(%s)] on '%s' of '%s' names no slot of "
                       "this stub",
                       p.length_param.c_str(), p.name.c_str(),
                       op.name.c_str()));
      return;
    }
    if (len->presentation_only) {
      return;  // caller-supplied length: always available, no direction
    }
    const Type* lt = BindingType(op, len->binding);
    if (lt != nullptr && !IsIntegralScalar(lt)) {
      Report("FLEX003", pos,
             StrFormat("[length_is(%s)] on '%s' of '%s' targets a "
                       "non-integral slot (%s)",
                       p.length_param.c_str(), p.name.c_str(),
                       op.name.c_str(), lt->ToString().c_str()));
    }
    ParamDir buf_dir = BindingDir(op, p.binding);
    ParamDir len_dir = BindingDir(op, len->binding);
    if (len_dir != buf_dir && len_dir != ParamDir::kInOut) {
      Report("FLEX004", pos,
             StrFormat("[length_is(%s)] on '%s' of '%s': the buffer is %s "
                       "but its length travels %s, so one direction has "
                       "no length to consult",
                       p.length_param.c_str(), p.name.c_str(),
                       op.name.c_str(),
                       std::string(ParamDirName(buf_dir)).c_str(),
                       std::string(ParamDirName(len_dir)).c_str()));
    }
  }

  // §4 advisor notes: copies/allocations the endpoint could annotate away.
  void Advise(const OperationDecl& op, const ParamPresentation& p,
              const Type* type, ParamDir dir, SourcePos pos) {
    if (dir == ParamDir::kIn && IsBufferLike(type) && !p.trashable &&
        !p.preserved && !p.special) {
      Report("FLEX011", pos,
             StrFormat("in-buffer '%s' of '%s' is neither [trashable] nor "
                       "[preserved]; the transport must copy it even when "
                       "the endpoint would not notice sharing (§4.1)",
                       p.name.c_str(), op.name.c_str()));
    }
    bool produces = dir != ParamDir::kIn;
    const Type* t = type->Resolve();
    bool has_storage =
        !IsScalarKind(t->kind()) && t->kind() != TypeKind::kVoid;
    if (produces && has_storage && !IsVariableWireSize(type) &&
        (p.dealloc == DeallocPolicy::kAlways ||
         (pres_.side == Side::kClient && p.alloc == AllocPolicy::kStub))) {
      Report("FLEX012", pos,
             StrFormat("fixed-size out data '%s' of '%s' is forced "
                       "through move semantics; caller storage would "
                       "avoid a per-call allocation (§4.4.2)",
                       p.name.c_str(), op.name.c_str()));
    }
  }

  // Every wire item must be carried exactly once, down to flattened-field
  // granularity.
  void LintCoverage(const OperationDecl& op, const OpPresentation& pres) {
    const int flatten_arg = FlattenableArgIndex(op);
    const Type* result_struct = FlattenableResultStruct(op);
    const Type* result_resolved = op.result->Resolve();
    const bool result_union = result_resolved->kind() == TypeKind::kUnion;

    std::vector<int> param_cover(op.params.size(), 0);
    std::vector<int> arg_field_cover(
        flatten_arg >= 0
            ? op.params[static_cast<size_t>(flatten_arg)]
                  .type->Resolve()->fields().size()
            : 0,
        0);
    std::vector<int> result_field_cover(
        result_struct != nullptr ? result_struct->fields().size() : 0, 0);
    int result_cover = 0;
    int disc_cover = 0;

    auto tally = [&](const ParamPresentation& p) {
      const Binding& b = p.binding;
      switch (b.kind) {
        case BindingKind::kParam:
          if (b.param_index < 0 ||
              b.param_index >= static_cast<int>(op.params.size())) {
            Report("FLEX008", op.pos,
                   StrFormat("binding of '%s' targets nonexistent "
                             "parameter %d of '%s'",
                             p.name.c_str(), b.param_index,
                             op.name.c_str()));
          } else {
            ++param_cover[static_cast<size_t>(b.param_index)];
          }
          break;
        case BindingKind::kParamField:
          if (b.param_index != flatten_arg || b.field_index < 0 ||
              b.field_index >= static_cast<int>(arg_field_cover.size())) {
            Report("FLEX008", op.pos,
                   StrFormat("binding of '%s' targets nonexistent field "
                             "%d of parameter %d of '%s'",
                             p.name.c_str(), b.field_index, b.param_index,
                             op.name.c_str()));
          } else {
            ++arg_field_cover[static_cast<size_t>(b.field_index)];
          }
          break;
        case BindingKind::kResult:
          ++result_cover;
          break;
        case BindingKind::kResultField:
          if (b.field_index < 0 ||
              b.field_index >= static_cast<int>(result_field_cover.size())) {
            Report("FLEX008", op.pos,
                   StrFormat("binding of '%s' targets nonexistent result "
                             "field %d of '%s'",
                             p.name.c_str(), b.field_index,
                             op.name.c_str()));
          } else {
            ++result_field_cover[static_cast<size_t>(b.field_index)];
          }
          break;
        case BindingKind::kResultDiscriminant:
          ++disc_cover;
          break;
        case BindingKind::kPresentationOnly:
          break;
      }
    };
    for (const ParamPresentation& p : pres.params) {
      tally(p);
    }
    tally(pres.result);

    for (size_t i = 0; i < op.params.size(); ++i) {
      bool flattened_here =
          pres.args_flattened && static_cast<int>(i) == flatten_arg;
      if (flattened_here) {
        if (param_cover[i] != 0) {
          Report("FLEX008", op.params[i].pos,
                 StrFormat("parameter '%s' of '%s' is both flattened into "
                           "fields and carried whole",
                           op.params[i].name.c_str(), op.name.c_str()));
        }
        for (size_t fi = 0; fi < arg_field_cover.size(); ++fi) {
          if (arg_field_cover[fi] != 1) {
            Report("FLEX008", op.params[i].pos,
                   StrFormat("field '%s' of flattened parameter '%s' of "
                             "'%s' is carried by %d stub slots (need "
                             "exactly 1)",
                             op.params[i].type->Resolve()
                                 ->fields()[fi].name.c_str(),
                             op.params[i].name.c_str(), op.name.c_str(),
                             arg_field_cover[fi]));
          }
        }
        continue;
      }
      if (param_cover[i] != 1) {
        Report("FLEX008", op.params[i].pos,
               StrFormat("parameter '%s' of '%s' is carried by %d stub "
                         "slots (need exactly 1)",
                         op.params[i].name.c_str(), op.name.c_str(),
                         param_cover[i]));
      }
    }

    bool result_void = result_resolved->kind() == TypeKind::kVoid;
    if (result_void) {
      return;
    }
    if (pres.result_flattened) {
      if (result_cover != 0) {
        Report("FLEX008", op.pos,
               StrFormat("result of '%s' is both flattened into fields "
                         "and carried whole",
                         op.name.c_str()));
      }
      for (size_t fi = 0; fi < result_field_cover.size(); ++fi) {
        if (result_field_cover[fi] != 1) {
          Report("FLEX008", op.pos,
                 StrFormat("result field '%s' of '%s' is carried by %d "
                           "stub slots (need exactly 1)",
                           result_struct->fields()[fi].name.c_str(),
                           op.name.c_str(), result_field_cover[fi]));
        }
      }
      if (result_union && disc_cover != 1) {
        Report("FLEX008", op.pos,
               StrFormat("discriminant of '%s''s flattened union result "
                         "is carried by %d stub slots (need exactly 1)",
                         op.name.c_str(), disc_cover));
      }
    } else if (result_cover != 1) {
      Report("FLEX008", op.pos,
             StrFormat("result of '%s' is carried by %d stub slots (need "
                       "exactly 1)",
                       op.name.c_str(), result_cover));
    }
  }

  // A presentation-only slot exists to carry something (an explicit
  // length); one nothing references is almost certainly a typo'd
  // [length_is] target.
  void LintDeadSlots(const OperationDecl& op, const OpPresentation& pres) {
    for (const ParamPresentation& p : pres.params) {
      if (!p.presentation_only) {
        continue;
      }
      bool referenced = false;
      for (const ParamPresentation& q : pres.params) {
        if (q.explicit_length && q.length_param == p.name) {
          referenced = true;
          break;
        }
      }
      if (!referenced && pres.result.explicit_length &&
          pres.result.length_param == p.name) {
        referenced = true;
      }
      if (!referenced) {
        Report("FLEX010", op.pos,
               StrFormat("presentation-only slot '%s' of '%s' is never "
                         "referenced by a [length_is]; it occupies a stub "
                         "parameter but carries nothing",
                         p.name.c_str(), op.name.c_str()));
      }
    }
  }

  const InterfaceFile& idl_;
  const InterfaceDecl& itf_;
  const InterfacePresentation& pres_;
  DiagnosticSink* diags_;
  DiagSeverity quietest_;
  int count_ = 0;
};

int RunRules(const InterfaceFile& idl, const PresentationSet& set,
             DiagnosticSink* diags, DiagSeverity quietest) {
  int count = 0;
  for (const InterfaceDecl& itf : idl.interfaces) {
    const InterfacePresentation* pres = set.Find(itf.name);
    if (pres != nullptr) {
      count += PresentationLinter(idl, itf, *pres, diags, quietest).Run();
    }
  }
  return count;
}

DiagSeverity Quietest(const LintOptions& opts) {
  return opts.advisors ? DiagSeverity::kNote : DiagSeverity::kWarning;
}

}  // namespace

int LintPresentation(const InterfaceFile& idl, const InterfaceDecl& itf,
                     const InterfacePresentation& pres,
                     DiagnosticSink* diags, const LintOptions& opts) {
  return PresentationLinter(idl, itf, pres, diags, Quietest(opts)).Run();
}

int LintPresentationSet(const InterfaceFile& idl, const PresentationSet& set,
                        DiagnosticSink* diags, const LintOptions& opts) {
  return RunRules(idl, set, diags, Quietest(opts));
}

int CheckPresentationSet(const InterfaceFile& idl, const PresentationSet& set,
                         DiagnosticSink* diags) {
  return RunRules(idl, set, diags, DiagSeverity::kError);
}

}  // namespace flexrpc
