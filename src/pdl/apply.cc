#include "src/pdl/apply.h"

#include <set>

#include "src/pdl/lint.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

class Applier {
 public:
  Applier(const InterfaceFile& idl, Side side, const PdlFile* pdl,
          PresentationSet* out, DiagnosticSink* diags)
      : idl_(idl), side_(side), pdl_(pdl), out_(out), diags_(diags) {}

  bool Run() {
    out_->side = side_;
    out_->by_interface.clear();
    for (const InterfaceDecl& itf : idl_.interfaces) {
      out_->by_interface.emplace(itf.name, DefaultPresentation(itf, side_));
    }
    if (pdl_ != nullptr) {
      for (const PdlInterfaceDecl& decl : pdl_->interfaces) {
        ApplyInterfaceDecl(decl);
      }
      for (const PdlTypeDecl& decl : pdl_->types) {
        ApplyTypeDecl(decl);
      }
      for (const PdlOpDecl& decl : pdl_->ops) {
        ApplyOpDecl(decl);
      }
    }
    // The presentation rules (flexcheck stage 1) at error severity: an
    // annotation the stubs would act on unsoundly is refused here.
    CheckPresentationSet(idl_, *out_, diags_);
    return !diags_->HasErrors();
  }

 private:
  // A merge error: only PDL declarations make them, at PDL positions.
  void Error(SourcePos pos, std::string message) {
    diags_->Error(pdl_->filename, pos, std::move(message));
  }

  void ApplyInterfaceDecl(const PdlInterfaceDecl& decl) {
    auto it = out_->by_interface.find(decl.interface_name);
    if (it == out_->by_interface.end()) {
      Error(decl.pos, StrFormat("unknown interface '%s'",
                                decl.interface_name.c_str()));
      return;
    }
    InterfacePresentation& pres = it->second;
    bool leaky = false;
    bool unprotected = false;
    for (const PdlAttr& attr : decl.attrs) {
      if (attr.name == "leaky") {
        leaky = true;
      } else if (attr.name == "unprotected") {
        unprotected = true;
      } else if (attr.name == "trust" && attr.args.size() == 1) {
        if (attr.args[0] == "none") {
          pres.trust = TrustLevel::kNone;
        } else if (attr.args[0] == "leaky") {
          pres.trust = TrustLevel::kLeaky;
        } else if (attr.args[0] == "full") {
          pres.trust = TrustLevel::kFull;
        } else {
          Error(attr.pos, StrFormat("unknown trust level '%s'",
                                    attr.args[0].c_str()));
        }
      } else {
        Error(attr.pos, StrFormat("unknown interface attribute '%s'",
                                  attr.name.c_str()));
      }
    }
    if (unprotected && !leaky) {
      Error(decl.pos,
            "[unprotected] requires [leaky]: integrity cannot be waived "
            "while confidentiality is protected");
    } else if (unprotected) {
      pres.trust = TrustLevel::kFull;
    } else if (leaky) {
      pres.trust = TrustLevel::kLeaky;
    }
  }

  // Does `type` match a PDL type name? Named types match their name;
  // "string" and "opaque" match the builtin string / byte-sequence shapes.
  static bool TypeMatches(const Type* type, const std::string& name) {
    if (type == nullptr) {
      return false;
    }
    if (!type->name().empty() && type->name() == name) {
      return true;
    }
    const Type* r = type->Resolve();
    if (!r->name().empty() && r->name() == name) {
      return true;
    }
    if (name == "string" && r->kind() == TypeKind::kString) {
      return true;
    }
    if (name == "opaque" && r->kind() == TypeKind::kSequence &&
        r->element()->Resolve()->kind() == TypeKind::kOctet) {
      return true;
    }
    return false;
  }

  void ApplyTypeDecl(const PdlTypeDecl& decl) {
    bool matched_any = false;
    for (const InterfaceDecl& itf : idl_.interfaces) {
      InterfacePresentation& pres = out_->by_interface.at(itf.name);
      for (size_t oi = 0; oi < itf.ops.size(); ++oi) {
        const OperationDecl& op = itf.ops[oi];
        OpPresentation& op_pres = pres.ops[oi];
        for (ParamPresentation& p : op_pres.params) {
          const Type* t = BindingType(op, p.binding);
          if (TypeMatches(t, decl.type_name)) {
            matched_any = true;
            for (const PdlAttr& attr : decl.attrs) {
              ApplyParamAttr(attr, &p);
            }
          }
        }
        const Type* rt = BindingType(op, op_pres.result.binding);
        if (TypeMatches(rt, decl.type_name)) {
          matched_any = true;
          for (const PdlAttr& attr : decl.attrs) {
            ApplyParamAttr(attr, &op_pres.result);
          }
        }
      }
    }
    if (!matched_any) {
      Error(decl.pos,
            StrFormat("type '%s' does not occur in any operation",
                      decl.type_name.c_str()));
    }
  }

  // Resolves a PDL function name like "FileIO_read", "read", or
  // "NFSPROC_READ" to a unique (interface, op) pair.
  bool ResolveOp(const PdlOpDecl& decl, const InterfaceDecl** out_itf,
                 const OperationDecl** out_op) {
    std::vector<std::pair<const InterfaceDecl*, const OperationDecl*>> hits;
    for (const InterfaceDecl& itf : idl_.interfaces) {
      for (const OperationDecl& op : itf.ops) {
        if (decl.func_name == op.name ||
            decl.func_name == itf.name + "_" + op.name) {
          hits.emplace_back(&itf, &op);
        }
      }
    }
    if (hits.empty()) {
      Error(decl.pos, StrFormat("no operation matches '%s'",
                                decl.func_name.c_str()));
      return false;
    }
    if (hits.size() > 1) {
      Error(decl.pos, StrFormat("'%s' is ambiguous between %zu operations",
                                decl.func_name.c_str(), hits.size()));
      return false;
    }
    *out_itf = hits[0].first;
    *out_op = hits[0].second;
    return true;
  }

  void ApplyOpDecl(const PdlOpDecl& decl) {
    const InterfaceDecl* itf = nullptr;
    const OperationDecl* op = nullptr;
    if (!ResolveOp(decl, &itf, &op)) {
      return;
    }
    InterfacePresentation& ipres = out_->by_interface.at(itf->name);
    OpPresentation* op_pres = ipres.FindOp(op->name);

    for (const PdlAttr& attr : decl.op_attrs) {
      if (attr.name == "comm_status") {
        op_pres->comm_status = true;
      } else {
        Error(attr.pos, StrFormat("unknown operation attribute '%s'",
                                  attr.name.c_str()));
      }
    }
    for (const PdlAttr& attr : decl.return_attrs) {
      ApplyParamAttr(attr, &op_pres->result);
    }
    if (decl.slots.empty()) {
      return;  // attribute-only re-declaration
    }

    RebuildParams(decl, *op, op_pres);
  }

  // Rebuilds the stub-level parameter list of `op_pres` from the slots of a
  // full re-declaration, resolving names to IDL params, flattenable-struct
  // fields, the result's success-arm fields, or presentation-only slots.
  void RebuildParams(const PdlOpDecl& decl, const OperationDecl& op,
                     OpPresentation* op_pres) {
    const int flatten_arg = FlattenableArgIndex(op);
    const Type* flatten_arg_type =
        flatten_arg >= 0 ? op.params[static_cast<size_t>(flatten_arg)]
                               .type->Resolve()
                         : nullptr;
    const Type* result_struct = FlattenableResultStruct(op);
    const Type* result_resolved = op.result->Resolve();
    const bool result_is_union = result_resolved->kind() == TypeKind::kUnion;

    std::vector<ParamPresentation> new_params;
    std::set<int> bound_params;
    std::set<int> bound_arg_fields;
    std::set<int> bound_result_fields;
    bool disc_bound = false;
    bool args_flattened = false;
    bool result_flattened = false;

    for (const PdlSlot& slot : decl.slots) {
      if (slot.empty) {
        continue;  // placeholder: keep whatever the defaults say
      }
      if (slot.name.empty()) {
        Error(slot.pos, "presentation attributes require a named slot");
        continue;
      }
      ParamPresentation p;
      // (a) direct IDL parameter?
      int param_index = -1;
      for (size_t i = 0; i < op.params.size(); ++i) {
        if (op.params[i].name == slot.name) {
          param_index = static_cast<int>(i);
          break;
        }
      }
      if (param_index >= 0) {
        if (!bound_params.insert(param_index).second) {
          Error(slot.pos, StrFormat("parameter '%s' re-declared twice",
                                    slot.name.c_str()));
          continue;
        }
        p = *op_pres->FindParam(slot.name);  // keep earlier (type) attrs
      } else if (flatten_arg_type != nullptr &&
                 FieldIndex(flatten_arg_type, slot.name) >= 0) {
        // (b) field of the single struct argument (Figure 1 flattening).
        int fi = FieldIndex(flatten_arg_type, slot.name);
        if (!bound_arg_fields.insert(fi).second) {
          Error(slot.pos, StrFormat("field '%s' re-declared twice",
                                    slot.name.c_str()));
          continue;
        }
        args_flattened = true;
        p = DefaultParamPresentation(
            slot.name, flatten_arg_type->fields()[static_cast<size_t>(fi)].type,
            op.params[static_cast<size_t>(flatten_arg)].dir, side_,
            Binding{BindingKind::kParamField, flatten_arg, fi});
      } else if (result_struct != nullptr &&
                 FieldIndex(result_struct, slot.name) >= 0) {
        // (c) field of the result's success payload.
        int fi = FieldIndex(result_struct, slot.name);
        if (!bound_result_fields.insert(fi).second) {
          Error(slot.pos, StrFormat("field '%s' re-declared twice",
                                    slot.name.c_str()));
          continue;
        }
        result_flattened = true;
        p = DefaultParamPresentation(
            slot.name, result_struct->fields()[static_cast<size_t>(fi)].type,
            ParamDir::kOut, side_,
            Binding{BindingKind::kResultField, -1, fi});
      } else if (result_is_union &&
                 !result_resolved->discriminant_name().empty() &&
                 slot.name == result_resolved->discriminant_name()) {
        // (d) the result union's discriminant (e.g. `nfsstat *status`).
        if (disc_bound) {
          Error(slot.pos, "discriminant re-declared twice");
          continue;
        }
        disc_bound = true;
        result_flattened = true;
        p = DefaultParamPresentation(
            slot.name, result_resolved->discriminant(), ParamDir::kOut,
            side_, Binding{BindingKind::kResultDiscriminant, -1, -1});
      } else {
        // (e) presentation-only parameter (explicit length, etc.).
        p.name = slot.name;
        p.binding = Binding{BindingKind::kPresentationOnly, -1, -1};
        p.presentation_only = true;
      }
      p.declarator_text = slot.ctype_text;
      for (const PdlAttr& attr : slot.attrs) {
        ApplyParamAttr(attr, &p);
      }
      new_params.push_back(std::move(p));
    }

    // Unmentioned IDL parameters keep their current presentation.
    for (size_t i = 0; i < op.params.size(); ++i) {
      int idx = static_cast<int>(i);
      if (bound_params.count(idx) != 0) {
        continue;
      }
      if (args_flattened && idx == flatten_arg) {
        continue;  // replaced by its fields
      }
      new_params.push_back(*op_pres->FindParam(op.params[i].name));
    }
    // Unmentioned fields of a flattened argument are still wire items; give
    // them default per-field presentations so marshaling stays complete.
    if (args_flattened) {
      for (size_t fi = 0; fi < flatten_arg_type->fields().size(); ++fi) {
        if (bound_arg_fields.count(static_cast<int>(fi)) != 0) {
          continue;
        }
        const StructField& f = flatten_arg_type->fields()[fi];
        new_params.push_back(DefaultParamPresentation(
            f.name, f.type, op.params[static_cast<size_t>(flatten_arg)].dir,
            side_,
            Binding{BindingKind::kParamField, flatten_arg,
                    static_cast<int>(fi)}));
      }
    }
    if (result_flattened) {
      if (result_struct != nullptr) {
        for (size_t fi = 0; fi < result_struct->fields().size(); ++fi) {
          if (bound_result_fields.count(static_cast<int>(fi)) != 0) {
            continue;
          }
          const StructField& f = result_struct->fields()[fi];
          new_params.push_back(DefaultParamPresentation(
              f.name, f.type, ParamDir::kOut, side_,
              Binding{BindingKind::kResultField, -1, static_cast<int>(fi)}));
        }
      }
      if (result_is_union && !disc_bound) {
        std::string disc_name = result_resolved->discriminant_name().empty()
                                    ? "status"
                                    : result_resolved->discriminant_name();
        new_params.push_back(DefaultParamPresentation(
            disc_name, result_resolved->discriminant(), ParamDir::kOut,
            side_, Binding{BindingKind::kResultDiscriminant, -1, -1}));
      }
      // The C return value no longer carries the wire result; drop any
      // attributes the old result presentation had.
      op_pres->result = ParamPresentation{};
      op_pres->result.name = "return";
      op_pres->result.binding =
          Binding{BindingKind::kPresentationOnly, -1, -1};
      op_pres->result.presentation_only = true;
    }

    op_pres->args_flattened = args_flattened;
    op_pres->result_flattened = result_flattened;
    op_pres->params = std::move(new_params);
  }

  static int FieldIndex(const Type* struct_type, const std::string& name) {
    const std::vector<StructField>& fields = struct_type->fields();
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  void ApplyParamAttr(const PdlAttr& attr, ParamPresentation* p) {
    if (attr.name == "length_is") {
      if (attr.args.size() != 1) {
        Error(attr.pos, "length_is takes exactly one parameter name");
        return;
      }
      p->explicit_length = true;
      p->length_param = attr.args[0];
      return;
    }
    if (attr.name == "special") {
      p->special = true;
      return;
    }
    if (attr.name == "trashable") {
      p->trashable = true;
      return;
    }
    if (attr.name == "preserved") {
      p->preserved = true;
      return;
    }
    if (attr.name == "nonunique") {
      p->nonunique = true;
      return;
    }
    if (attr.name == "dealloc") {
      if (attr.args.size() != 1) {
        Error(attr.pos, "dealloc takes one of: never, always, default");
        return;
      }
      if (attr.args[0] == "never") {
        p->dealloc = DeallocPolicy::kNever;
      } else if (attr.args[0] == "always") {
        p->dealloc = DeallocPolicy::kAlways;
      } else if (attr.args[0] == "default") {
        p->dealloc = DeallocPolicy::kDefault;
      } else {
        Error(attr.pos, StrFormat("unknown dealloc policy '%s'",
                                  attr.args[0].c_str()));
      }
      return;
    }
    if (attr.name == "alloc") {
      if (attr.args.size() != 1) {
        Error(attr.pos, "alloc takes one of: user, stub, auto");
        return;
      }
      if (attr.args[0] == "user") {
        p->alloc = AllocPolicy::kUser;
      } else if (attr.args[0] == "stub") {
        p->alloc = AllocPolicy::kStub;
      } else if (attr.args[0] == "auto") {
        p->alloc = AllocPolicy::kAuto;
      } else {
        Error(attr.pos, StrFormat("unknown alloc policy '%s'",
                                  attr.args[0].c_str()));
      }
      return;
    }
    Error(attr.pos,
          StrFormat("unknown parameter attribute '%s'", attr.name.c_str()));
  }

  const InterfaceFile& idl_;
  Side side_;
  const PdlFile* pdl_;
  PresentationSet* out_;
  DiagnosticSink* diags_;
};

}  // namespace

bool ApplyPdl(const InterfaceFile& idl, Side side, const PdlFile* pdl,
              PresentationSet* out, DiagnosticSink* diags) {
  return Applier(idl, side, pdl, out, diags).Run();
}

bool ApplyPdlText(const InterfaceFile& idl, Side side,
                  std::string_view pdl_text, std::string pdl_filename,
                  PresentationSet* out, DiagnosticSink* diags) {
  auto pdl = ParsePdl(pdl_text, std::move(pdl_filename), diags);
  if (pdl == nullptr) {
    return false;
  }
  return ApplyPdl(idl, side, pdl.get(), out, diags);
}

namespace {

// Bounds-checked indexing: bindings may come from hand-built or corrupted
// presentations (the presentation rules check exactly those), so
// out-of-range indices must resolve to "no type" rather than UB.
const ParamDecl* BoundParam(const OperationDecl& op, const Binding& binding) {
  if (binding.param_index < 0 ||
      binding.param_index >= static_cast<int>(op.params.size())) {
    return nullptr;
  }
  return &op.params[static_cast<size_t>(binding.param_index)];
}

const Type* BoundField(const Type* aggregate, int field_index) {
  if (aggregate == nullptr) {
    return nullptr;
  }
  const Type* s = aggregate->Resolve();
  if (field_index < 0 ||
      field_index >= static_cast<int>(s->fields().size())) {
    return nullptr;
  }
  return s->fields()[static_cast<size_t>(field_index)].type;
}

}  // namespace

const Type* BindingType(const OperationDecl& op, const Binding& binding) {
  switch (binding.kind) {
    case BindingKind::kParam: {
      const ParamDecl* p = BoundParam(op, binding);
      return p == nullptr ? nullptr : p->type;
    }
    case BindingKind::kParamField: {
      const ParamDecl* p = BoundParam(op, binding);
      return BoundField(p == nullptr ? nullptr : p->type,
                        binding.field_index);
    }
    case BindingKind::kResult:
      return op.result;
    case BindingKind::kResultField:
      return BoundField(FlattenableResultStruct(op), binding.field_index);
    case BindingKind::kResultDiscriminant:
      return op.result->Resolve()->discriminant();
    case BindingKind::kPresentationOnly:
      return nullptr;
  }
  return nullptr;
}

ParamDir BindingDir(const OperationDecl& op, const Binding& binding) {
  switch (binding.kind) {
    case BindingKind::kParam:
    case BindingKind::kParamField: {
      const ParamDecl* p = BoundParam(op, binding);
      return p == nullptr ? ParamDir::kOut : p->dir;
    }
    default:
      return ParamDir::kOut;
  }
}

int FlattenableArgIndex(const OperationDecl& op) {
  int index = -1;
  for (size_t i = 0; i < op.params.size(); ++i) {
    if (op.params[i].dir == ParamDir::kOut) {
      continue;
    }
    if (index >= 0) {
      return -1;  // more than one input parameter
    }
    index = static_cast<int>(i);
  }
  if (index < 0) {
    return -1;
  }
  const Type* t = op.params[static_cast<size_t>(index)].type->Resolve();
  return t->kind() == TypeKind::kStruct ? index : -1;
}

const Type* FlattenableResultStruct(const OperationDecl& op) {
  const Type* r = op.result->Resolve();
  if (r->kind() == TypeKind::kStruct) {
    return r;
  }
  if (r->kind() == TypeKind::kUnion) {
    const Type* found = nullptr;
    for (const UnionArm& arm : r->arms()) {
      const Type* at = arm.type->Resolve();
      if (at->kind() == TypeKind::kVoid) {
        continue;
      }
      if (at->kind() != TypeKind::kStruct || found != nullptr) {
        return nullptr;  // not the single-success-arm shape
      }
      found = at;
    }
    return found;
  }
  return nullptr;
}

}  // namespace flexrpc
