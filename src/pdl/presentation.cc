#include "src/pdl/presentation.h"

namespace flexrpc {

std::string_view SideName(Side side) {
  return side == Side::kClient ? "client" : "server";
}

std::string_view BindingKindName(BindingKind kind) {
  switch (kind) {
    case BindingKind::kParam:
      return "param";
    case BindingKind::kParamField:
      return "param-field";
    case BindingKind::kResult:
      return "result";
    case BindingKind::kResultField:
      return "result-field";
    case BindingKind::kResultDiscriminant:
      return "result-discriminant";
    case BindingKind::kPresentationOnly:
      return "presentation-only";
  }
  return "?";
}

std::string_view TrustLevelName(TrustLevel level) {
  switch (level) {
    case TrustLevel::kNone:
      return "none";
    case TrustLevel::kLeaky:
      return "leaky";
    case TrustLevel::kFull:
      return "leaky,unprotected";
  }
  return "?";
}

ParamPresentation* OpPresentation::FindParam(std::string_view name) {
  for (ParamPresentation& p : params) {
    if (p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

const ParamPresentation* OpPresentation::FindParam(
    std::string_view name) const {
  return const_cast<OpPresentation*>(this)->FindParam(name);
}

int OpPresentation::SlotOf(std::string_view name) const {
  const ParamPresentation* p = FindParam(name);
  return p == nullptr ? -1 : static_cast<int>(p - params.data());
}

OpPresentation* InterfacePresentation::FindOp(std::string_view name) {
  for (OpPresentation& op : ops) {
    if (op.op_name == name) {
      return &op;
    }
  }
  return nullptr;
}

const OpPresentation* InterfacePresentation::FindOp(
    std::string_view name) const {
  return const_cast<InterfacePresentation*>(this)->FindOp(name);
}

bool IsBufferLike(const Type* type) {
  switch (type->Resolve()->kind()) {
    case TypeKind::kString:
    case TypeKind::kSequence:
    case TypeKind::kArray:
      return true;
    default:
      return false;
  }
}

bool IsVariableWireSize(const Type* type) {
  const Type* t = type->Resolve();
  switch (t->kind()) {
    case TypeKind::kString:
    case TypeKind::kSequence:
    case TypeKind::kUnion:
      return true;
    case TypeKind::kArray:
      return IsVariableWireSize(t->element());
    case TypeKind::kStruct:
      for (const StructField& f : t->fields()) {
        if (IsVariableWireSize(f.type)) {
          return true;
        }
      }
      return false;
    default:
      return false;
  }
}

bool IsIntegralScalar(const Type* type) {
  switch (type->Resolve()->kind()) {
    case TypeKind::kI16:
    case TypeKind::kU16:
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kEnum:
      return true;
    default:
      return false;
  }
}

ParamPresentation DefaultParamPresentation(const std::string& name,
                                           const Type* type, ParamDir dir,
                                           Side side, Binding binding) {
  ParamPresentation p;
  p.name = name;
  p.binding = binding;
  const Type* t = type->Resolve();
  bool produces_data =
      dir != ParamDir::kIn;  // out/inout: data flows back to the client
  if (t->kind() == TypeKind::kVoid) {
    return p;
  }
  if (IsVariableWireSize(t) && produces_data) {
    if (side == Side::kServer) {
      // CORBA/COM move semantics: the work function allocates and donates;
      // the stub deallocates once the data has been marshaled out.
      p.alloc = AllocPolicy::kUser;
      p.dealloc = DeallocPolicy::kAlways;
    } else {
      // The client consumes a system-provided buffer (and frees it later).
      p.alloc = AllocPolicy::kStub;
    }
  } else if (produces_data) {
    // Fixed-size out data is written directly into caller storage on the
    // client and stub storage on the server.
    p.alloc = side == Side::kClient ? AllocPolicy::kUser : AllocPolicy::kStub;
  }
  return p;
}

InterfacePresentation DefaultPresentation(const InterfaceDecl& itf,
                                          Side side) {
  InterfacePresentation pres;
  pres.interface_name = itf.name;
  pres.side = side;
  pres.trust = TrustLevel::kNone;
  for (const OperationDecl& op : itf.ops) {
    OpPresentation op_pres;
    op_pres.op_name = op.name;
    for (size_t i = 0; i < op.params.size(); ++i) {
      const ParamDecl& param = op.params[i];
      op_pres.params.push_back(DefaultParamPresentation(
          param.name, param.type, param.dir, side,
          Binding{BindingKind::kParam, static_cast<int>(i), -1}));
    }
    // The result behaves like an out parameter named "return".
    op_pres.result =
        DefaultParamPresentation("return", op.result, ParamDir::kOut, side,
                                 Binding{BindingKind::kResult, -1, -1});
    pres.ops.push_back(std::move(op_pres));
  }
  return pres;
}

}  // namespace flexrpc
