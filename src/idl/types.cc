#include "src/idl/types.h"

#include <algorithm>
#include <cassert>

#include "src/support/strings.h"

namespace flexrpc {

bool IsFixedSizeKind(TypeKind kind) {
  switch (kind) {
    case TypeKind::kString:
    case TypeKind::kSequence:
    case TypeKind::kUnion:
      return false;
    default:
      return true;
  }
}

bool IsScalarKind(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBool:
    case TypeKind::kOctet:
    case TypeKind::kChar:
    case TypeKind::kI16:
    case TypeKind::kU16:
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kF32:
    case TypeKind::kF64:
      return true;
    default:
      return false;
  }
}

std::string_view TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kVoid:
      return "void";
    case TypeKind::kBool:
      return "boolean";
    case TypeKind::kOctet:
      return "octet";
    case TypeKind::kChar:
      return "char";
    case TypeKind::kI16:
      return "short";
    case TypeKind::kU16:
      return "unsigned short";
    case TypeKind::kI32:
      return "long";
    case TypeKind::kU32:
      return "unsigned long";
    case TypeKind::kI64:
      return "long long";
    case TypeKind::kU64:
      return "unsigned long long";
    case TypeKind::kF32:
      return "float";
    case TypeKind::kF64:
      return "double";
    case TypeKind::kString:
      return "string";
    case TypeKind::kSequence:
      return "sequence";
    case TypeKind::kArray:
      return "array";
    case TypeKind::kStruct:
      return "struct";
    case TypeKind::kEnum:
      return "enum";
    case TypeKind::kUnion:
      return "union";
    case TypeKind::kObjRef:
      return "interface";
    case TypeKind::kAlias:
      return "typedef";
  }
  return "?";
}

std::string Type::ToString() const {
  switch (kind_) {
    case TypeKind::kString:
      return bound_ == 0 ? "string" : StrFormat("string<%u>", bound_);
    case TypeKind::kSequence:
      return bound_ == 0
                 ? StrFormat("sequence<%s>", element_->ToString().c_str())
                 : StrFormat("sequence<%s,%u>", element_->ToString().c_str(),
                             bound_);
    case TypeKind::kArray:
      return StrFormat("%s[%u]", element_->ToString().c_str(), bound_);
    case TypeKind::kStruct:
      return "struct " + name_;
    case TypeKind::kEnum:
      return "enum " + name_;
    case TypeKind::kUnion:
      return "union " + name_;
    case TypeKind::kObjRef:
      return "interface " + name_;
    case TypeKind::kAlias:
      return name_;
    default:
      return std::string(TypeKindName(kind_));
  }
}

size_t Type::NativeSize() const {
  if (cached_size_ == kLayoutUncached) {
    cached_size_ = ComputeNativeSize();
  }
  return cached_size_;
}

size_t Type::NativeAlign() const {
  if (cached_align_ == kLayoutUncached) {
    cached_align_ = ComputeNativeAlign();
  }
  return cached_align_;
}

size_t Type::FieldOffset(size_t index) const {
  assert(kind_ == TypeKind::kStruct);
  if (cached_field_offsets_.empty() && !fields_.empty()) {
    size_t offset = 0;
    cached_field_offsets_.reserve(fields_.size());
    for (const StructField& f : fields_) {
      size_t align = f.type->NativeAlign();
      offset = (offset + align - 1) & ~(align - 1);
      cached_field_offsets_.push_back(offset);
      offset += f.type->NativeSize();
    }
  }
  assert(index < cached_field_offsets_.size());
  return cached_field_offsets_[index];
}

bool Type::HoldsPointers() const {
  if (cached_pointers_ < 0) {
    cached_pointers_ = ComputeHoldsPointers() ? 1 : 0;
  }
  return cached_pointers_ != 0;
}

bool Type::ComputeHoldsPointers() const {
  switch (kind_) {
    case TypeKind::kString:
    case TypeKind::kSequence:
      return true;
    case TypeKind::kArray:
    case TypeKind::kAlias:
      return element_->HoldsPointers();
    case TypeKind::kStruct:
      return std::any_of(fields_.begin(), fields_.end(),
                         [](const StructField& f) {
                           return f.type->HoldsPointers();
                         });
    case TypeKind::kUnion:
      return std::any_of(arms_.begin(), arms_.end(), [](const UnionArm& arm) {
        return arm.type->HoldsPointers();
      });
    default:
      return false;  // scalars, enums, object references, void
  }
}

size_t Type::ComputeNativeSize() const {
  switch (kind_) {
    case TypeKind::kVoid:
      return 0;
    case TypeKind::kBool:
    case TypeKind::kOctet:
    case TypeKind::kChar:
      return 1;
    case TypeKind::kI16:
    case TypeKind::kU16:
      return 2;
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kF32:
    case TypeKind::kEnum:
      return 4;
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kF64:
      return 8;
    case TypeKind::kString:
      return sizeof(char*);  // char* in the default presentation
    case TypeKind::kSequence:
      // CORBA C mapping: SeqRep{maximum, length, buffer} = 16 bytes.
      return 2 * sizeof(uint32_t) + sizeof(void*);
    case TypeKind::kArray:
      return element_->NativeSize() * bound_;
    case TypeKind::kStruct: {
      size_t size = 0;
      for (const StructField& f : fields_) {
        size_t align = f.type->NativeAlign();
        size = (size + align - 1) & ~(align - 1);
        size += f.type->NativeSize();
      }
      size_t align = NativeAlign();
      return (size + align - 1) & ~(align - 1);
    }
    case TypeKind::kUnion: {
      size_t size = 0;
      for (const UnionArm& arm : arms_) {
        size = std::max(size, arm.type->NativeSize());
      }
      size_t align = NativeAlign();
      size_t disc = (4 + align - 1) & ~(align - 1);
      return (disc + size + align - 1) & ~(align - 1);
    }
    case TypeKind::kObjRef:
      return sizeof(uint64_t);  // port name / object handle
    case TypeKind::kAlias:
      return element_->NativeSize();
  }
  return 0;
}

size_t Type::ComputeNativeAlign() const {
  switch (kind_) {
    case TypeKind::kVoid:
      return 1;
    case TypeKind::kBool:
    case TypeKind::kOctet:
    case TypeKind::kChar:
      return 1;
    case TypeKind::kI16:
    case TypeKind::kU16:
      return 2;
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kF32:
    case TypeKind::kEnum:
      return 4;
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kF64:
    case TypeKind::kObjRef:
      return 8;
    case TypeKind::kString:
    case TypeKind::kSequence:
      return alignof(void*);
    case TypeKind::kArray:
      return element_->NativeAlign();
    case TypeKind::kStruct: {
      size_t align = 1;
      for (const StructField& f : fields_) {
        align = std::max(align, f.type->NativeAlign());
      }
      return align;
    }
    case TypeKind::kUnion: {
      size_t align = 4;
      for (const UnionArm& arm : arms_) {
        align = std::max(align, arm.type->NativeAlign());
      }
      return align;
    }
    case TypeKind::kAlias:
      return element_->NativeAlign();
  }
  return 1;
}

TypeTable::TypeTable() {
  void_ = MakePrimitive(TypeKind::kVoid);
  bool_ = MakePrimitive(TypeKind::kBool);
  octet_ = MakePrimitive(TypeKind::kOctet);
  char_ = MakePrimitive(TypeKind::kChar);
  i16_ = MakePrimitive(TypeKind::kI16);
  u16_ = MakePrimitive(TypeKind::kU16);
  i32_ = MakePrimitive(TypeKind::kI32);
  u32_ = MakePrimitive(TypeKind::kU32);
  i64_ = MakePrimitive(TypeKind::kI64);
  u64_ = MakePrimitive(TypeKind::kU64);
  f32_ = MakePrimitive(TypeKind::kF32);
  f64_ = MakePrimitive(TypeKind::kF64);
}

Type* TypeTable::MakeType(TypeKind kind) {
  auto owned = std::unique_ptr<Type>(new Type());
  owned->kind_ = kind;
  Type* raw = owned.get();
  all_.push_back(std::move(owned));
  return raw;
}

const Type* TypeTable::MakePrimitive(TypeKind kind) {
  return MakeType(kind);
}

const Type* TypeTable::String(uint32_t bound) {
  std::string key = StrFormat("str:%u", bound);
  auto it = constructed_.find(key);
  if (it != constructed_.end()) {
    return it->second;
  }
  Type* t = MakeType(TypeKind::kString);
  t->bound_ = bound;
  constructed_[key] = t;
  return t;
}

const Type* TypeTable::Sequence(const Type* element, uint32_t bound) {
  std::string key = StrFormat("seq:%p:%u", static_cast<const void*>(element),
                              bound);
  auto it = constructed_.find(key);
  if (it != constructed_.end()) {
    return it->second;
  }
  Type* t = MakeType(TypeKind::kSequence);
  t->element_ = element;
  t->bound_ = bound;
  constructed_[key] = t;
  return t;
}

const Type* TypeTable::Array(const Type* element, uint32_t count) {
  std::string key = StrFormat("arr:%p:%u", static_cast<const void*>(element),
                              count);
  auto it = constructed_.find(key);
  if (it != constructed_.end()) {
    return it->second;
  }
  Type* t = MakeType(TypeKind::kArray);
  t->element_ = element;
  t->bound_ = count;
  constructed_[key] = t;
  return t;
}

Type* TypeTable::RegisterNamed(TypeKind kind, std::string name) {
  if (named_.count(name) != 0) {
    return nullptr;
  }
  Type* t = MakeType(kind);
  t->name_ = name;
  named_[std::move(name)] = t;
  return t;
}

Type* TypeTable::NewStruct(std::string name) {
  return RegisterNamed(TypeKind::kStruct, std::move(name));
}

Type* TypeTable::NewEnum(std::string name) {
  return RegisterNamed(TypeKind::kEnum, std::move(name));
}

Type* TypeTable::NewUnion(std::string name, const Type* discriminant,
                          std::string discriminant_name) {
  Type* t = RegisterNamed(TypeKind::kUnion, std::move(name));
  if (t != nullptr) {
    t->discriminant_ = discriminant;
    t->discriminant_name_ = std::move(discriminant_name);
  }
  return t;
}

const Type* TypeTable::NewObjRef(std::string name) {
  return RegisterNamed(TypeKind::kObjRef, std::move(name));
}

const Type* TypeTable::NewAlias(std::string name, const Type* target) {
  Type* t = RegisterNamed(TypeKind::kAlias, std::move(name));
  if (t != nullptr) {
    t->element_ = target;
  }
  return t;
}

namespace {

// Refuses a second `what` (a name, a case label, a default arm) in `type`.
Status Duplicate(const std::string& what, const Type* type) {
  return InvalidArgumentError(StrFormat("duplicate %s in %s", what.c_str(),
                                        type->ToString().c_str()));
}

}  // namespace

Status TypeTable::AddField(Type* struct_type, std::string name,
                           const Type* type) {
  assert(struct_type->kind_ == TypeKind::kStruct);
  for (const StructField& f : struct_type->fields_) {
    if (f.name == name) {
      return Duplicate("field '" + name + "'", struct_type);
    }
  }
  struct_type->fields_.push_back(StructField{std::move(name), type});
  return Status::Ok();
}

Status TypeTable::AddEnumMember(Type* enum_type, std::string name,
                                uint32_t value) {
  assert(enum_type->kind_ == TypeKind::kEnum);
  for (const EnumMember& m : enum_type->members_) {
    if (m.name == name) {
      return Duplicate("member '" + name + "'", enum_type);
    }
  }
  enum_type->members_.push_back(EnumMember{std::move(name), value});
  return Status::Ok();
}

Status TypeTable::AddUnionArm(Type* union_type, uint32_t label,
                              bool is_default, std::string name,
                              const Type* type) {
  assert(union_type->kind_ == TypeKind::kUnion);
  for (const UnionArm& arm : union_type->arms_) {
    if (is_default && arm.is_default) {
      return Duplicate("default arm", union_type);
    }
    if (!is_default && !arm.is_default && arm.label == label) {
      return Duplicate(StrFormat("case label %u", label), union_type);
    }
  }
  union_type->arms_.push_back(
      UnionArm{label, is_default, std::move(name), type});
  return Status::Ok();
}

std::vector<const Type*> TypeTable::NamedTypes() const {
  std::vector<const Type*> out;
  for (const auto& type : all_) {
    if (!type->name().empty()) {
      out.push_back(type.get());
    }
  }
  return out;
}

const Type* TypeTable::FindNamed(std::string_view name) const {
  auto it = named_.find(std::string(name));
  return it == named_.end() ? nullptr : it->second;
}

}  // namespace flexrpc
