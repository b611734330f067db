// The flexrpc type system.
//
// Types are interned in a TypeTable owned by the compilation unit; all
// consumers (presentation layer, signature builder, marshal-program builder,
// code generators) hold `const Type*` pointers into that table. Interning
// makes structural equality a pointer comparison for primitives and keeps
// recursive type graphs cheap to walk.

#ifndef FLEXRPC_SRC_IDL_TYPES_H_
#define FLEXRPC_SRC_IDL_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/support/status.h"

namespace flexrpc {

enum class TypeKind {
  kVoid,
  kBool,
  kOctet,  // uninterpreted byte
  kChar,
  kI16,
  kU16,
  kI32,
  kU32,
  kI64,
  kU64,
  kF32,
  kF64,
  kString,    // bound_ = max length, 0 = unbounded
  kSequence,  // element_ = element type, bound_ = max count, 0 = unbounded
  kArray,     // element_ = element type, bound_ = fixed count
  kStruct,
  kEnum,
  kUnion,
  kObjRef,  // interface (object/port) reference
  kAlias,   // typedef; element_ = aliased type
};

// True for types whose wire size is a compile-time constant.
bool IsFixedSizeKind(TypeKind kind);
// True for numeric/bool/char/octet scalars.
bool IsScalarKind(TypeKind kind);

std::string_view TypeKindName(TypeKind kind);

class Type;

struct StructField {
  std::string name;
  const Type* type = nullptr;
};

struct EnumMember {
  std::string name;
  uint32_t value = 0;
};

struct UnionArm {
  uint32_t label = 0;  // discriminant value (ignored if is_default)
  bool is_default = false;
  std::string name;
  const Type* type = nullptr;
};

// An immutable node in the type graph. Construct only through TypeTable.
class Type {
 public:
  TypeKind kind() const { return kind_; }
  // Declared name for named types; empty for anonymous constructed types.
  const std::string& name() const { return name_; }
  const Type* element() const { return element_; }
  uint32_t bound() const { return bound_; }
  const std::vector<StructField>& fields() const { return fields_; }
  const std::vector<EnumMember>& members() const { return members_; }
  const std::vector<UnionArm>& arms() const { return arms_; }
  const Type* discriminant() const { return discriminant_; }
  // Declarator name of the union discriminant ("status" in Sun RPC's
  // `union r switch (nfsstat status)`); empty when the IDL gives none.
  const std::string& discriminant_name() const { return discriminant_name_; }

  // Follows typedef chains to the underlying type.
  const Type* Resolve() const {
    const Type* t = this;
    while (t->kind_ == TypeKind::kAlias) {
      t = t->element_;
    }
    return t;
  }

  // Human-readable spelling, e.g. "sequence<octet>", "struct fattr".
  std::string ToString() const;

  // Size in bytes of the native in-memory representation (the presentation-
  // level layout used by the runtime stub engine). Variable-size types
  // (string, unbounded sequence) report the size of their descriptor.
  // Results are memoized on first use: a type's structure is frozen once
  // marshal programs start consuming it.
  size_t NativeSize() const;
  size_t NativeAlign() const;

  // Byte offset of field `index` in the native layout (structs only).
  // Memoized alongside NativeSize.
  size_t FieldOffset(size_t index) const;

  // True when the native representation holds a pointer (a string, a
  // sequence buffer) anywhere inside it, in any union arm. A value without
  // one owns no storage beyond its own bytes. Memoized like NativeSize.
  bool HoldsPointers() const;

 private:
  friend class TypeTable;
  Type() = default;

  TypeKind kind_ = TypeKind::kVoid;
  std::string name_;
  const Type* element_ = nullptr;
  uint32_t bound_ = 0;
  std::vector<StructField> fields_;
  std::vector<EnumMember> members_;
  std::vector<UnionArm> arms_;
  const Type* discriminant_ = nullptr;
  std::string discriminant_name_;

  // Lazily-computed layout caches (see NativeSize).
  mutable size_t cached_size_ = kLayoutUncached;
  mutable size_t cached_align_ = kLayoutUncached;
  mutable std::vector<size_t> cached_field_offsets_;
  mutable int8_t cached_pointers_ = -1;  // -1 until HoldsPointers runs
  static constexpr size_t kLayoutUncached = static_cast<size_t>(-1);

  size_t ComputeNativeSize() const;
  size_t ComputeNativeAlign() const;
  bool ComputeHoldsPointers() const;
};

// Owns all Type nodes for one compilation. Primitive types are singletons;
// constructed types are created on demand (sequences/arrays interned by
// (element, bound); named types registered once by name).
class TypeTable {
 public:
  TypeTable();

  TypeTable(const TypeTable&) = delete;
  TypeTable& operator=(const TypeTable&) = delete;

  const Type* Void() const { return void_; }
  const Type* Bool() const { return bool_; }
  const Type* Octet() const { return octet_; }
  const Type* Char() const { return char_; }
  const Type* I16() const { return i16_; }
  const Type* U16() const { return u16_; }
  const Type* I32() const { return i32_; }
  const Type* U32() const { return u32_; }
  const Type* I64() const { return i64_; }
  const Type* U64() const { return u64_; }
  const Type* F32() const { return f32_; }
  const Type* F64() const { return f64_; }

  const Type* String(uint32_t bound = 0);
  const Type* Sequence(const Type* element, uint32_t bound = 0);
  const Type* Array(const Type* element, uint32_t count);

  // Named-type registration. Returns nullptr if the name is already taken.
  Type* NewStruct(std::string name);
  Type* NewEnum(std::string name);
  Type* NewUnion(std::string name, const Type* discriminant,
                 std::string discriminant_name = "");
  const Type* NewObjRef(std::string name);
  const Type* NewAlias(std::string name, const Type* target);

  // Mutators used by the parsers while a named type is under construction.
  // Both front-ends declare through them, so they hold the rules on names
  // within one type: each refuses, with InvalidArgument and no change, a
  // field or enum member name the type already has, a case label it
  // already has, or a second default arm.
  Status AddField(Type* struct_type, std::string name, const Type* type);
  Status AddEnumMember(Type* enum_type, std::string name, uint32_t value);
  Status AddUnionArm(Type* union_type, uint32_t label, bool is_default,
                     std::string name, const Type* type);

  // Looks up a named type (struct/enum/union/objref/alias). Null if absent.
  const Type* FindNamed(std::string_view name) const;

  // All named types in declaration order (for code generation).
  std::vector<const Type*> NamedTypes() const;

  size_t size() const { return all_.size(); }

 private:
  Type* MakeType(TypeKind kind);
  const Type* MakePrimitive(TypeKind kind);
  Type* RegisterNamed(TypeKind kind, std::string name);

  std::vector<std::unique_ptr<Type>> all_;
  std::unordered_map<std::string, const Type*> named_;
  // Interning keys: "seq:<ptr>:<bound>", "arr:<ptr>:<count>", "str:<bound>".
  std::unordered_map<std::string, const Type*> constructed_;

  const Type* void_;
  const Type* bool_;
  const Type* octet_;
  const Type* char_;
  const Type* i16_;
  const Type* u16_;
  const Type* i32_;
  const Type* u32_;
  const Type* i64_;
  const Type* u64_;
  const Type* f32_;
  const Type* f64_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_IDL_TYPES_H_
