// Native in-memory layout of IDL values (the default C presentation).
//
// The runtime stub engine stores unflattened structured parameters in
// memory laid out by these rules, mirroring the CORBA C mapping the paper's
// Figure 4 shows:
//   * scalars at their natural size/alignment,
//   * string members as char* (NUL-terminated),
//   * sequence members as SeqRep{maximum, length, buffer},
//   * struct members at aligned offsets, in declaration order,
//   * unions as {u32 discriminant; padded payload overlay}.
// Sizes and alignments come from Type::NativeSize()/NativeAlign().

#ifndef FLEXRPC_SRC_MARSHAL_LAYOUT_H_
#define FLEXRPC_SRC_MARSHAL_LAYOUT_H_

#include <cstddef>
#include <cstdint>

#include "src/idl/types.h"

namespace flexrpc {

// The native representation of sequence<T> (paper Fig. 4's
// CORBA_SEQUENCE_char with the standard field order).
struct SeqRep {
  uint32_t maximum = 0;
  uint32_t length = 0;
  void* buffer = nullptr;
};
static_assert(sizeof(SeqRep) == 16, "SeqRep layout is part of the ABI");

// True for octet and char elements: sequences and arrays of them move as
// one raw byte run rather than element by element.
inline bool IsByteElem(const Type* elem) {
  TypeKind k = elem->Resolve()->kind();
  return k == TypeKind::kOctet || k == TypeKind::kChar;
}

// Byte offset of field `field_index` within the native layout of
// `struct_type` (which must resolve to a struct).
size_t NativeFieldOffset(const Type* struct_type, size_t field_index);

// Byte offset of the payload overlay within a native union value (the
// discriminant is a u32 at offset 0).
size_t UnionPayloadOffset(const Type* union_type);

// Bit-pattern conversions for floating-point scalars crossing the ArgVec
// (slots carry u64 bit patterns). Used by generated stubs.
template <typename F>
inline F BitsToFloat(uint64_t bits) {
  if constexpr (sizeof(F) == 4) {
    uint32_t narrow = static_cast<uint32_t>(bits);
    F v;
    __builtin_memcpy(&v, &narrow, sizeof(v));
    return v;
  } else {
    F v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
}

inline uint64_t FloatToBits(float v) {
  uint32_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline uint64_t FloatToBits(double v) {
  uint64_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Reads/writes a scalar (bool/char/octet/int/float/enum/objref) of `type`
// from/to native memory, widening to a u64 bit pattern. Floats travel as
// their bit patterns.
uint64_t LoadScalar(const Type* type, const void* src);
void StoreScalar(const Type* type, void* dst, uint64_t bits);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_LAYOUT_H_
