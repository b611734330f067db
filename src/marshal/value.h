// Recursive marshaling of native-layout values to and from a wire format.
//
// These routines implement the *default* (attribute-free) encoding used for
// nested data. Top-level parameters go through the presentation-aware
// MarshalProgram (src/marshal/engine.h), which applies [special] routines,
// explicit lengths, and allocation policies itself, and hands a value it
// moves whole (its value ops, spec_ops.h) to these.

#ifndef FLEXRPC_SRC_MARSHAL_VALUE_H_
#define FLEXRPC_SRC_MARSHAL_VALUE_H_

#include "src/idl/types.h"
#include "src/marshal/format.h"
#include "src/support/arena.h"
#include "src/support/status.h"

namespace flexrpc {

// Marshals the native-layout value at `src`.
Status MarshalValue(WireWriter* w, const Type* type, const void* src);

// Unmarshals into the native-layout storage at `dst` (NativeSize(type)
// bytes, caller-provided). Variable-size payloads (string bytes, sequence
// buffers) are allocated from `arena` with AllocateBlock.
Status UnmarshalValue(WireReader* r, const Type* type, void* dst,
                      Arena* arena);

// Frees the nested blocks UnmarshalValue allocated inside `native` (but not
// `native` itself, which the caller owns). Returns at once for a type that
// holds no pointer (Type::HoldsPointers), whatever its size.
void FreeValue(Arena* arena, const Type* type, void* native);

// AllocateBlock, zero-filled. Storage that UnmarshalValue fills starts out
// this way, so FreeValue on a value whose unmarshal failed part-way frees
// what was read and finds null pointers where nothing was.
void* AllocateZeroedBlock(Arena* arena, size_t size);

// Deep structural equality of two native-layout values (test support and
// same-domain copy elision verification).
bool ValueEquals(const Type* type, const void* a, const void* b);

// Deep-copies the native value at `src` into `dst`, allocating nested
// buffers from `arena` (used by the same-domain engine when copy semantics
// are required).
Status CopyValue(Arena* arena, const Type* type, const void* src, void* dst);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_VALUE_H_
