// Walks over native-layout values: release, equality and deep copy.
//
// The marshal engine (src/marshal/engine.h) moves values to and from the
// wire through compiled op streams; these walk a value already in memory.
// FreeValue releases what an unmarshal stream allocated inside a value,
// ValueEquals compares two values (tests, same-domain copy checks), and
// CopyValue deep-copies one (the same-domain engine).

#ifndef FLEXRPC_SRC_MARSHAL_VALUE_H_
#define FLEXRPC_SRC_MARSHAL_VALUE_H_

#include "src/idl/types.h"
#include "src/support/arena.h"
#include "src/support/status.h"

namespace flexrpc {

// Frees the nested blocks an unmarshal stream allocated inside `native`
// (but not `native` itself, which the caller owns). Returns at once for a
// type that holds no pointer (Type::HoldsPointers), whatever its size.
// An unmarshal stream starts every block it fills zeroed, so FreeValue on
// a value whose unmarshal failed part-way frees what was read and finds
// null pointers where nothing was.
void FreeValue(Arena* arena, const Type* type, void* native);

// Deep structural equality of two native-layout values (test support and
// same-domain copy elision verification).
bool ValueEquals(const Type* type, const void* a, const void* b);

// Deep-copies the native value at `src` into `dst`, allocating nested
// buffers from `arena` (used by the same-domain engine when copy semantics
// are required).
Status CopyValue(Arena* arena, const Type* type, const void* src, void* dst);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_VALUE_H_
