#include "src/marshal/value.h"

#include <cstring>

#include "src/marshal/layout.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

// Finds the arm matching `disc` (exact label first, then default).
const UnionArm* SelectArm(const Type* u, uint32_t disc) {
  const UnionArm* fallback = nullptr;
  for (const UnionArm& arm : u->arms()) {
    if (arm.is_default) {
      fallback = &arm;
    } else if (arm.label == disc) {
      return &arm;
    }
  }
  return fallback;
}

// Writes a scalar's u64 bit pattern at the wire width of `type`.
void PutScalarWire(WireWriter* w, const Type* type, uint64_t bits) {
  switch (type->Resolve()->kind()) {
    case TypeKind::kBool:
    case TypeKind::kOctet:
    case TypeKind::kChar:
      w->PutU8(static_cast<uint8_t>(bits));
      return;
    case TypeKind::kI16:
    case TypeKind::kU16:
      w->PutU16(static_cast<uint16_t>(bits));
      return;
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kF32:
    case TypeKind::kEnum:
      w->PutU32(static_cast<uint32_t>(bits));
      return;
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kF64:
    case TypeKind::kObjRef:
      w->PutU64(bits);
      return;
    default:
      return;
  }
}

// Reads a scalar of `type`, widened to a u64 bit pattern.
Result<uint64_t> GetScalarWire(WireReader* r, const Type* type) {
  switch (type->Resolve()->kind()) {
    case TypeKind::kBool:
    case TypeKind::kOctet:
    case TypeKind::kChar: {
      FLEXRPC_ASSIGN_OR_RETURN(uint8_t v, r->GetU8());
      return static_cast<uint64_t>(v);
    }
    case TypeKind::kI16:
    case TypeKind::kU16: {
      FLEXRPC_ASSIGN_OR_RETURN(uint16_t v, r->GetU16());
      return static_cast<uint64_t>(v);
    }
    case TypeKind::kI32:
    case TypeKind::kU32:
    case TypeKind::kF32:
    case TypeKind::kEnum: {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t v, r->GetU32());
      return static_cast<uint64_t>(v);
    }
    case TypeKind::kI64:
    case TypeKind::kU64:
    case TypeKind::kF64:
    case TypeKind::kObjRef:
      return r->GetU64();
    default:
      return InternalError("GetScalarWire on non-scalar type");
  }
}

}  // namespace

Status MarshalValue(WireWriter* w, const Type* type, const void* src) {
  const Type* t = type->Resolve();
  switch (t->kind()) {
    case TypeKind::kVoid:
      return Status::Ok();
    case TypeKind::kString: {
      const char* s;
      std::memcpy(&s, src, sizeof(s));
      size_t len = s == nullptr ? 0 : std::strlen(s);
      if (t->bound() != 0 && len > t->bound()) {
        return InvalidArgumentError(
            StrFormat("string length %zu exceeds bound %u", len, t->bound()));
      }
      w->PutU32(static_cast<uint32_t>(len));
      w->PutBytes(s, len);
      return Status::Ok();
    }
    case TypeKind::kSequence: {
      SeqRep rep;
      std::memcpy(&rep, src, sizeof(rep));
      if (t->bound() != 0 && rep.length > t->bound()) {
        return InvalidArgumentError(
            StrFormat("sequence length %u exceeds bound %u", rep.length,
                      t->bound()));
      }
      w->PutU32(rep.length);
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        w->PutBytes(rep.buffer, rep.length);
        return Status::Ok();
      }
      size_t stride = elem->NativeSize();
      const auto* base = static_cast<const uint8_t*>(rep.buffer);
      for (uint32_t i = 0; i < rep.length; ++i) {
        FLEXRPC_RETURN_IF_ERROR(MarshalValue(w, elem, base + i * stride));
      }
      return Status::Ok();
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        w->PutBytes(src, t->bound());
        return Status::Ok();
      }
      size_t stride = elem->NativeSize();
      const auto* base = static_cast<const uint8_t*>(src);
      for (uint32_t i = 0; i < t->bound(); ++i) {
        FLEXRPC_RETURN_IF_ERROR(MarshalValue(w, elem, base + i * stride));
      }
      return Status::Ok();
    }
    case TypeKind::kStruct: {
      const auto* base = static_cast<const uint8_t*>(src);
      for (size_t i = 0; i < t->fields().size(); ++i) {
        FLEXRPC_RETURN_IF_ERROR(MarshalValue(
            w, t->fields()[i].type, base + NativeFieldOffset(t, i)));
      }
      return Status::Ok();
    }
    case TypeKind::kUnion: {
      uint32_t disc;
      std::memcpy(&disc, src, sizeof(disc));
      const UnionArm* arm = SelectArm(t, disc);
      if (arm == nullptr) {
        return InvalidArgumentError(
            StrFormat("union discriminant %u matches no arm", disc));
      }
      w->PutU32(disc);
      if (arm->type->Resolve()->kind() == TypeKind::kVoid) {
        return Status::Ok();
      }
      const auto* base = static_cast<const uint8_t*>(src);
      return MarshalValue(w, arm->type, base + UnionPayloadOffset(t));
    }
    default:
      PutScalarWire(w, t, LoadScalar(t, src));
      return Status::Ok();
  }
}

Status UnmarshalValue(WireReader* r, const Type* type, void* dst,
                      Arena* arena) {
  const Type* t = type->Resolve();
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
      char* s = static_cast<char*>(arena->AllocateBlock(len + 1));
      std::memcpy(s, bytes, len);
      s[len] = '\0';
      std::memcpy(dst, &s, sizeof(s));
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
      SeqRep rep;
      rep.maximum = len;
      rep.length = len;
      if (IsByteElem(elem)) {
        FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes, r->GetBytes(len));
        rep.buffer = arena->AllocateBlock(len > 0 ? len : 1);
        std::memcpy(rep.buffer, bytes, len);
      } else {
        if (len > r->remaining()) {
          // Every non-byte element takes at least one wire byte: a larger
          // count is malformed, and must not size an allocation.
          return DataLossError(StrFormat(
              "wire sequence length %u exceeds the %zu bytes left", len,
              r->remaining()));
        }
        size_t stride = elem->NativeSize();
        rep.buffer = AllocateZeroedBlock(arena, len > 0 ? len * stride : 1);
        auto* base = static_cast<uint8_t*>(rep.buffer);
        for (uint32_t i = 0; i < len; ++i) {
          Status st = UnmarshalValue(r, elem, base + i * stride, arena);
          if (!st.ok()) {
            // Frees the elements already read; the rest are still zero.
            FreeValue(arena, t, &rep);
            return st;
          }
        }
      }
      std::memcpy(dst, &rep, sizeof(rep));
      return Status::Ok();
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes,
                                 r->GetBytes(t->bound()));
        std::memcpy(dst, bytes, t->bound());
        return Status::Ok();
      }
      size_t stride = elem->NativeSize();
      auto* base = static_cast<uint8_t*>(dst);
      for (uint32_t i = 0; i < t->bound(); ++i) {
        FLEXRPC_RETURN_IF_ERROR(
            UnmarshalValue(r, elem, base + i * stride, arena));
      }
      return Status::Ok();
    }
    case TypeKind::kStruct: {
      auto* base = static_cast<uint8_t*>(dst);
      for (size_t i = 0; i < t->fields().size(); ++i) {
        FLEXRPC_RETURN_IF_ERROR(UnmarshalValue(
            r, t->fields()[i].type, base + NativeFieldOffset(t, i), arena));
      }
      return Status::Ok();
    }
    case TypeKind::kUnion: {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t disc, r->GetU32());
      const UnionArm* arm = SelectArm(t, disc);
      if (arm == nullptr) {
        return DataLossError(
            StrFormat("wire union discriminant %u matches no arm", disc));
      }
      std::memcpy(dst, &disc, sizeof(disc));
      if (arm->type->Resolve()->kind() == TypeKind::kVoid) {
        return Status::Ok();
      }
      auto* base = static_cast<uint8_t*>(dst);
      return UnmarshalValue(r, arm->type, base + UnionPayloadOffset(t),
                            arena);
    }
    default: {
      FLEXRPC_ASSIGN_OR_RETURN(uint64_t bits, GetScalarWire(r, t));
      StoreScalar(t, dst, bits);
      return Status::Ok();
    }
  }
}

void FreeValue(Arena* arena, const Type* type, void* native) {
  const Type* t = type->Resolve();
  if (!t->HoldsPointers()) {
    return;  // owns no storage: nothing inside to visit
  }
  switch (t->kind()) {
    case TypeKind::kString: {
      char* s;
      std::memcpy(&s, native, sizeof(s));
      arena->FreeBlock(s);
      return;
    }
    case TypeKind::kSequence: {
      SeqRep rep;
      std::memcpy(&rep, native, sizeof(rep));
      const Type* elem = t->element();
      if (elem->HoldsPointers()) {
        size_t stride = elem->NativeSize();
        auto* base = static_cast<uint8_t*>(rep.buffer);
        for (uint32_t i = 0; i < rep.length; ++i) {
          FreeValue(arena, elem, base + i * stride);
        }
      }
      arena->FreeBlock(rep.buffer);
      return;
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      size_t stride = elem->NativeSize();
      auto* base = static_cast<uint8_t*>(native);
      for (uint32_t i = 0; i < t->bound(); ++i) {
        FreeValue(arena, elem, base + i * stride);
      }
      return;
    }
    case TypeKind::kStruct: {
      auto* base = static_cast<uint8_t*>(native);
      for (size_t i = 0; i < t->fields().size(); ++i) {
        FreeValue(arena, t->fields()[i].type,
                  base + NativeFieldOffset(t, i));
      }
      return;
    }
    case TypeKind::kUnion: {
      uint32_t disc;
      std::memcpy(&disc, native, sizeof(disc));
      const UnionArm* arm = SelectArm(t, disc);
      if (arm == nullptr) {
        return;
      }
      auto* base = static_cast<uint8_t*>(native);
      FreeValue(arena, arm->type, base + UnionPayloadOffset(t));
      return;
    }
    default:
      return;
  }
}

void* AllocateZeroedBlock(Arena* arena, size_t size) {
  void* block = arena->AllocateBlock(size);
  std::memset(block, 0, size);
  return block;
}

bool ValueEquals(const Type* type, const void* a, const void* b) {
  const Type* t = type->Resolve();
  switch (t->kind()) {
    case TypeKind::kVoid:
      return true;
    case TypeKind::kString: {
      const char* sa;
      const char* sb;
      std::memcpy(&sa, a, sizeof(sa));
      std::memcpy(&sb, b, sizeof(sb));
      if (sa == nullptr || sb == nullptr) {
        return sa == sb;
      }
      return std::strcmp(sa, sb) == 0;
    }
    case TypeKind::kSequence: {
      SeqRep ra;
      SeqRep rb;
      std::memcpy(&ra, a, sizeof(ra));
      std::memcpy(&rb, b, sizeof(rb));
      if (ra.length != rb.length) {
        return false;
      }
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        return std::memcmp(ra.buffer, rb.buffer, ra.length) == 0;
      }
      size_t stride = elem->NativeSize();
      const auto* ba = static_cast<const uint8_t*>(ra.buffer);
      const auto* bb = static_cast<const uint8_t*>(rb.buffer);
      for (uint32_t i = 0; i < ra.length; ++i) {
        if (!ValueEquals(elem, ba + i * stride, bb + i * stride)) {
          return false;
        }
      }
      return true;
    }
    case TypeKind::kArray: {
      const Type* elem = t->element();
      if (IsByteElem(elem)) {
        return std::memcmp(a, b, t->bound()) == 0;
      }
      size_t stride = elem->NativeSize();
      const auto* ba = static_cast<const uint8_t*>(a);
      const auto* bb = static_cast<const uint8_t*>(b);
      for (uint32_t i = 0; i < t->bound(); ++i) {
        if (!ValueEquals(elem, ba + i * stride, bb + i * stride)) {
          return false;
        }
      }
      return true;
    }
    case TypeKind::kStruct: {
      const auto* ba = static_cast<const uint8_t*>(a);
      const auto* bb = static_cast<const uint8_t*>(b);
      for (size_t i = 0; i < t->fields().size(); ++i) {
        size_t off = NativeFieldOffset(t, i);
        if (!ValueEquals(t->fields()[i].type, ba + off, bb + off)) {
          return false;
        }
      }
      return true;
    }
    case TypeKind::kUnion: {
      uint32_t da;
      uint32_t db;
      std::memcpy(&da, a, sizeof(da));
      std::memcpy(&db, b, sizeof(db));
      if (da != db) {
        return false;
      }
      const UnionArm* arm = SelectArm(t, da);
      if (arm == nullptr || arm->type->Resolve()->kind() == TypeKind::kVoid) {
        return true;
      }
      size_t off = UnionPayloadOffset(t);
      return ValueEquals(arm->type,
                         static_cast<const uint8_t*>(a) + off,
                         static_cast<const uint8_t*>(b) + off);
    }
    default:
      return LoadScalar(t, a) == LoadScalar(t, b);
  }
}

Status CopyValue(Arena* arena, const Type* type, const void* src, void* dst) {
  const Type* t = type->Resolve();
  switch (t->kind()) {
    case TypeKind::kVoid:
      return Status::Ok();
    case TypeKind::kString: {
      const char* s;
      std::memcpy(&s, src, sizeof(s));
      char* copy = nullptr;
      if (s != nullptr) {
        size_t len = std::strlen(s);
        copy = static_cast<char*>(arena->AllocateBlock(len + 1));
        std::memcpy(copy, s, len + 1);
      }
      std::memcpy(dst, &copy, sizeof(copy));
      return Status::Ok();
    }
    case TypeKind::kSequence: {
      SeqRep rep;
      std::memcpy(&rep, src, sizeof(rep));
      const Type* elem = t->element();
      SeqRep out;
      out.maximum = rep.length;
      out.length = rep.length;
      size_t stride = IsByteElem(elem) ? 1 : elem->NativeSize();
      size_t bytes = rep.length * stride;
      out.buffer = arena->AllocateBlock(bytes > 0 ? bytes : 1);
      if (IsByteElem(elem) || IsScalarKind(elem->Resolve()->kind())) {
        std::memcpy(out.buffer, rep.buffer, bytes);
      } else {
        const auto* sb = static_cast<const uint8_t*>(rep.buffer);
        auto* db = static_cast<uint8_t*>(out.buffer);
        for (uint32_t i = 0; i < rep.length; ++i) {
          FLEXRPC_RETURN_IF_ERROR(
              CopyValue(arena, elem, sb + i * stride, db + i * stride));
        }
      }
      std::memcpy(dst, &out, sizeof(out));
      return Status::Ok();
    }
    case TypeKind::kArray:
    case TypeKind::kStruct:
    case TypeKind::kUnion: {
      // Copy the fixed-size shell, then fix up nested allocations.
      std::memcpy(dst, src, t->NativeSize());
      if (t->kind() == TypeKind::kStruct) {
        auto* base = static_cast<uint8_t*>(dst);
        const auto* sbase = static_cast<const uint8_t*>(src);
        for (size_t i = 0; i < t->fields().size(); ++i) {
          const Type* ft = t->fields()[i].type->Resolve();
          if (ft->kind() == TypeKind::kString ||
              ft->kind() == TypeKind::kSequence ||
              ft->kind() == TypeKind::kStruct ||
              ft->kind() == TypeKind::kUnion ||
              ft->kind() == TypeKind::kArray) {
            size_t off = NativeFieldOffset(t, i);
            FLEXRPC_RETURN_IF_ERROR(
                CopyValue(arena, ft, sbase + off, base + off));
          }
        }
      } else if (t->kind() == TypeKind::kUnion) {
        uint32_t disc;
        std::memcpy(&disc, src, sizeof(disc));
        const UnionArm* arm = SelectArm(t, disc);
        if (arm != nullptr &&
            arm->type->Resolve()->kind() != TypeKind::kVoid) {
          size_t off = UnionPayloadOffset(t);
          FLEXRPC_RETURN_IF_ERROR(
              CopyValue(arena, arm->type,
                        static_cast<const uint8_t*>(src) + off,
                        static_cast<uint8_t*>(dst) + off));
        }
      } else {
        const Type* elem = t->element();
        if (!IsByteElem(elem) && !IsScalarKind(elem->Resolve()->kind())) {
          size_t stride = elem->NativeSize();
          const auto* sb = static_cast<const uint8_t*>(src);
          auto* db = static_cast<uint8_t*>(dst);
          for (uint32_t i = 0; i < t->bound(); ++i) {
            FLEXRPC_RETURN_IF_ERROR(
                CopyValue(arena, elem, sb + i * stride, db + i * stride));
          }
        }
      }
      return Status::Ok();
    }
    default:
      std::memcpy(dst, src, t->NativeSize());
      return Status::Ok();
  }
}

}  // namespace flexrpc
