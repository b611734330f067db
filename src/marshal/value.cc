#include "src/marshal/value.h"

#include <cstring>

#include "src/marshal/layout.h"

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

}  // namespace

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
