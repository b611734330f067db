// flexspec opcodes: each op's one definition.
//
// A SpecOp (engine.h) is one instruction of a compiled marshal stream: its
// kind plus constant operands. MarshalStep and UnmarshalStep define what
// each kind does to the wire, the ArgVec and the loops' base registers;
// SkippedOps defines the branch ops (a union's arm selection) and
// NextElement a loop's back-edge, and nothing else does: the reference
// executor (RunSpecMarshal/RunSpecUnmarshal, spec.h) loops over them, and
// `idlc --specialize` emits one step call per op with the op written out as
// a literal, each branch op as a forward `goto` and each loop as a `for`.
// All of them are forced inline, so in generated code the kind switch and
// every operand fold to constants, and the stream runs with no table walk
// and no indirect jump.

#ifndef FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_
#define FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "src/marshal/engine.h"
#include "src/marshal/format.h"
#include "src/marshal/layout.h"
#include "src/support/arena.h"
#include "src/support/status.h"
#include "src/support/strings.h"

namespace flexrpc {

// A running loop (kLoop … kLoopEnd): its base register, the element its
// body addresses, and the elements left, that one included. A stream keeps
// one per nesting level; loops nest at most kMaxSequenceNesting deep,
// because sema refuses a type that nests deeper.
struct SpecLoop {
  uint8_t* elem = nullptr;
  uint32_t left = 0;
};

namespace spec_internal {

// Ends the stream with `status`.
[[gnu::always_inline]] inline bool End(Status* end, Status status) {
  *end = std::move(status);
  return false;
}

[[gnu::always_inline]] inline void PutScalar(WireWriter* w, uint8_t width,
                                             uint64_t bits) {
  switch (width) {
    case 1:
      w->PutU8(static_cast<uint8_t>(bits));
      return;
    case 2:
      w->PutU16(static_cast<uint16_t>(bits));
      return;
    case 4:
      w->PutU32(static_cast<uint32_t>(bits));
      return;
    default:
      w->PutU64(bits);
      return;
  }
}

// Ends the stream with a failed read's error. Cold and out of line, so
// that each op inlines only the read, one test and the store, and the
// compiler keeps inlining the accessors of a long stream's last reads.
template <typename T>
[[gnu::cold, gnu::noinline]] bool EndRead(const Result<T>& read,
                                          Status* end) {
  return End(end, read.status());
}

// Stores a successful read in `*value`; otherwise ends the stream with the
// read's error.
template <typename T, typename V>
[[gnu::always_inline]] inline bool Get(Result<T> read, V* value,
                                       Status* end) {
  if (!read.ok()) {
    return EndRead(read, end);
  }
  *value = *read;
  return true;
}

[[gnu::always_inline]] inline bool GetScalar(WireReader* r, uint8_t width,
                                             uint64_t* bits, Status* end) {
  switch (width) {
    case 1:
      return Get(r->GetU8(), bits, end);
    case 2:
      return Get(r->GetU16(), bits, end);
    case 4:
      return Get(r->GetU32(), bits, end);
    default:
      return Get(r->GetU64(), bits, end);
  }
}

// The memory `op` addresses: its base, args[slot].ptr() outside loops and
// the current element of its innermost loop inside one, plus its offset.
[[gnu::always_inline]] inline uint8_t* Mem(const SpecOp& op,
                                           const ArgVec& args,
                                           const SpecLoop* loops) {
  uint8_t* base =
      op.depth == 0
          ? static_cast<uint8_t*>(args[static_cast<size_t>(op.slot)].ptr())
          : loops[op.depth - 1].elem;
  return base + op.offset;
}

// The u32 union discriminant in memory, which a branch op tests and kNoArm
// reports.
[[gnu::always_inline]] inline uint32_t Disc(const SpecOp& op,
                                            const ArgVec& args,
                                            const SpecLoop* loops) {
  uint32_t disc;
  std::memcpy(&disc, Mem(op, args, loops), sizeof(disc));
  return disc;
}

// Reads a u32 length under `op.bound` (`what` names the value in the
// error) and then that many bytes and their padding.
[[gnu::always_inline]] inline bool GetRun(WireReader* r, const SpecOp& op,
                                          const char* what, uint32_t* len,
                                          const uint8_t** bytes,
                                          Status* end) {
  if (!Get(r->GetU32(), len, end)) {
    return false;
  }
  if (op.bound != 0 && *len > op.bound) {
    return End(end, DataLossError(StrFormat(
                        "wire %s length %u exceeds bound %u", what, *len,
                        op.bound)));
  }
  return Get(r->GetBytes(*len), bytes, end);
}

// The length of a null-tolerant C string: a null pointer has length 0.
[[gnu::always_inline]] inline uint32_t StrLen(const char* s) {
  return s == nullptr ? 0 : static_cast<uint32_t>(std::strlen(s));
}

// The marshaled length of a top-level value, from `op.len_src`.
[[gnu::always_inline]] inline uint32_t MarshalLength(const SpecOp& op,
                                                     const ArgVec& args) {
  switch (op.len_src) {
    case SpecLenSource::kSlotLength:
      return args[static_cast<size_t>(op.slot)].length;
    case SpecLenSource::kLenSlot:
      return static_cast<uint32_t>(
          args[static_cast<size_t>(op.len_slot)].scalar);
    case SpecLenSource::kStrLen:
      return StrLen(static_cast<const char*>(
          args[static_cast<size_t>(op.slot)].ptr()));
    default:  // a loop's count in memory: kLoop reads it itself
      return 0;
  }
}

// Refuses a marshaled length past `op.bound` (0: unbounded); `what` names
// the value in the message.
[[gnu::always_inline]] inline bool PutBound(const SpecOp& op, uint32_t len,
                                            const char* what, Status* end) {
  if (op.bound != 0 && len > op.bound) {
    return End(end, InvalidArgumentError(StrFormat(
                        "%s length %u exceeds bound %u", what, len,
                        op.bound)));
  }
  return true;
}

// Zeroed, so a release after a failed read finds null pointers wherever
// nothing was read.
[[gnu::always_inline]] inline void* ZeroedBlock(Arena* arena, size_t size) {
  void* block = arena->AllocateBlock(size);
  std::memset(block, 0, size);
  return block;
}

// A block of kMaxNativeSize bytes is its own size class, a power of two,
// and with its header it still fits a fresh arena at the default capacity.
static_assert((kMaxNativeSize & (kMaxNativeSize - 1)) == 0 &&
              kMaxNativeSize <= Arena::kDefaultCapacity / 2);

// Reads a loop's u32 element count under the checks that keep a malformed
// count from sizing storage: the bound, the wire bytes left (every element
// takes at least one) and, when `allocates`, kMaxNativeSize for the
// storage of that many elements.
[[gnu::always_inline]] inline bool GetCount(WireReader* r, const SpecOp& op,
                                            bool allocates, uint32_t* count,
                                            Status* end) {
  if (!Get(r->GetU32(), count, end)) {
    return false;
  }
  if (op.bound != 0 && *count > op.bound) {
    return End(end, DataLossError(StrFormat(
                        "wire sequence length %u exceeds bound %u", *count,
                        op.bound)));
  }
  if (*count > r->remaining()) {
    return End(end, DataLossError(StrFormat(
                        "wire sequence length %u exceeds the %zu bytes left",
                        *count, r->remaining())));
  }
  if (allocates && uint64_t{*count} * op.stride > kMaxNativeSize) {
    return End(end, ResourceExhaustedError(StrFormat(
                        "wire sequence length %u needs %llu bytes of "
                        "storage, past the %u-byte limit",
                        *count,
                        static_cast<unsigned long long>(uint64_t{*count} *
                                                        op.stride),
                        kMaxNativeSize)));
  }
  return true;
}

}  // namespace spec_internal

// The branch ops' one definition: how many of the ops after `op` the
// stream skips. A union compiles to its discriminant op, then per arm a
// kArm, the arm's ops and a kArmEnd past the remaining arms, then the
// default arm's ops or kNoArm. Zero for every other kind.
[[gnu::always_inline]] inline uint32_t SkippedOps(
    const SpecOp& op, const ArgVec& args, const SpecLoop* loops = nullptr) {
  switch (op.kind) {
    case SpecOpKind::kArm:
      return spec_internal::Disc(op, args, loops) == op.label ? 0 : op.count;
    case SpecOpKind::kArmEnd:
      return op.count;
    default:
      return 0;
  }
}

// The loop back-edge's one definition (kLoopEnd): the loop at `op.depth`
// moves on to its next element. Its body runs again while
// `loops[op.depth].left` is not 0, as it first runs only if kLoop left it
// so.
[[gnu::always_inline]] inline void NextElement(const SpecOp& op,
                                               SpecLoop* loops) {
  SpecLoop& loop = loops[op.depth];
  loop.elem += op.stride;
  --loop.left;
}

// Each step returns true when its stream goes on (a branch op's step and
// a back-edge's do nothing: SkippedOps and NextElement are their
// definitions). Otherwise it has ended the stream, and `*end` holds the
// stream's status: an error, or OK when a union discriminant selected one
// of the void alternate arms. `loops` holds the stream's loops, one per
// nesting level; a stream without loops may pass none.
[[gnu::always_inline]] inline bool MarshalStep(const SpecOp& op,
                                               const ArgVec& args,
                                               WireWriter* w,
                                               const SpecialOps* special,
                                               Status* end,
                                               SpecLoop* loops = nullptr) {
  using spec_internal::End;
  const ArgValue& slot = args[static_cast<size_t>(op.slot)];
  const bool use_special =
      op.special && special != nullptr && special->copy_out != nullptr;
  // A byte run moves through the [special] routine when one applies.
  auto put_run = [&](const void* src, uint32_t n) {
    if (use_special) {
      special->copy_out(w->ReserveBytes(n), src, n);
    } else {
      w->PutBytes(src, n);
    }
  };
  switch (op.kind) {
    case SpecOpKind::kPutScalarSlot:
      spec_internal::PutScalar(w, op.width, slot.scalar);
      return true;
    case SpecOpKind::kPutScalarMem: {
      uint64_t bits = 0;
      std::memcpy(&bits, spec_internal::Mem(op, args, loops), op.width);
      spec_internal::PutScalar(w, op.width, bits);
      return true;
    }
    case SpecOpKind::kPutBytesFixed:
      put_run(spec_internal::Mem(op, args, loops), op.count);
      return true;
    case SpecOpKind::kPutSeqBytes:
    case SpecOpKind::kPutString:
    case SpecOpKind::kPutSeqBytesMem:
    case SpecOpKind::kPutStringMem: {
      const void* src = slot.ptr();
      uint32_t len;
      if (op.kind == SpecOpKind::kPutSeqBytesMem) {
        SeqRep rep;
        std::memcpy(&rep, spec_internal::Mem(op, args, loops), sizeof(rep));
        src = rep.buffer;
        len = rep.length;
      } else if (op.kind == SpecOpKind::kPutStringMem) {
        const char* s;
        std::memcpy(&s, spec_internal::Mem(op, args, loops), sizeof(s));
        src = s;
        len = spec_internal::StrLen(s);
      } else {
        len = spec_internal::MarshalLength(op, args);
      }
      const bool string = op.kind == SpecOpKind::kPutString ||
                          op.kind == SpecOpKind::kPutStringMem;
      if (!spec_internal::PutBound(op, len, string ? "string" : "sequence",
                                   end)) {
        return false;
      }
      w->PutU32(len);
      put_run(src, len);
      return true;
    }
    case SpecOpKind::kPutUnionDisc: {
      const auto disc = static_cast<uint32_t>(slot.scalar);
      w->PutU32(disc);
      if (disc != op.label) {
        return End(end, Status::Ok());  // alternate arms are void
      }
      return true;
    }
    case SpecOpKind::kLoop: {
      uint8_t* elems;
      uint32_t n = op.bound;
      if (op.len_src == SpecLenSource::kConstant) {
        elems = spec_internal::Mem(op, args, loops);
      } else if (op.len_src == SpecLenSource::kSeqRep) {
        SeqRep rep;
        std::memcpy(&rep, spec_internal::Mem(op, args, loops), sizeof(rep));
        elems = static_cast<uint8_t*>(rep.buffer);
        n = rep.length;
      } else {
        // A top-level sequence travels unpacked: its elements at the
        // slot's pointer, its count from `len_src`.
        elems = static_cast<uint8_t*>(slot.ptr());
        n = spec_internal::MarshalLength(op, args);
      }
      if (op.len_src != SpecLenSource::kConstant) {
        if (!spec_internal::PutBound(op, n, "sequence", end)) {
          return false;
        }
        w->PutU32(n);
      }
      loops[op.depth] = SpecLoop{elems, n};
      return true;
    }
    case SpecOpKind::kArm:
    case SpecOpKind::kArmEnd:
    case SpecOpKind::kLoopEnd:
      return true;
    case SpecOpKind::kNoArm:
      return End(end, InvalidArgumentError(StrFormat(
                          "union discriminant %u matches no arm",
                          spec_internal::Disc(op, args, loops))));
    default:
      return End(end, InternalError("unmarshal opcode in a marshal stream"));
  }
}

[[gnu::always_inline]] inline bool UnmarshalStep(
    const SpecOp& op, WireReader* r, Arena* arena, ArgVec* args,
    const SpecialOps* special, bool borrow_bytes, Status* end,
    SpecLoop* loops = nullptr) {
  using spec_internal::End;
  using spec_internal::Get;
  ArgValue* slot = &(*args)[static_cast<size_t>(op.slot)];
  const bool use_special =
      op.special && special != nullptr && special->copy_in != nullptr;
  // A byte run moves through the [special] routine when one applies.
  auto copy_run = [&](void* dest, const uint8_t* bytes, uint32_t n) {
    if (use_special) {
      special->copy_in(dest, bytes, n);
    } else {
      std::memcpy(dest, bytes, n);
    }
  };
  uint32_t len = 0;
  const uint8_t* bytes = nullptr;
  switch (op.kind) {
    case SpecOpKind::kEnsureStorage:
      if (slot->ptr() == nullptr) {
        slot->set_ptr(spec_internal::ZeroedBlock(arena, op.count));
      }
      return true;
    case SpecOpKind::kGetScalarSlot:
    case SpecOpKind::kGetScalarMem: {
      uint64_t bits = 0;
      if (!spec_internal::GetScalar(r, op.width, &bits, end)) {
        return false;
      }
      if (op.kind == SpecOpKind::kGetScalarSlot) {
        slot->scalar = bits;
      } else {
        std::memcpy(spec_internal::Mem(op, *args, loops), &bits, op.width);
      }
      return true;
    }
    case SpecOpKind::kGetBytesFixed:
      if (!Get(r->GetBytes(op.count), &bytes, end)) {
        return false;
      }
      copy_run(spec_internal::Mem(op, *args, loops), bytes, op.count);
      return true;
    case SpecOpKind::kGetSeqBytes: {
      void* dest = slot->ptr();
      if (!spec_internal::GetRun(r, op, "sequence", &len, &bytes, end)) {
        return false;
      }
      if (borrow_bytes && dest == nullptr && !use_special) {
        slot->set_ptr(bytes);
        slot->length = len;
        slot->borrowed = true;
        return true;
      }
      if (dest != nullptr) {
        if (slot->capacity < len) {
          return End(end, ResourceExhaustedError(StrFormat(
                              "caller buffer (%u bytes) too small for "
                              "%u-byte sequence",
                              slot->capacity, len)));
        }
      } else {
        dest = arena->AllocateBlock(len > 0 ? len : 1);
        slot->set_ptr(dest);
      }
      copy_run(dest, bytes, len);
      slot->length = len;
      return true;
    }
    case SpecOpKind::kGetString: {
      auto* dest = static_cast<char*>(slot->ptr());
      if (!spec_internal::GetRun(r, op, "string", &len, &bytes, end)) {
        return false;
      }
      if (dest != nullptr) {
        if (slot->capacity < len + 1) {
          return End(end, ResourceExhaustedError(StrFormat(
                              "caller buffer (%u bytes) too small for "
                              "%u-byte string",
                              slot->capacity, len)));
        }
      } else {
        dest = static_cast<char*>(arena->AllocateBlock(len + 1));
        slot->set_ptr(dest);
      }
      copy_run(dest, bytes, len);
      dest[len] = '\0';
      slot->length = len;
      return true;
    }
    case SpecOpKind::kGetSeqBytesMem: {
      if (!spec_internal::GetRun(r, op, "sequence", &len, &bytes, end)) {
        return false;
      }
      // Always a copy in a new arena block, never a borrow or a caller
      // buffer.
      SeqRep rep{len, len, arena->AllocateBlock(len > 0 ? len : 1)};
      std::memcpy(rep.buffer, bytes, len);
      std::memcpy(spec_internal::Mem(op, *args, loops), &rep, sizeof(rep));
      return true;
    }
    case SpecOpKind::kGetStringMem: {
      if (!spec_internal::GetRun(r, op, "string", &len, &bytes, end)) {
        return false;
      }
      // Always a copy in a new arena block, as kGetSeqBytesMem's bytes.
      auto* s = static_cast<char*>(arena->AllocateBlock(len + 1));
      std::memcpy(s, bytes, len);
      s[len] = '\0';
      std::memcpy(spec_internal::Mem(op, *args, loops), &s, sizeof(s));
      return true;
    }
    case SpecOpKind::kGetUnionDisc: {
      uint32_t disc = 0;
      if (!Get(r->GetU32(), &disc, end)) {
        return false;
      }
      slot->scalar = disc;
      if (disc != op.label) {
        return End(end, Status::Ok());
      }
      return true;
    }
    case SpecOpKind::kLoop: {
      // An array's elements are in place; a sequence's count comes off the
      // wire, and its storage is a caller buffer ([alloc(user)], a top-
      // level slot that already holds a pointer) or a new zeroed arena
      // block. The count, or the nested SeqRep, is stored before any
      // element is read, so a release after a failed element frees the
      // elements read.
      uint8_t* elems;
      uint32_t n = op.bound;
      if (op.len_src == SpecLenSource::kConstant) {
        elems = spec_internal::Mem(op, *args, loops);
      } else {
        const bool caller_buffer = op.len_src != SpecLenSource::kSeqRep &&
                                   slot->ptr() != nullptr;
        if (!spec_internal::GetCount(r, op, !caller_buffer, &n, end)) {
          return false;
        }
        if (caller_buffer && slot->capacity < n) {
          return End(end, ResourceExhaustedError(
                              "caller buffer too small for sequence"));
        }
        elems = static_cast<uint8_t*>(
            caller_buffer ? slot->ptr()
                          : spec_internal::ZeroedBlock(
                                arena, n > 0 ? size_t{n} * op.stride : 1));
        if (op.len_src == SpecLenSource::kSeqRep) {
          const SeqRep rep{n, n, elems};
          std::memcpy(spec_internal::Mem(op, *args, loops), &rep,
                      sizeof(rep));
        } else {
          slot->set_ptr(elems);
          slot->length = n;
        }
      }
      loops[op.depth] = SpecLoop{elems, n};
      return true;
    }
    case SpecOpKind::kArm:
    case SpecOpKind::kArmEnd:
    case SpecOpKind::kLoopEnd:
      return true;
    case SpecOpKind::kNoArm:
      return End(end, DataLossError(StrFormat(
                          "wire union discriminant %u matches no arm",
                          spec_internal::Disc(op, *args, loops))));
    default:
      return End(end, InternalError("marshal opcode in an unmarshal stream"));
  }
}

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_
