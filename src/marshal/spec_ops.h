// flexspec opcodes: each op's one definition.
//
// A SpecOp (engine.h) is one instruction of a compiled marshal stream: its
// kind plus constant operands. MarshalStep and UnmarshalStep define what
// each kind does to the wire and the ArgVec, and SkippedOps defines the
// branch ops (a union's arm selection), and nothing else does: the
// reference executor (RunSpecMarshal/RunSpecUnmarshal, spec.h) loops over
// them, and `idlc --specialize` emits one step call per op with the op
// written out as a literal, and each branch op as a forward `goto`. All
// three are forced inline, so in generated code the kind switch and every
// operand fold to constants and the stream runs straight-line, with no
// loop and no table walk.

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

// The value ops' bodies, kept out of line: each hands one whole value to
// MarshalValue/UnmarshalValue (value.h), which recurse over its type. The
// reference executor runs them; generated code never contains them.
Status PutValueOp(const SpecOp& op, const ArgVec& args, WireWriter* w);
Status GetValueOp(const SpecOp& op, WireReader* r, Arena* arena,
                  ArgVec* args);

namespace spec_internal {

// Ends the stream with `status`.
[[gnu::always_inline]] inline bool End(Status* end, Status status) {
  *end = std::move(status);
  return false;
}

// Goes on after `status` is OK; otherwise ends the stream with it.
[[gnu::always_inline]] inline bool Continue(Status status, Status* end) {
  return status.ok() || End(end, std::move(status));
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

// The u32 union discriminant at args[slot].ptr() + offset, which a branch
// op tests and kNoArm reports.
[[gnu::always_inline]] inline uint32_t Disc(const SpecOp& op,
                                            const ArgVec& args) {
  uint32_t disc;
  std::memcpy(&disc,
              static_cast<const uint8_t*>(
                  args[static_cast<size_t>(op.slot)].ptr()) +
                  op.offset,
              sizeof(disc));
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

[[gnu::always_inline]] inline uint32_t MarshalLength(const SpecOp& op,
                                                     const ArgVec& args) {
  switch (op.len_src) {
    case SpecLenSource::kSlotLength:
      return args[static_cast<size_t>(op.slot)].length;
    case SpecLenSource::kLenSlot:
      return static_cast<uint32_t>(
          args[static_cast<size_t>(op.len_slot)].scalar);
    case SpecLenSource::kStrLen: {
      const char* s = static_cast<const char*>(
          args[static_cast<size_t>(op.slot)].ptr());
      return s == nullptr ? 0 : static_cast<uint32_t>(std::strlen(s));
    }
  }
  return 0;
}

}  // namespace spec_internal

// The branch ops' one definition: how many of the ops after `op` the
// stream skips. A union compiles to its discriminant op, then per arm a
// kArm, the arm's ops and a kArmEnd past the remaining arms, then the
// default arm's ops or kNoArm. Zero for every other kind.
[[gnu::always_inline]] inline uint32_t SkippedOps(const SpecOp& op,
                                                  const ArgVec& args) {
  switch (op.kind) {
    case SpecOpKind::kArm:
      return spec_internal::Disc(op, args) == op.label ? 0 : op.count;
    case SpecOpKind::kArmEnd:
      return op.count;
    default:
      return 0;
  }
}

// Each step returns true when its stream goes on (a branch op's step does
// nothing: SkippedOps is its definition). Otherwise it has ended the
// stream, and `*end` holds the stream's status: an error, or OK when a
// union discriminant selected one of the void alternate arms.
[[gnu::always_inline]] inline bool MarshalStep(const SpecOp& op,
                                               const ArgVec& args,
                                               WireWriter* w,
                                               const SpecialOps* special,
                                               Status* end) {
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
      std::memcpy(&bits,
                  static_cast<const uint8_t*>(slot.ptr()) + op.offset,
                  op.width);
      spec_internal::PutScalar(w, op.width, bits);
      return true;
    }
    case SpecOpKind::kPutBytesFixed:
      put_run(static_cast<const uint8_t*>(slot.ptr()) + op.offset,
              op.count);
      return true;
    case SpecOpKind::kPutSeqBytes:
    case SpecOpKind::kPutString:
    case SpecOpKind::kPutSeqBytesMem: {
      const void* src = slot.ptr();
      uint32_t len;
      if (op.kind == SpecOpKind::kPutSeqBytesMem) {
        SeqRep rep;
        std::memcpy(&rep, static_cast<const uint8_t*>(src) + op.offset,
                    sizeof(rep));
        src = rep.buffer;
        len = rep.length;
      } else {
        len = spec_internal::MarshalLength(op, args);
      }
      if (op.bound != 0 && len > op.bound) {
        return End(end, InvalidArgumentError(StrFormat(
                            "%s length %u exceeds bound %u",
                            op.kind == SpecOpKind::kPutString ? "string"
                                                              : "sequence",
                            len, op.bound)));
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
    case SpecOpKind::kPutValue:
      return spec_internal::Continue(PutValueOp(op, args, w), end);
    case SpecOpKind::kArm:
    case SpecOpKind::kArmEnd:
      return true;
    case SpecOpKind::kNoArm:
      return End(end, InvalidArgumentError(StrFormat(
                          "union discriminant %u matches no arm",
                          spec_internal::Disc(op, args))));
    default:
      return End(end, InternalError("unmarshal opcode in a marshal stream"));
  }
}

[[gnu::always_inline]] inline bool UnmarshalStep(
    const SpecOp& op, WireReader* r, Arena* arena, ArgVec* args,
    const SpecialOps* special, bool borrow_bytes, Status* end) {
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
      // Zeroed, so a release after a failed read finds null pointers
      // wherever nothing was read.
      if (slot->ptr() == nullptr) {
        void* block = arena->AllocateBlock(op.count);
        std::memset(block, 0, op.count);
        slot->set_ptr(block);
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
        std::memcpy(static_cast<uint8_t*>(slot->ptr()) + op.offset, &bits,
                    op.width);
      }
      return true;
    }
    case SpecOpKind::kGetBytesFixed:
      if (!Get(r->GetBytes(op.count), &bytes, end)) {
        return false;
      }
      copy_run(static_cast<uint8_t*>(slot->ptr()) + op.offset, bytes,
               op.count);
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
      // As UnmarshalValue does: always a copy in a new arena block.
      SeqRep rep{len, len, arena->AllocateBlock(len > 0 ? len : 1)};
      std::memcpy(rep.buffer, bytes, len);
      std::memcpy(static_cast<uint8_t*>(slot->ptr()) + op.offset, &rep,
                  sizeof(rep));
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
    case SpecOpKind::kGetValue:
      return spec_internal::Continue(GetValueOp(op, r, arena, args), end);
    case SpecOpKind::kArm:
    case SpecOpKind::kArmEnd:
      return true;
    case SpecOpKind::kNoArm:
      return End(end, DataLossError(StrFormat(
                          "wire union discriminant %u matches no arm",
                          spec_internal::Disc(op, *args))));
    default:
      return End(end, InternalError("marshal opcode in an unmarshal stream"));
  }
}

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_
