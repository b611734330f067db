// flexspec opcodes: each op's one definition.
//
// A SpecOp (engine.h) is one instruction of a compiled marshal stream: its
// kind plus constant operands. MarshalStep, UnmarshalStep and ReleaseStep
// define what each kind does to the wire, the ArgVec, the arena and the
// loops' base registers; SkippedOps defines the branch ops (a union's arm
// selection, a release's ownership guard) and NextElement a loop's
// back-edge, and nothing else does: the reference executor
// (RunSpecMarshal/RunSpecUnmarshal/RunSpecRelease, spec.h) loops over them,
// and `idlc --specialize` emits one step call per op with the op written
// out as a literal, each branch op as a forward `goto` and each loop as a
// `for`. All of them are forced inline, so in generated code the kind
// switch and every operand fold to constants, and the stream runs with no
// table walk and no indirect jump.
//
// The marshal and unmarshal steps are templates over the concrete codec
// (XdrWriter/NativeWriter, XdrReader/NativeReader, all final): a stream
// tests the wire's format once (OnCodec) and runs its instantiation, so
// every word inlines. A kRun op checks the space of the fixed-width ops
// after it once; they then store or load their words at the stream's run
// pointer, with no per-word check and no Result.

#ifndef FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_
#define FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "src/marshal/engine.h"
#include "src/marshal/format.h"
#include "src/marshal/layout.h"
#include "src/marshal/native.h"
#include "src/marshal/xdr.h"
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

// Calls `fn` with the concrete codec behind `w` or `r`. The format tag
// picks the class, and XdrWriter/NativeWriter and XdrReader/NativeReader
// are the only ones, so a stream instantiated for each runs with every
// word inlined.
template <typename Fn>
[[gnu::always_inline]] inline auto OnCodec(WireWriter* w, Fn&& fn) {
  if (w->format() == WireFormat::kXdr) {
    return fn(static_cast<XdrWriter*>(w));
  }
  return fn(static_cast<NativeWriter*>(w));
}
template <typename Fn>
[[gnu::always_inline]] inline auto OnCodec(WireReader* r, Fn&& fn) {
  if (r->format() == WireFormat::kXdr) {
    return fn(static_cast<XdrReader*>(r));
  }
  return fn(static_cast<NativeReader*>(r));
}

namespace spec_internal {

// Ends the stream with `status`.
[[gnu::always_inline]] inline bool End(Status* end, Status status) {
  *end = std::move(status);
  return false;
}

// Ends the stream with a failed read's error. Cold and out of line, like
// the short-read paths below that reach it.
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

template <typename R>
[[gnu::always_inline]] inline bool GetScalar(R* r, uint8_t width,
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

// What a cold read gives back: the value, or false when it ended the
// stream. Returned by value, so the hot path keeps the value in a
// register.
template <typename T>
struct ColdRead {
  T value;
  bool ok;
};

// A read the space check found too short runs one op at a time, as a
// stream without runs would: the first op short of bytes ends the stream
// with the reader's own error, and the ops before it have their effect.
template <typename R>
[[gnu::cold, gnu::noinline]] ColdRead<uint64_t> ShortScalar(R* r,
                                                           uint8_t width,
                                                           Status* end) {
  uint64_t bits = 0;
  const bool ok = GetScalar(r, width, &bits, end);
  return {bits, ok};
}
template <typename R>
[[gnu::cold, gnu::noinline]] ColdRead<const uint8_t*> ShortBytes(
    R* r, uint32_t n, Status* end) {
  const uint8_t* bytes = nullptr;
  const bool ok = Get(r->GetBytes(n), &bytes, end);
  return {bytes, ok};
}

// A fixed-width op's scalar, read at the run pointer, which moves past it.
template <typename R>
[[gnu::always_inline]] inline bool GetFixedScalar(R* r, const uint8_t** run,
                                                  uint8_t width,
                                                  uint64_t* bits,
                                                  Status* end) {
  if (*run == nullptr) [[unlikely]] {
    const ColdRead<uint64_t> read = ShortScalar(r, width, end);
    *bits = read.value;
    return read.ok;
  }
  *bits = R::LoadScalar(*run, width);
  *run += WireScalarBytes(R::kFormat, width);
  return true;
}

// A fixed byte run's bytes at the run pointer, which moves past them and
// their padding.
template <typename R>
[[gnu::always_inline]] inline bool GetFixedBytes(R* r, const uint8_t** run,
                                                 uint32_t n,
                                                 const uint8_t** bytes,
                                                 Status* end) {
  if (*run == nullptr) [[unlikely]] {
    const ColdRead<const uint8_t*> read = ShortBytes(r, n, end);
    *bytes = read.value;
    return read.ok;
  }
  *bytes = *run;
  *run += WireRunBytes(R::kFormat, n);
  return true;
}

// A u32 outside any run (a length, a loop's count) and a byte run of a
// length read off the wire: each checks its own space, and short input
// fails as GetU32 and GetBytes fail.
template <typename R>
[[gnu::always_inline]] inline bool GetWord(R* r, uint32_t* v, Status* end) {
  const uint8_t* p = r->TakeFixed(4);
  if (p == nullptr) [[unlikely]] {
    const ColdRead<uint64_t> read = ShortScalar(r, 4, end);
    *v = static_cast<uint32_t>(read.value);
    return read.ok;
  }
  *v = static_cast<uint32_t>(R::LoadScalar(p, 4));
  return true;
}
template <typename R>
[[gnu::always_inline]] inline bool GetRunOf(R* r, uint32_t n,
                                            const uint8_t** bytes,
                                            Status* end) {
  const uint8_t* run = r->TakeFixed(WireRunBytes(R::kFormat, n));
  return GetFixedBytes(r, &run, n, bytes, end);
}

// Writes a scalar at the run pointer, which moves past it.
template <typename W>
[[gnu::always_inline]] inline void PutFixedScalar(uint8_t** run,
                                                  uint8_t width,
                                                  uint64_t bits) {
  W::StoreScalar(*run, width, bits);
  *run += WireScalarBytes(W::kFormat, width);
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
template <typename R>
[[gnu::always_inline]] inline bool GetVarRun(R* r, const SpecOp& op,
                                             const char* what, uint32_t* len,
                                             const uint8_t** bytes,
                                             Status* end) {
  if (!GetWord(r, len, end)) {
    return false;
  }
  if (op.bound != 0 && *len > op.bound) {
    return End(end, DataLossError(StrFormat(
                        "wire %s length %u exceeds bound %u", what, *len,
                        op.bound)));
  }
  return GetRunOf(r, *len, bytes, end);
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

// The elements of the loop `op` opens over a value in memory or a slot:
// an array's in place, a nested sequence's from its SeqRep, a top-level
// sequence's at the slot's pointer with its count from `len_src`.
[[gnu::always_inline]] inline SpecLoop LoopInMemory(const SpecOp& op,
                                                    const ArgVec& args,
                                                    const SpecLoop* loops) {
  if (op.len_src == SpecLenSource::kConstant) {
    return SpecLoop{Mem(op, args, loops), op.bound};
  }
  if (op.len_src == SpecLenSource::kSeqRep) {
    SeqRep rep;
    std::memcpy(&rep, Mem(op, args, loops), sizeof(rep));
    return SpecLoop{static_cast<uint8_t*>(rep.buffer), rep.length};
  }
  return SpecLoop{
      static_cast<uint8_t*>(args[static_cast<size_t>(op.slot)].ptr()),
      MarshalLength(op, args)};
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

// Ends the stream: the arena cannot hold a block the input asks for.
[[gnu::cold, gnu::noinline]] inline bool EndArenaFull(const Arena* arena,
                                                      size_t size,
                                                      Status* end) {
  return End(end, ResourceExhaustedError(StrFormat(
                      "arena '%s' cannot hold a %zu-byte block",
                      arena->name().c_str(), size)));
}

// Every block an unmarshal step allocates comes from here: null, with the
// stream ended RESOURCE_EXHAUSTED, when the arena's capacity cannot hold
// it. A `zeroed` block lets a release after a failed read find null
// pointers wherever nothing was read.
[[gnu::always_inline]] inline void* NewBlock(Arena* arena, size_t size,
                                             bool zeroed, Status* end) {
  void* block = arena->TryAllocateBlock(size);
  if (block == nullptr) [[unlikely]] {
    EndArenaFull(arena, size, end);
    return nullptr;
  }
  if (zeroed) {
    std::memset(block, 0, size);
  }
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
template <typename R>
[[gnu::always_inline]] inline bool GetCount(R* r, const SpecOp& op,
                                            bool allocates, uint32_t* count,
                                            Status* end) {
  if (!GetWord(r, count, end)) {
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

// Whether a release frees `slot`'s storage (kFreeGuard, kFreeSlot): after
// an unmarshal (`donated` false) a block the unmarshal allocated; in
// MarshalReply's epilogue (`donated` true) whatever a [dealloc(always)]
// operand holds that is not a view of the request message.
[[gnu::always_inline]] inline bool FreesSlot(const SpecOp& op,
                                             const ArgValue& slot,
                                             bool donated) {
  if (donated) {
    return op.donated && slot.ptr() != nullptr && !slot.borrowed;
  }
  return slot.owned;
}

}  // namespace spec_internal

// The branch ops' one definition: how many of the ops after `op` the
// stream skips. A union compiles to its discriminant op, then per arm a
// kArm, the arm's ops and a kArmEnd past the remaining arms, then the
// default arm's ops or kNoArm. A release's kFreeGuard skips a value it
// does not free. Zero for every other kind.
[[gnu::always_inline]] inline uint32_t SkippedOps(
    const SpecOp& op, const ArgVec& args, const SpecLoop* loops = nullptr,
    bool donated = false) {
  switch (op.kind) {
    case SpecOpKind::kArm:
      return spec_internal::Disc(op, args, loops) == op.label ? 0 : op.count;
    case SpecOpKind::kArmEnd:
      return op.count;
    case SpecOpKind::kFreeGuard:
      return spec_internal::FreesSlot(
                 op, args[static_cast<size_t>(op.slot)], donated)
                 ? 0
                 : op.count;
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
// of the void alternate arms. `run` is the stream's run pointer, which
// each kRun sets; `loops` holds the stream's loops, one per nesting level;
// a stream without loops may pass none.
template <typename W>
[[gnu::always_inline]] inline bool MarshalStep(const SpecOp& op,
                                               const ArgVec& args, W* w,
                                               const SpecialOps* special,
                                               uint8_t** run, Status* end,
                                               SpecLoop* loops = nullptr) {
  using spec_internal::End;
  if (op.kind == SpecOpKind::kRun) {
    *run = w->AppendFixed(op.run_bytes[static_cast<size_t>(W::kFormat)]);
    return true;
  }
  const ArgValue& slot = args[static_cast<size_t>(op.slot)];
  const bool use_special =
      op.special && special != nullptr && special->copy_out != nullptr;
  switch (op.kind) {
    case SpecOpKind::kPutScalarSlot:
      spec_internal::PutFixedScalar<W>(run, op.width, slot.scalar);
      return true;
    case SpecOpKind::kPutScalarMem: {
      uint64_t bits = 0;
      std::memcpy(&bits, spec_internal::Mem(op, args, loops), op.width);
      spec_internal::PutFixedScalar<W>(run, op.width, bits);
      return true;
    }
    case SpecOpKind::kPutBytesFixed: {
      // The run's bytes, then zeros to the format's padding, as PutBytes
      // writes them.
      uint8_t* p = *run;
      const void* src = spec_internal::Mem(op, args, loops);
      if (use_special) {
        special->copy_out(p, src, op.count);
      } else {
        std::memcpy(p, src, op.count);
      }
      const size_t padded = WireRunBytes(W::kFormat, op.count);
      std::memset(p + op.count, 0, padded - op.count);
      *run += padded;
      return true;
    }
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
      // A byte run moves through the [special] routine when one applies.
      if (use_special) {
        special->copy_out(w->ReserveBytes(len), src, len);
      } else {
        w->PutBytes(src, len);
      }
      return true;
    }
    case SpecOpKind::kPutUnionDisc: {
      const auto disc = static_cast<uint32_t>(slot.scalar);
      spec_internal::PutFixedScalar<W>(run, 4, disc);
      if (disc != op.label) {
        return End(end, Status::Ok());  // alternate arms are void
      }
      return true;
    }
    case SpecOpKind::kLoop: {
      const SpecLoop loop = spec_internal::LoopInMemory(op, args, loops);
      if (op.len_src != SpecLenSource::kConstant) {
        if (!spec_internal::PutBound(op, loop.left, "sequence", end)) {
          return false;
        }
        w->PutU32(loop.left);
      }
      loops[op.depth] = loop;
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

template <typename R>
[[gnu::always_inline]] inline bool UnmarshalStep(
    const SpecOp& op, R* r, Arena* arena, ArgVec* args,
    const SpecialOps* special, bool borrow_bytes, const uint8_t** run,
    Status* end, SpecLoop* loops = nullptr) {
  using spec_internal::End;
  if (op.kind == SpecOpKind::kRun) {
    // Null when the input is short: the run's ops then read one at a time.
    *run = r->TakeFixed(op.run_bytes[static_cast<size_t>(R::kFormat)]);
    return true;
  }
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
  // A new arena block, which the slot then owns.
  auto own_block = [&](size_t size, bool zeroed) {
    void* block = spec_internal::NewBlock(arena, size, zeroed, end);
    if (block != nullptr) {
      slot->set_ptr(block);
      slot->owned = true;
    }
    return block;
  };
  uint32_t len = 0;
  const uint8_t* bytes = nullptr;
  switch (op.kind) {
    case SpecOpKind::kEnsureStorage:
      return slot->ptr() != nullptr || own_block(op.count, true) != nullptr;
    case SpecOpKind::kGetScalarSlot:
    case SpecOpKind::kGetScalarMem: {
      uint64_t bits = 0;
      if (!spec_internal::GetFixedScalar(r, run, op.width, &bits, end)) {
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
      if (!spec_internal::GetFixedBytes(r, run, op.count, &bytes, end)) {
        return false;
      }
      copy_run(spec_internal::Mem(op, *args, loops), bytes, op.count);
      return true;
    case SpecOpKind::kGetSeqBytes: {
      void* dest = slot->ptr();
      if (!spec_internal::GetVarRun(r, op, "sequence", &len, &bytes, end)) {
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
      } else if ((dest = own_block(len > 0 ? len : 1, false)) == nullptr) {
        return false;
      }
      copy_run(dest, bytes, len);
      slot->length = len;
      return true;
    }
    case SpecOpKind::kGetString: {
      auto* dest = static_cast<char*>(slot->ptr());
      if (!spec_internal::GetVarRun(r, op, "string", &len, &bytes, end)) {
        return false;
      }
      if (dest != nullptr) {
        if (slot->capacity < len + 1) {
          return End(end, ResourceExhaustedError(StrFormat(
                              "caller buffer (%u bytes) too small for "
                              "%u-byte string",
                              slot->capacity, len)));
        }
      } else if ((dest = static_cast<char*>(own_block(len + 1, false))) ==
                 nullptr) {
        return false;
      }
      copy_run(dest, bytes, len);
      dest[len] = '\0';
      slot->length = len;
      return true;
    }
    case SpecOpKind::kGetSeqBytesMem: {
      if (!spec_internal::GetVarRun(r, op, "sequence", &len, &bytes, end)) {
        return false;
      }
      // Always a copy in a new arena block, never a borrow or a caller
      // buffer.
      SeqRep rep{len, len,
                 spec_internal::NewBlock(arena, len > 0 ? len : 1, false,
                                         end)};
      if (rep.buffer == nullptr) {
        return false;
      }
      std::memcpy(rep.buffer, bytes, len);
      std::memcpy(spec_internal::Mem(op, *args, loops), &rep, sizeof(rep));
      return true;
    }
    case SpecOpKind::kGetStringMem: {
      if (!spec_internal::GetVarRun(r, op, "string", &len, &bytes, end)) {
        return false;
      }
      // Always a copy in a new arena block, as kGetSeqBytesMem's bytes.
      auto* s = static_cast<char*>(
          spec_internal::NewBlock(arena, len + 1, false, end));
      if (s == nullptr) {
        return false;
      }
      std::memcpy(s, bytes, len);
      s[len] = '\0';
      std::memcpy(spec_internal::Mem(op, *args, loops), &s, sizeof(s));
      return true;
    }
    case SpecOpKind::kGetUnionDisc: {
      uint64_t disc = 0;
      if (!spec_internal::GetFixedScalar(r, run, 4, &disc, end)) {
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
        const bool nested = op.len_src == SpecLenSource::kSeqRep;
        const bool caller_buffer = !nested && slot->ptr() != nullptr;
        if (!spec_internal::GetCount(r, op, !caller_buffer, &n, end)) {
          return false;
        }
        if (caller_buffer && slot->capacity < n) {
          return End(end, ResourceExhaustedError(
                              "caller buffer too small for sequence"));
        }
        const size_t size = n > 0 ? size_t{n} * op.stride : 1;
        elems = static_cast<uint8_t*>(
            caller_buffer ? slot->ptr()
            : nested      ? spec_internal::NewBlock(arena, size, true, end)
                          : own_block(size, true));
        if (elems == nullptr) {
          return false;
        }
        if (nested) {
          const SeqRep rep{n, n, elems};
          std::memcpy(spec_internal::Mem(op, *args, loops), &rep,
                      sizeof(rep));
        } else {
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

// A release stream frees what its side's unmarshal allocated (`donated`
// false), or, after MarshalReply, every [dealloc(always)] operand
// (`donated` true): blocks nested in a value first, then the value's own.
// It walks the unmarshal's loops and arms over the values in memory, and
// never fails.
[[gnu::always_inline]] inline void ReleaseStep(const SpecOp& op,
                                               Arena* arena, ArgVec* args,
                                               bool donated,
                                               SpecLoop* loops = nullptr) {
  switch (op.kind) {
    case SpecOpKind::kFreeSlot: {
      ArgValue& slot = (*args)[static_cast<size_t>(op.slot)];
      if (spec_internal::FreesSlot(op, slot, donated)) {
        arena->FreeBlock(slot.ptr());
        slot.set_ptr(nullptr);
        slot.owned = false;
      } else if (slot.borrowed && (op.donated || !donated)) {
        slot.set_ptr(nullptr);
        slot.borrowed = false;
      }
      return;
    }
    case SpecOpKind::kFreeMem: {
      void* block;
      std::memcpy(&block, spec_internal::Mem(op, *args, loops),
                  sizeof(block));
      arena->FreeBlock(block);
      return;
    }
    case SpecOpKind::kLoop:
      loops[op.depth] = spec_internal::LoopInMemory(op, *args, loops);
      return;
    default:  // the branches and the back-edge
      return;
  }
}

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_SPEC_OPS_H_
