// XDR (RFC 1014) wire format, as used by Sun RPC.
//
// Every item occupies a multiple of 4 bytes; integers are big-endian;
// 8/16-bit scalars are widened to 32 bits; opaque byte runs are padded
// with zeros to the next 4-byte boundary.
//
// Both classes are final and defined here in full, so every caller that
// holds the concrete type inlines each word: the SunRPC header codec, the
// NFS server, the hand-coded stubs, and the marshal engine's steps, which
// it instantiates for each concrete codec (spec_ops.h). A fixed-size run
// (AppendFixed/TakeFixed, StoreScalar/LoadScalar) checks its space once
// and then moves each word at a pointer.

#ifndef FLEXRPC_SRC_MARSHAL_XDR_H_
#define FLEXRPC_SRC_MARSHAL_XDR_H_

#include <bit>
#include <cstring>
#include <vector>

#include "src/marshal/format.h"

namespace flexrpc {

inline size_t XdrPadTo4(size_t n) { return (n + 3) & ~size_t{3}; }

// A big-endian 32-bit word at `p`.
inline void XdrStore32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}
inline uint32_t XdrLoad32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

// A message is one ByteWriter buffer: one allocation when the writer is
// sized first (Reserve), otherwise a first growth of
// ByteWriter::kFirstGrowth bytes, which holds a SunRPC call and its NFS read
// arguments.
class XdrWriter final : public WireWriter {
 public:
  static constexpr WireFormat kFormat = WireFormat::kXdr;

  XdrWriter() : WireWriter(kFormat) {}

  void PutU8(uint8_t v) override { PutU32(v); }
  void PutU16(uint16_t v) override { PutU32(v); }
  void PutU32(uint32_t v) override { out_.WriteU32Be(v); }
  void PutU64(uint64_t v) override { out_.WriteU64Be(v); }
  void PutBytes(const void* src, size_t n) override {
    out_.WriteBytes(src, n);
    out_.WriteZeros(XdrPadTo4(n) - n);
  }
  uint8_t* ReserveBytes(size_t n) override {
    size_t padded = XdrPadTo4(n);
    uint8_t* p = out_.Append(padded);
    if (padded != n) {  // an empty writer's Append(0) is null
      std::memset(p + n, 0, padded - n);
    }
    return p;
  }
  size_t size() const override { return out_.size(); }
  ByteSpan span() const override { return out_.span(); }
  void Clear() override { out_.Clear(); }

  // Appends the `n` bytes of a fixed-size run (padding included) for the
  // caller to fill, every byte of them, and returns where they start.
  [[gnu::always_inline]] uint8_t* AppendFixed(size_t n) {
    return out_.Append(n);
  }
  // Stores a scalar `width` bytes wide at `p`, as PutU8/16/32/64 write it.
  [[gnu::always_inline]] static void StoreScalar(uint8_t* p, unsigned width,
                                                 uint64_t bits) {
    switch (width) {
      case 1:
        XdrStore32(p, static_cast<uint8_t>(bits));
        return;
      case 2:
        XdrStore32(p, static_cast<uint16_t>(bits));
        return;
      case 4:
        XdrStore32(p, static_cast<uint32_t>(bits));
        return;
      default:
        XdrStore32(p, static_cast<uint32_t>(bits >> 32));
        XdrStore32(p + 4, static_cast<uint32_t>(bits));
        return;
    }
  }

  // Makes room for `more` bytes, so writing them makes no allocation.
  void Reserve(size_t more) { out_.Reserve(more); }
  // Hands over the message in the writer's own allocation.
  std::vector<uint8_t> TakeBuffer() { return out_.TakeBuffer(); }

 private:
  ByteWriter out_;
};

class XdrReader final : public WireReader {
 public:
  static constexpr WireFormat kFormat = WireFormat::kXdr;

  explicit XdrReader(ByteSpan data) : WireReader(kFormat), data_(data) {}

  Result<uint8_t> GetU8() override {
    FLEXRPC_ASSIGN_OR_RETURN(uint32_t v, GetU32());
    return static_cast<uint8_t>(v);
  }
  Result<uint16_t> GetU16() override {
    FLEXRPC_ASSIGN_OR_RETURN(uint32_t v, GetU32());
    return static_cast<uint16_t>(v);
  }
  Result<uint32_t> GetU32() override {
    if (remaining() < 4) {
      return DataLossError("XDR stream truncated reading u32");
    }
    const uint8_t* p = data_.data() + pos_;
    pos_ += 4;
    return XdrLoad32(p);
  }
  Result<uint64_t> GetU64() override {
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t hi, GetU32());
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t lo, GetU32());
    return (hi << 32) | lo;
  }
  Result<const uint8_t*> GetBytes(size_t n) override {
    size_t padded = XdrPadTo4(n);
    if (remaining() < padded) {
      return DataLossError("XDR stream truncated reading opaque bytes");
    }
    const uint8_t* p = data_.data() + pos_;
    pos_ += padded;
    return p;
  }
  size_t remaining() const override { return data_.size() - pos_; }

  // Consumes the `n` bytes of a fixed-size run (padding included) and
  // returns where they start; null, consuming nothing, when fewer are left.
  [[gnu::always_inline]] const uint8_t* TakeFixed(size_t n) {
    if (remaining() < n) {
      return nullptr;
    }
    const uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  // The scalar `width` bytes wide at `p`, as GetU8/16/32/64 read it.
  [[gnu::always_inline]] static uint64_t LoadScalar(const uint8_t* p,
                                                    unsigned width) {
    switch (width) {
      case 1:
        return static_cast<uint8_t>(XdrLoad32(p));
      case 2:
        return static_cast<uint16_t>(XdrLoad32(p));
      case 4:
        return XdrLoad32(p);
      default:
        return uint64_t{XdrLoad32(p)} << 32 | XdrLoad32(p + 4);
    }
  }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_XDR_H_
