// XDR (RFC 1014) wire format, as used by Sun RPC.
//
// Every item occupies a multiple of 4 bytes; integers are big-endian;
// 8/16-bit scalars are widened to 32 bits; opaque byte runs are padded
// with zeros to the next 4-byte boundary.
//
// Both classes are final and defined here in full, so a caller that holds
// the concrete type (the SunRPC header codec, the NFS server and the
// hand-coded stubs) inlines each word; the marshal engine reaches the same
// code through the WireWriter/WireReader interface.

#ifndef FLEXRPC_SRC_MARSHAL_XDR_H_
#define FLEXRPC_SRC_MARSHAL_XDR_H_

#include <cstring>
#include <vector>

#include "src/marshal/format.h"

namespace flexrpc {

inline size_t XdrPadTo4(size_t n) { return (n + 3) & ~size_t{3}; }

// A message is one ByteWriter buffer: one allocation when the writer is
// sized first (Reserve), otherwise a first growth of
// ByteWriter::kFirstGrowth bytes, which holds a SunRPC call and its NFS read
// arguments.
class XdrWriter final : public WireWriter {
 public:
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

  // Makes room for `more` bytes, so writing them makes no allocation.
  void Reserve(size_t more) { out_.Reserve(more); }
  // Hands over the message in the writer's own allocation.
  std::vector<uint8_t> TakeBuffer() { return out_.TakeBuffer(); }

 private:
  ByteWriter out_;
};

class XdrReader final : public WireReader {
 public:
  explicit XdrReader(ByteSpan data) : data_(data) {}

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
    return static_cast<uint32_t>(p[0]) << 24 |
           static_cast<uint32_t>(p[1]) << 16 |
           static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
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

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_XDR_H_
