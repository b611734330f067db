// Compact native (little-endian, unpadded) wire format for intra-machine
// IPC messages, where sender and receiver share a byte order and the
// message buffer is copied verbatim between address spaces by the kernel.

#ifndef FLEXRPC_SRC_MARSHAL_NATIVE_H_
#define FLEXRPC_SRC_MARSHAL_NATIVE_H_

#include "src/marshal/format.h"

namespace flexrpc {

class NativeWriter final : public WireWriter {
 public:
  void PutU8(uint8_t v) override { out_.WriteU8(v); }
  void PutU16(uint16_t v) override { out_.WriteHost(v); }
  void PutU32(uint32_t v) override { out_.WriteHost(v); }
  void PutU64(uint64_t v) override { out_.WriteHost(v); }
  void PutBytes(const void* src, size_t n) override {
    out_.WriteBytes(src, n);
  }
  uint8_t* ReserveBytes(size_t n) override { return out_.Append(n); }
  size_t size() const override { return out_.size(); }
  ByteSpan span() const override { return out_.span(); }
  void Clear() override { out_.Clear(); }

 private:
  ByteWriter out_;
};

class NativeReader final : public WireReader {
 public:
  explicit NativeReader(ByteSpan data) : data_(data) {}

  Result<uint8_t> GetU8() override { return Read<uint8_t>(); }
  Result<uint16_t> GetU16() override { return Read<uint16_t>(); }
  Result<uint32_t> GetU32() override { return Read<uint32_t>(); }
  Result<uint64_t> GetU64() override { return Read<uint64_t>(); }
  Result<const uint8_t*> GetBytes(size_t n) override;
  size_t remaining() const override { return data_.size() - pos_; }

 private:
  template <typename T>
  Result<T> Read();

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_NATIVE_H_
