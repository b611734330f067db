// Compact native (little-endian, unpadded) wire format for intra-machine
// IPC messages, where sender and receiver share a byte order and the
// message buffer is copied verbatim between address spaces by the kernel.
//
// Both classes are final and defined here in full, as the XDR ones are
// (xdr.h), so the marshal engine's native instantiation inlines each word.

#ifndef FLEXRPC_SRC_MARSHAL_NATIVE_H_
#define FLEXRPC_SRC_MARSHAL_NATIVE_H_

#include <cstring>

#include "src/marshal/format.h"

namespace flexrpc {

class NativeWriter final : public WireWriter {
 public:
  static constexpr WireFormat kFormat = WireFormat::kNative;

  NativeWriter() : WireWriter(kFormat) {}

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

  // Appends the `n` bytes of a fixed-size run for the caller to fill, and
  // returns where they start.
  [[gnu::always_inline]] uint8_t* AppendFixed(size_t n) {
    return out_.Append(n);
  }
  // Stores a scalar `width` bytes wide at `p` in host byte order.
  [[gnu::always_inline]] static void StoreScalar(uint8_t* p, unsigned width,
                                                 uint64_t bits) {
    switch (width) {
      case 1:
        *p = static_cast<uint8_t>(bits);
        return;
      case 2:
        Store(p, static_cast<uint16_t>(bits));
        return;
      case 4:
        Store(p, static_cast<uint32_t>(bits));
        return;
      default:
        Store(p, bits);
        return;
    }
  }

 private:
  template <typename T>
  static void Store(uint8_t* p, T v) {
    std::memcpy(p, &v, sizeof(v));
  }

  ByteWriter out_;
};

class NativeReader final : public WireReader {
 public:
  static constexpr WireFormat kFormat = WireFormat::kNative;

  explicit NativeReader(ByteSpan data) : WireReader(kFormat), data_(data) {}

  Result<uint8_t> GetU8() override { return Read<uint8_t>(); }
  Result<uint16_t> GetU16() override { return Read<uint16_t>(); }
  Result<uint32_t> GetU32() override { return Read<uint32_t>(); }
  Result<uint64_t> GetU64() override { return Read<uint64_t>(); }
  Result<const uint8_t*> GetBytes(size_t n) override {
    if (remaining() < n) {
      return DataLossError("native stream truncated reading bytes");
    }
    return Take(n);
  }
  size_t remaining() const override { return data_.size() - pos_; }

  // Consumes the `n` bytes of a fixed-size run and returns where they
  // start; null, consuming nothing, when fewer are left.
  [[gnu::always_inline]] const uint8_t* TakeFixed(size_t n) {
    return remaining() < n ? nullptr : Take(n);
  }
  // The scalar `width` bytes wide at `p`, in host byte order.
  [[gnu::always_inline]] static uint64_t LoadScalar(const uint8_t* p,
                                                    unsigned width) {
    switch (width) {
      case 1:
        return *p;
      case 2:
        return Load<uint16_t>(p);
      case 4:
        return Load<uint32_t>(p);
      default:
        return Load<uint64_t>(p);
    }
  }

 private:
  template <typename T>
  static T Load(const uint8_t* p) {
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  template <typename T>
  Result<T> Read() {
    if (remaining() < sizeof(T)) {
      return DataLossError("native stream truncated reading scalar");
    }
    return Load<T>(Take(sizeof(T)));
  }
  const uint8_t* Take(size_t n) {
    const uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_NATIVE_H_
