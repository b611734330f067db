// Bounds-checked byte stream primitives used by the marshal engines.
//
// ByteWriter appends big-endian or little-endian scalars and raw spans to a
// growable buffer; ByteReader consumes them and reports truncation as a
// Status instead of crashing, which the failure-injection tests rely on.

#ifndef FLEXRPC_SRC_SUPPORT_BYTES_H_
#define FLEXRPC_SRC_SUPPORT_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace flexrpc {

using ByteSpan = std::span<const uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  // Reserves `capacity` bytes up front: a writer sized to its exact output
  // makes one allocation and never reallocates.
  explicit ByteWriter(size_t capacity) { buffer_.reserve(capacity); }

  void WriteU8(uint8_t v) { buffer_.push_back(v); }

  void WriteU16Be(uint16_t v) {
    buffer_.push_back(static_cast<uint8_t>(v >> 8));
    buffer_.push_back(static_cast<uint8_t>(v));
  }

  void WriteU32Be(uint32_t v) {
    buffer_.push_back(static_cast<uint8_t>(v >> 24));
    buffer_.push_back(static_cast<uint8_t>(v >> 16));
    buffer_.push_back(static_cast<uint8_t>(v >> 8));
    buffer_.push_back(static_cast<uint8_t>(v));
  }

  void WriteU64Be(uint64_t v) {
    WriteU32Be(static_cast<uint32_t>(v >> 32));
    WriteU32Be(static_cast<uint32_t>(v));
  }

  void WriteBytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }

  void WriteSpan(ByteSpan span) { WriteBytes(span.data(), span.size()); }

  // Appends `count` zero bytes (XDR padding).
  void WriteZeros(size_t count) { buffer_.insert(buffer_.end(), count, 0); }

  // Overwrites 4 bytes at `offset` (for back-patched length fields).
  void PatchU32Be(size_t offset, uint32_t v) {
    buffer_[offset] = static_cast<uint8_t>(v >> 24);
    buffer_[offset + 1] = static_cast<uint8_t>(v >> 16);
    buffer_[offset + 2] = static_cast<uint8_t>(v >> 8);
    buffer_[offset + 3] = static_cast<uint8_t>(v);
  }

  size_t size() const { return buffer_.size(); }
  ByteSpan span() const { return ByteSpan(buffer_.data(), buffer_.size()); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }
  void Clear() { buffer_.clear(); }

 private:
  std::vector<uint8_t> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return remaining() == 0; }

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) {
      return Truncated("u8");
    }
    return data_[pos_++];
  }

  Result<uint16_t> ReadU16Be() {
    if (remaining() < 2) {
      return Truncated("u16");
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  Result<uint32_t> ReadU32Be() {
    if (remaining() < 4) {
      return Truncated("u32");
    }
    uint32_t v = static_cast<uint32_t>(data_[pos_]) << 24 |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 2]) << 8 |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64Be() {
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t hi, ReadU32Be());
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t lo, ReadU32Be());
    return (hi << 32) | lo;
  }

  // Copies `size` bytes into `dest`.
  Status ReadBytes(void* dest, size_t size) {
    if (remaining() < size) {
      return DataLossError("truncated byte stream reading raw bytes");
    }
    std::memcpy(dest, data_.data() + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  // Returns a view of the next `size` bytes without copying.
  Result<ByteSpan> ReadView(size_t size) {
    if (remaining() < size) {
      return Status(StatusCode::kDataLoss,
                    "truncated byte stream reading view");
    }
    ByteSpan view = data_.subspan(pos_, size);
    pos_ += size;
    return view;
  }

  Status Skip(size_t size) {
    if (remaining() < size) {
      return DataLossError("truncated byte stream skipping bytes");
    }
    pos_ += size;
    return Status::Ok();
  }

 private:
  Status Truncated(const char* what) {
    return DataLossError(std::string("truncated byte stream reading ") +
                         what);
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_BYTES_H_
