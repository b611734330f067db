// Bounds-checked byte stream primitives used by the marshal engines.
//
// ByteWriter appends big-endian or host-order scalars and raw spans to a
// growable buffer; ByteReader consumes them and reports truncation as a
// Status instead of crashing, which the failure-injection tests rely on.

#ifndef FLEXRPC_SRC_SUPPORT_BYTES_H_
#define FLEXRPC_SRC_SUPPORT_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace flexrpc {

using ByteSpan = std::span<const uint8_t>;

// Appends to one growable buffer. Every write makes one capacity check and
// then stores in place: a 32-bit word is one 4-byte store, a byte run one
// memcpy. The buffer is a std::vector so TakeBuffer hands it over without a
// copy; writes land in the vector's zero-filled "room" past size(), which
// grows at most kRoomStep bytes at a time, so a byte run never lands on
// bytes zeroed only to be overwritten (a long run is inserted instead).
class ByteWriter {
 public:
  ByteWriter() = default;
  // Reserves `capacity` bytes up front: a writer sized to its exact output
  // makes one allocation and never reallocates.
  explicit ByteWriter(size_t capacity) { Reserve(capacity); }

  // Makes room for `more` bytes past the current end, so writing them
  // makes no further allocation. Exact: no growth policy applies.
  void Reserve(size_t more);

  void WriteU8(uint8_t v) { *Append(1) = v; }

  void WriteU16Be(uint16_t v) {
    uint8_t* p = Append(2);
    p[0] = static_cast<uint8_t>(v >> 8);
    p[1] = static_cast<uint8_t>(v);
  }

  void WriteU32Be(uint32_t v) { StoreBe32(Append(4), v); }

  void WriteU64Be(uint64_t v) {
    uint8_t* p = Append(8);
    StoreBe32(p, static_cast<uint32_t>(v >> 32));
    StoreBe32(p + 4, static_cast<uint32_t>(v));
  }

  // Appends `v` in host byte order (the native wire format's scalars).
  template <typename T>
  void WriteHost(T v) {
    std::memcpy(Append(sizeof(T)), &v, sizeof(T));
  }

  void WriteBytes(const void* data, size_t size) {
    if (size > room()) {
      AppendRun(data, size);
      return;
    }
    if (size != 0) {  // an empty span may carry a null data()
      std::memcpy(buffer_.data() + size_, data, size);
      size_ += size;
    }
  }

  void WriteSpan(ByteSpan span) { WriteBytes(span.data(), span.size()); }

  // Appends `count` zero bytes (XDR padding).
  void WriteZeros(size_t count) {
    if (count != 0) {
      std::memset(Append(count), 0, count);
    }
  }

  // Appends `n` bytes for the caller to fill and returns where they start.
  // Their contents are unspecified; the pointer is valid until the next
  // write.
  uint8_t* Append(size_t n) {
    if (n > room()) {
      Extend(n);
    }
    uint8_t* p = buffer_.data() + size_;
    size_ += n;
    return p;
  }

  // Overwrites 4 bytes at `offset` (for back-patched length fields).
  void PatchU32Be(size_t offset, uint32_t v) {
    StoreBe32(buffer_.data() + offset, v);
  }

  size_t size() const { return size_; }
  ByteSpan span() const { return ByteSpan(buffer_.data(), size_); }
  // Hands over the written bytes in the writer's own allocation; the
  // writer is left empty.
  std::vector<uint8_t> TakeBuffer() {
    buffer_.resize(size_);
    size_ = 0;
    return std::exchange(buffer_, {});
  }
  void Clear() { size_ = 0; }

  // The first implicit growth allocates at least this much; later ones at
  // least double. 256 bytes hold a SunRPC call header and the NFS read
  // arguments (84 bytes) with room to spare.
  static constexpr size_t kFirstGrowth = 256;

 private:
  // Room is zero-filled (std::vector value-initializes) at most this many
  // bytes beyond a write at a time.
  static constexpr size_t kRoomStep = 128;

  static void StoreBe32(uint8_t* p, uint32_t v) {
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
  }

  size_t room() const { return buffer_.size() - size_; }
  // Grows the room to at least `n` bytes (the cold half of Append).
  void Extend(size_t n);
  // Appends a run longer than the room by inserting it: one copy, no
  // zero-fill under it (the cold half of WriteBytes).
  void AppendRun(const void* data, size_t size);
  // Reallocates to hold `need` bytes under the growth policy.
  void Grow(size_t need);

  // [0, size_) is written; [size_, buffer_.size()) is room.
  std::vector<uint8_t> buffer_;
  size_t size_ = 0;
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
