#include "src/support/bytes.h"

#include <algorithm>

namespace flexrpc {

void ByteWriter::Reserve(size_t more) {
  if (more > buffer_.capacity() - size_) {
    buffer_.resize(size_);  // the reallocation copies only written bytes
    buffer_.reserve(size_ + more);
  }
}

void ByteWriter::Grow(size_t need) {
  if (need > buffer_.capacity()) {
    buffer_.resize(size_);
    buffer_.reserve(std::max({need, 2 * buffer_.capacity(), kFirstGrowth}));
  }
}

void ByteWriter::Extend(size_t n) {
  Grow(size_ + n);
  buffer_.resize(
      std::min(buffer_.capacity(), size_ + std::max(n, kRoomStep)));
}

void ByteWriter::AppendRun(const void* data, size_t size) {
  Grow(size_ + size);
  buffer_.resize(size_);  // the run replaces the room
  const auto* p = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
  size_ += size;
}

}  // namespace flexrpc
