#include "src/marshal/native.h"

#include <cstring>

namespace flexrpc {

template <typename T>
Result<T> NativeReader::Read() {
  if (remaining() < sizeof(T)) {
    return DataLossError("native stream truncated reading scalar");
  }
  T v;
  std::memcpy(&v, data_.data() + pos_, sizeof(T));
  pos_ += sizeof(T);
  return v;
}

template Result<uint8_t> NativeReader::Read<uint8_t>();
template Result<uint16_t> NativeReader::Read<uint16_t>();
template Result<uint32_t> NativeReader::Read<uint32_t>();
template Result<uint64_t> NativeReader::Read<uint64_t>();

Result<const uint8_t*> NativeReader::GetBytes(size_t n) {
  if (remaining() < n) {
    return DataLossError("native stream truncated reading bytes");
  }
  const uint8_t* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

}  // namespace flexrpc
