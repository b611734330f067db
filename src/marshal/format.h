// Wire-format abstraction for the marshal engine.
//
// A WireWriter/WireReader pair defines one on-the-wire representation.
// Two formats are provided:
//   * XDR (RFC 1014): Sun RPC's format — big-endian, every item padded to a
//     4-byte boundary, small scalars widened to 32 bits (src/marshal/xdr.h).
//   * Native: a compact little-endian format used for intra-machine IPC
//     messages, where both sides share byte order (src/marshal/native.h).
//
// The contract between client and server fixes the *format and item order*;
// presentations only change where the bytes come from / go to.

#ifndef FLEXRPC_SRC_MARSHAL_FORMAT_H_
#define FLEXRPC_SRC_MARSHAL_FORMAT_H_

#include <cstdint>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/status.h"

namespace flexrpc {

class WireWriter {
 public:
  virtual ~WireWriter() = default;

  virtual void PutU8(uint8_t v) = 0;
  virtual void PutU16(uint16_t v) = 0;
  virtual void PutU32(uint32_t v) = 0;
  virtual void PutU64(uint64_t v) = 0;
  void PutF32(float v);
  void PutF64(double v);

  // Appends `n` raw bytes (plus any format padding).
  virtual void PutBytes(const void* src, size_t n) = 0;

  // Reserves a padded `n`-byte region and returns a pointer to fill in:
  // the caller writes all `n` bytes, the format zeroes its padding. The
  // pointer is invalidated by the next Put/Reserve call. This is the hook
  // [special] marshaling uses to copy via user routines without an
  // intermediate buffer.
  virtual uint8_t* ReserveBytes(size_t n) = 0;

  virtual size_t size() const = 0;
  virtual ByteSpan span() const = 0;
  virtual void Clear() = 0;
};

class WireReader {
 public:
  virtual ~WireReader() = default;

  virtual Result<uint8_t> GetU8() = 0;
  virtual Result<uint16_t> GetU16() = 0;
  virtual Result<uint32_t> GetU32() = 0;
  virtual Result<uint64_t> GetU64() = 0;
  Result<float> GetF32();
  Result<double> GetF64();

  // Returns a view of the next `n` payload bytes (consuming any padding).
  virtual Result<const uint8_t*> GetBytes(size_t n) = 0;

  virtual size_t remaining() const = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_MARSHAL_FORMAT_H_
