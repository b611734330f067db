// Simulated address spaces.
//
// Each AddressSpace owns a disjoint host-memory arena. "Crossing a
// protection domain" in this simulation therefore performs real memory
// traffic: a copy from one space to another is a memcpy between disjoint
// regions, an allocation is a real allocator operation in the target space.
// The costs the paper measures (extra copies, allocation churn) are thus
// executed, not modeled.

#ifndef FLEXRPC_SRC_OSIM_ADDRESS_SPACE_H_
#define FLEXRPC_SRC_OSIM_ADDRESS_SPACE_H_

#include <string>

#include "src/support/arena.h"
#include "src/support/status.h"

namespace flexrpc {

class AddressSpace {
 public:
  explicit AddressSpace(std::string name,
                        size_t capacity = Arena::kDefaultCapacity)
      : arena_(name, capacity), name_(std::move(name)) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }
  const std::string& name() const { return name_; }

  void* Allocate(size_t size) { return arena_.AllocateBlock(size); }
  void Free(void* ptr) { arena_.FreeBlock(ptr); }
  bool Owns(const void* ptr, size_t size = 1) const {
    return arena_.Owns(ptr, size);
  }

 private:
  Arena arena_;
  std::string name_;
};

// The user/kernel boundary copy routines of a monolithic kernel — the
// analogues of Linux's memcpy_tofs()/memcpy_fromfs() that the paper's §4.1
// [special] presentation plugs into the generated NFS stubs. The validation
// that [user_ptr, user_ptr + size) lies in one mapping of `user` models the
// access_ok() check; on failure nothing is copied.
Status CopyToUser(AddressSpace* user, void* user_ptr, const void* kernel_src,
                  size_t size);
Status CopyFromUser(AddressSpace* user, void* kernel_dst,
                    const void* user_ptr, size_t size);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_OSIM_ADDRESS_SPACE_H_
