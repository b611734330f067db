#include "src/osim/address_space.h"

#include <cstring>

#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

Status CopyToUser(AddressSpace* user, void* user_ptr, const void* kernel_src,
                  size_t size) {
  if (!user->Owns(user_ptr, size)) {
    return PermissionDeniedError(
        StrFormat("copyout target is not mapped in address space '%s'",
                  user->name().c_str()));
  }
  TraceAdd(TraceCounter::kDataCopies);
  TraceAdd(TraceCounter::kDataCopyBytes, size);
  std::memcpy(user_ptr, kernel_src, size);
  return Status::Ok();
}

Status CopyFromUser(AddressSpace* user, void* kernel_dst,
                    const void* user_ptr, size_t size) {
  if (!user->Owns(user_ptr, size)) {
    return PermissionDeniedError(
        StrFormat("copyin source is not mapped in address space '%s'",
                  user->name().c_str()));
  }
  TraceAdd(TraceCounter::kDataCopies);
  TraceAdd(TraceCounter::kDataCopyBytes, size);
  std::memcpy(kernel_dst, user_ptr, size);
  return Status::Ok();
}

}  // namespace flexrpc
