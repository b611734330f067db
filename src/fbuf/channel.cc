#include "src/fbuf/channel.h"

#include <cstring>

#include "src/support/trace.h"

namespace flexrpc {

Status FbufChannel::Call(uint32_t opnum, FbufAggregate request,
                         FbufAggregate* reply) {
  if (!handler_) {
    return FailedPreconditionError("fbuf channel has no server");
  }
  ++calls_;
  TraceAdd(TraceCounter::kFbufChannelCalls);
  // Control transfer into the server: trap + control message copy. The
  // data itself stays in the shared fbufs.
  kernel_->Trap();
  std::memcpy(control_in_, &opnum, sizeof(opnum));
  asm volatile("" : : "r"(control_in_) : "memory");

  FbufAggregate out;
  FLEXRPC_RETURN_IF_ERROR(handler_(opnum, &request, &out));

  // Control transfer back.
  kernel_->Trap();
  std::memcpy(control_out_, control_in_, sizeof(control_out_));
  asm volatile("" : : "r"(control_out_) : "memory");
  *reply = std::move(out);
  return Status::Ok();
}

}  // namespace flexrpc
