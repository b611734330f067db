#include "src/ipc/fastpath.h"

#include <cstring>

#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

void FastPath::Serve(Port* port, Task* server, FastHandler handler) {
  endpoints_[port] = Endpoint{server, std::move(handler)};
}

Status FastPath::Call(Task* client, Port* port, ByteSpan request,
                      void** reply, size_t* reply_size) {
  auto it = endpoints_.find(port);
  if (it == endpoints_.end()) {
    return NotFoundError("no server bound to port");
  }
  Endpoint& ep = it->second;
  ++calls_;
  TraceAdd(TraceCounter::kIpcFastpathCalls);

  // Trap + copy the request buffer directly into the server's space.
  kernel_->Trap();
  void* server_copy = ep.server->space().Allocate(
      request.size() > 0 ? request.size() : 1);
  if (!request.empty()) {  // an empty span's data() may be null
    std::memcpy(server_copy, request.data(), request.size());
  }
  bytes_copied_ += request.size();
  TraceAdd(TraceCounter::kDataCopies);
  TraceAdd(TraceCounter::kDataCopyBytes, request.size());
  TraceAdd(TraceCounter::kIpcBytesCopied, request.size());

  // Synchronous handoff into the server.
  std::vector<uint8_t> staging;
  ServerCall call;
  call.request = static_cast<const uint8_t*>(server_copy);
  call.request_size = request.size();
  call.reply = &staging;
  Status handler_status = ep.handler(&call);
  ep.server->space().Free(server_copy);
  if (!handler_status.ok()) {
    return handler_status;
  }

  // Trap + copy the reply into the client's space.
  kernel_->Trap();
  void* client_copy =
      client->space().Allocate(staging.size() > 0 ? staging.size() : 1);
  if (!staging.empty()) {
    std::memcpy(client_copy, staging.data(), staging.size());
  }
  bytes_copied_ += staging.size();
  TraceAdd(TraceCounter::kDataCopies);
  TraceAdd(TraceCounter::kDataCopyBytes, staging.size());
  TraceAdd(TraceCounter::kIpcBytesCopied, staging.size());
  *reply = client_copy;
  *reply_size = staging.size();
  return Status::Ok();
}

}  // namespace flexrpc
