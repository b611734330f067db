#include "src/ipc/oldpath.h"

#include <cstring>

#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

void OldPath::Serve(Port* port, Task* server, FastHandler handler) {
  endpoints_[port] = Endpoint{server, std::move(handler)};
}

Status OldPath::Call(Task* client, Port* port, PortName reply_port_name,
                     ByteSpan request, const std::vector<TypedItem>& items,
                     void** reply, size_t* reply_size) {
  auto it = endpoints_.find(port);
  if (it == endpoints_.end()) {
    return NotFoundError("no server bound to port");
  }
  Endpoint& ep = it->second;
  ++calls_;
  TraceAdd(TraceCounter::kIpcOldpathCalls);

  // Validate that the typed descriptors cover the body exactly — the
  // header-parsing work the streamlined path avoids.
  size_t described = 0;
  for (const TypedItem& item : items) {
    ++descriptors_processed_;
    TraceAdd(TraceCounter::kIpcOldpathDescriptors);
    if (item.type_code == 0) {
      return InvalidArgumentError("typed item has no type code");
    }
    described += item.item_bytes;
  }
  if (described != request.size()) {
    return InvalidArgumentError(
        StrFormat("typed items describe %zu bytes, body has %zu", described,
                  request.size()));
  }

  // Translate the reply port (full unique-name machinery on every call).
  kernel_->Trap();
  FLEXRPC_ASSIGN_OR_RETURN(RightEntry * reply_right,
                           client->names().Lookup(reply_port_name));
  PortName server_side_name =
      ep.server->names().InsertUnique(reply_right->port, RightType::kSend);

  // Copy client -> kernel intermediate buffer -> server space.
  kernel_buffer_.assign(request.begin(), request.end());
  bytes_copied_ += request.size();
  void* server_copy = ep.server->space().Allocate(
      request.size() > 0 ? request.size() : 1);
  std::memcpy(server_copy, kernel_buffer_.data(), kernel_buffer_.size());
  bytes_copied_ += request.size();
  TraceAdd(TraceCounter::kDataCopies, 2);
  TraceAdd(TraceCounter::kDataCopyBytes, 2 * request.size());
  TraceAdd(TraceCounter::kIpcBytesCopied, 2 * request.size());

  std::vector<uint8_t> staging;
  ServerCall call;
  call.request = static_cast<const uint8_t*>(server_copy);
  call.request_size = request.size();
  call.reply = &staging;
  Status handler_status = ep.handler(&call);
  ep.server->space().Free(server_copy);

  // The server is done with the reply right.
  FLEXRPC_RETURN_IF_ERROR(ep.server->names().Release(server_side_name));
  if (!handler_status.ok()) {
    return handler_status;
  }

  // Reply: server -> kernel buffer -> client space, plus the return trap.
  kernel_->Trap();
  kernel_buffer_.assign(staging.begin(), staging.end());
  bytes_copied_ += staging.size();
  void* client_copy =
      client->space().Allocate(staging.size() > 0 ? staging.size() : 1);
  std::memcpy(client_copy, kernel_buffer_.data(), kernel_buffer_.size());
  bytes_copied_ += staging.size();
  TraceAdd(TraceCounter::kDataCopies, 2);
  TraceAdd(TraceCounter::kDataCopyBytes, 2 * staging.size());
  TraceAdd(TraceCounter::kIpcBytesCopied, 2 * staging.size());
  *reply = client_copy;
  *reply_size = staging.size();
  return Status::Ok();
}

}  // namespace flexrpc
