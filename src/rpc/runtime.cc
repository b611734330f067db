#include "src/rpc/runtime.h"

#include <cstring>

#include "src/marshal/native.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

ServerObject::ServerObject(const InterfaceDecl& itf,
                           const InterfacePresentation& pres, Task* task)
    : pres_(&pres), task_(task),
      signature_(BuildSignature(itf)) {
  for (const OperationDecl& op : itf.ops) {
    const OpPresentation* op_pres = pres.FindOp(op.name);
    OpState state;
    state.decl = &op;
    state.program = MarshalProgram::Build(op, *op_pres);
    ops_.emplace(op.opnum, std::move(state));
  }
}

void ServerObject::SetWork(std::string_view op_name, WorkFunction work) {
  for (auto& [opnum, state] : ops_) {
    if (state.decl->name == op_name) {
      state.work = std::move(work);
      return;
    }
  }
}

const MarshalProgram* ServerObject::ProgramFor(uint32_t opnum) const {
  auto it = ops_.find(opnum);
  return it == ops_.end() ? nullptr : &it->second.program;
}

Status ServerObject::Dispatch(ServerCall* call) {
  TraceAdd(TraceCounter::kRpcDispatches);
  NativeReader reader(ByteSpan(call->request, call->request_size));
  FLEXRPC_ASSIGN_OR_RETURN(uint32_t opnum, reader.GetU32());
  auto it = ops_.find(opnum);

  NativeWriter reply;
  auto send_error = [&](const Status& st) {
    reply.Clear();
    reply.PutU32(static_cast<uint32_t>(st.code()));
    reply.PutU32(static_cast<uint32_t>(st.message().size()));
    reply.PutBytes(st.message().data(), st.message().size());
    call->reply->assign(reply.span().begin(), reply.span().end());
    return Status::Ok();  // the error travels in-band
  };

  if (it == ops_.end()) {
    return send_error(NotFoundError(
        StrFormat("server implements no operation %u", opnum)));
  }
  OpState& state = it->second;
  if (!state.work) {
    return send_error(UnimplementedError(
        StrFormat("no work function bound for '%s'",
                  state.decl->name.c_str())));
  }

  Arena* arena = &task_->space().arena();
  ArgVec args(state.program.slot_count());
  Status st = state.program.UnmarshalRequest(&reader, arena, &args,
                                             &special_);
  if (st.ok()) {
    st = state.work(&args, arena);
  }
  if (!st.ok()) {
    state.program.ReleaseRequest(arena, &args);
    return send_error(st);
  }
  reply.PutU32(0);
  st = state.program.MarshalReply(&args, &reply, arena, &special_);
  state.program.ReleaseRequest(arena, &args);
  if (!st.ok()) {
    return send_error(st);
  }
  TraceAdd(TraceCounter::kRpcReplyBytes, reply.span().size());
  call->reply->assign(reply.span().begin(), reply.span().end());
  return Status::Ok();
}

Port* ExportServer(Kernel* kernel, FastPath* transport,
                   ServerObject* server) {
  PortName name = kernel->CreatePort(server->task());
  Result<Port*> port = kernel->ResolvePort(server->task(), name);
  transport->Serve(*port, server->task(),
                   [server](ServerCall* call) {
                     return server->Dispatch(call);
                   });
  return *port;
}

Result<std::unique_ptr<RpcConnection>> RpcConnection::Bind(
    Kernel* kernel, FastPath* transport, Task* client, Port* port,
    const ServerObject& server, const InterfaceDecl& itf,
    const InterfacePresentation& client_pres) {
  (void)kernel;
  InterfaceSignature client_sig = BuildSignature(itf);
  std::string why;
  if (!SignaturesCompatible(client_sig, server.signature(), &why)) {
    return PermissionDeniedError(
        StrFormat("bind-time signature check failed: %s", why.c_str()));
  }
  TraceAdd(TraceCounter::kRpcBinds);
  auto conn = std::unique_ptr<RpcConnection>(new RpcConnection());
  conn->transport_ = transport;
  conn->client_ = client;
  conn->port_ = port;
  for (const OperationDecl& op : itf.ops) {
    const OpPresentation* op_pres = client_pres.FindOp(op.name);
    conn->ops_.emplace(
        op.name,
        std::make_pair(op.opnum, MarshalProgram::Build(op, *op_pres)));
  }
  return conn;
}

const MarshalProgram* RpcConnection::ProgramFor(
    std::string_view op_name) const {
  auto it = ops_.find(op_name);
  return it == ops_.end() ? nullptr : &it->second.second;
}

Status RpcConnection::Call(std::string_view op_name, ArgVec* args) {
  auto it = ops_.find(op_name);
  if (it == ops_.end()) {
    return NotFoundError(StrFormat("no operation '%s' in this interface",
                                   std::string(op_name).c_str()));
  }
  ++calls_;
  TraceAdd(TraceCounter::kRpcClientCalls);
  uint32_t opnum = it->second.first;
  const MarshalProgram& program = it->second.second;

  NativeWriter request;
  request.PutU32(opnum);
  FLEXRPC_RETURN_IF_ERROR(program.MarshalRequest(*args, &request, &special_));
  TraceAdd(TraceCounter::kRpcRequestBytes, request.span().size());

  void* reply_block = nullptr;
  size_t reply_size = 0;
  FLEXRPC_RETURN_IF_ERROR(transport_->Call(client_, port_, request.span(),
                                           &reply_block, &reply_size));
  NativeReader reader(
      ByteSpan(static_cast<const uint8_t*>(reply_block), reply_size));
  Status st = [&]() -> Status {
    FLEXRPC_ASSIGN_OR_RETURN(uint32_t code, reader.GetU32());
    if (code != 0) {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t msg_len, reader.GetU32());
      FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* msg, reader.GetBytes(msg_len));
      return Status(static_cast<StatusCode>(code),
                    std::string(reinterpret_cast<const char*>(msg),
                                msg_len));
    }
    return program.UnmarshalReply(&reader, &client_->space().arena(), args,
                                  &special_);
  }();
  client_->space().Free(reply_block);
  return st;
}

}  // namespace flexrpc
