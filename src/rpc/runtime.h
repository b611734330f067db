// The RPC runtime: binds endpoints, dispatches calls over a transport.
//
// A ServerObject owns the server side of one interface: per-operation
// marshal programs compiled from the *server's* presentation, plus the work
// functions. An RpcConnection owns the client side, compiled from the
// *client's* presentation. Binding verifies the two signatures against each
// other (the same check the specialized transport performs in the kernel),
// then wires calls through the streamlined IPC fast path.
//
// Message format on the wire (native byte order):
//   request:  u32 opnum, then the request body
//   reply:    u32 status (0 = ok), then the reply body or an error string

#ifndef FLEXRPC_SRC_RPC_RUNTIME_H_
#define FLEXRPC_SRC_RPC_RUNTIME_H_

#include <functional>
#include <map>
#include <memory>

#include "src/ipc/fastpath.h"
#include "src/marshal/engine.h"
#include "src/osim/kernel.h"
#include "src/pdl/apply.h"
#include "src/sig/signature.h"

namespace flexrpc {

// A server work function. `args` is laid out by the server presentation's
// slot order; in-params are filled on entry, the function fills out-params
// and the result slot. `arena` is the server's address space allocator.
using WorkFunction = std::function<Status(ArgVec* args, Arena* arena)>;

class ServerObject {
 public:
  // `itf` and `pres` must outlive the object.
  ServerObject(const InterfaceDecl& itf, const InterfacePresentation& pres,
               Task* task);

  void SetWork(std::string_view op_name, WorkFunction work);

  // Optional [special] marshal routines used by this server's stubs.
  void SetSpecialOps(SpecialOps special) { special_ = std::move(special); }

  // Transport-level entry point: unmarshals, invokes, marshals the reply.
  Status Dispatch(ServerCall* call);

  const InterfaceSignature& signature() const { return signature_; }
  const InterfacePresentation& presentation() const { return *pres_; }
  Task* task() const { return task_; }
  const MarshalProgram* ProgramFor(uint32_t opnum) const;

 private:
  struct OpState {
    const OperationDecl* decl = nullptr;
    MarshalProgram program;
    WorkFunction work;
  };

  const InterfacePresentation* pres_;
  Task* task_;
  InterfaceSignature signature_;
  std::map<uint32_t, OpState> ops_;
  SpecialOps special_;
};

class RpcConnection {
 public:
  // Binds `client` to the server behind `port`. Fails (PERMISSION_DENIED)
  // when the client's signature is incompatible with the server's — the
  // bind-time contract check.
  static Result<std::unique_ptr<RpcConnection>> Bind(
      Kernel* kernel, FastPath* transport, Task* client, Port* port,
      const ServerObject& server, const InterfaceDecl& itf,
      const InterfacePresentation& client_pres);

  // Invokes operation `op_name`. `args` is laid out by the client
  // presentation's slot order (see MarshalProgram::SlotOf).
  Status Call(std::string_view op_name, ArgVec* args);

  void SetSpecialOps(SpecialOps special) { special_ = std::move(special); }

  const MarshalProgram* ProgramFor(std::string_view op_name) const;
  uint64_t calls() const { return calls_; }

 private:
  RpcConnection() = default;

  FastPath* transport_ = nullptr;
  Task* client_ = nullptr;
  Port* port_ = nullptr;
  std::map<std::string, std::pair<uint32_t, MarshalProgram>> ops_;
  SpecialOps special_;
  uint64_t calls_ = 0;
};

// Convenience: creates a port in `server_task`, registers the server's
// dispatch function with the fast path, and returns the port.
Port* ExportServer(Kernel* kernel, FastPath* transport,
                   ServerObject* server);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_RPC_RUNTIME_H_
