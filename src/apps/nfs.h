// The Linux NFS client experiment (paper §4.1 / Figures 1 and 2).
//
// An in-kernel NFS client reads a large file from a remote file server over
// Sun RPC/XDR. The read data's final destination is a *user-space* buffer;
// the question Figure 2 asks is whether the stub unmarshals into an
// intermediate kernel buffer first (conventional presentation: one extra
// copy via copy_to_user) or directly into the user buffer through the
// kernel's special copy routines ([special] presentation, Figure 1's PDL).
// Both a hand-coded stub and the compiler-generated stub are provided for
// each presentation, reproducing the paper's finding that generated stubs
// match hand-coded ones.

#ifndef FLEXRPC_SRC_APPS_NFS_H_
#define FLEXRPC_SRC_APPS_NFS_H_

#include <memory>
#include <vector>

#include "src/idl/ast.h"
#include "src/marshal/engine.h"
#include "src/marshal/xdr.h"
#include "src/net/link.h"
#include "src/osim/address_space.h"
#include "src/pdl/apply.h"
#include "src/rpc/mux.h"
#include "src/rpc/retry.h"
#include "src/support/timing.h"

namespace flexrpc {

// The NFSv2 subset in Sun RPC language (readargs/readres as in the paper):
// examples/idl/nfs.x, as the build's `idlc --specialize` run embedded it in
// nfs.flexspec.h. NfsClient parses this text, so its programs have the
// keys that unit registers.
const char* NfsIdlText();
// The paper's Figure 1 PDL (flattened stub with [comm_status] and a
// [special] user-space data buffer): examples/idl/nfs_client.pdl, embedded
// by the same run.
const char* NfsClientPdlText();

inline constexpr uint32_t kNfsProgram = 100003;
inline constexpr uint32_t kNfsVersion = 2;
inline constexpr uint32_t kNfsProcRead = 6;
inline constexpr size_t kNfsMaxData = 8192;
inline constexpr size_t kNfsFhSize = 32;

// The remote file server: owns the file bytes, decodes read calls, encodes
// replies. Its CPU time is charged to the virtual clock via
// RemoteServerModel (the encode work it performs on the host is excluded
// from client-side measurements by construction of the benchmark loop).
class NfsFileServer {
 public:
  NfsFileServer(size_t file_size, uint64_t seed);

  // Handles one Sun RPC datagram; appends the reply datagram to `reply`,
  // sizing it first (Reserve), so an empty writer makes one allocation.
  Status Handle(ByteSpan request, XdrWriter* reply);

  size_t file_size() const { return content_.size(); }
  const uint8_t* content() const { return content_.data(); }

  // Adapts Handle to the call engine's datagram interface: strips the
  // [xid][conn] prefix before decoding and echoes it in front of the
  // reply, both written into one exact-size buffer that becomes `reply`.
  // The returned handler counts nothing itself — wrap it when a test needs
  // per-xid execution counts.
  static DatagramHandler MakeHandler(NfsFileServer* server);

 private:
  // One decoded read call: what its reply carries.
  struct ReadCall {
    uint32_t xid = 0;
    uint32_t status = 0;  // NFS_OK, or NFSERR_IO past EOF
    uint32_t offset = 0;
    uint32_t count = 0;   // data bytes the reply carries
  };
  Result<ReadCall> DecodeRead(ByteSpan request) const;
  // The exact number of bytes EncodeReply appends.
  static size_t ReplyBytes(const ReadCall& read);
  void EncodeReply(const ReadCall& read, XdrWriter* w) const;

  std::vector<uint8_t> content_;
};

// One NFS read experiment configuration.
class NfsClient {
 public:
  enum class StubKind {
    kGeneratedConventional,  // compiler stubs, default presentation
    kGeneratedUserBuffer,    // compiler stubs, Figure 1 [special] PDL
    kHandConventional,       // hand-written stubs, intermediate buffer
    kHandUserBuffer,         // hand-written stubs, copyout into user space
  };

  NfsClient(NfsFileServer* server, LinkModel link, RemoteServerModel remote);
  ~NfsClient();

  struct ReadStats {
    uint64_t bytes_read = 0;
    double client_seconds = 0;          // measured: marshaling + copies
    double network_server_seconds = 0;  // modeled: wire + remote server
    uint64_t rpc_calls = 0;
  };

  // Reads the whole file in `chunk_bytes` chunks (clamped to kNfsMaxData)
  // into a user-space buffer, then verifies the bytes against the server's
  // content. Small chunks make the per-call marshal overhead dominate —
  // the regime where specialized marshal code shows up most clearly.
  Result<ReadStats> ReadFile(StubKind kind,
                             size_t chunk_bytes = kNfsMaxData);

  // The same read, with every NFSPROC_READ a remote call over `rpc` — one
  // engine connection of any window (serial 1×1, pipelined 1×W) or a
  // managed binding. Every chunk is submitted up front under its SunRPC
  // xid; the engine's window decides how many are in flight, replies may
  // land out of order, and each decodes (past the [xid][conn] prefix)
  // into its own region of the user buffer. The server behind `rpc` must
  // be this client's file (NfsFileServer::MakeHandler, or a counting
  // wrapper around it). `clock` is the engine's virtual clock: it stamps
  // marshal attribution and replaces the network+server model of the
  // perfect-wire path. Degrades to the engine's terminal codes
  // (kUnavailable, kDeadlineExceeded) or kDataLoss — never a hang, never
  // a double read on one server. Transport activity (retransmits, reply
  // cache hits, executions) lives in the engine's own stats.
  Result<ReadStats> ReadFileOver(StubKind kind, CallChannel* rpc,
                                 VirtualClock* clock,
                                 size_t chunk_bytes = kNfsMaxData);

  AddressSpace* user_space() { return user_space_.get(); }
  AddressSpace* kernel_space() { return kernel_space_.get(); }

  // One read chunk's parameters (public for white-box tests).
  struct ChunkArgs {
    const uint8_t* fh;
    uint32_t offset;
    uint32_t count;
    uint8_t* user_dest;  // where the data must end up
  };

  // One NFSPROC_READ through the selected stub: appends the request body
  // to `w`; decodes the reply body from `r`. Returns bytes delivered. A
  // reply carrying more data than `chunk.count` is kResourceExhausted, and
  // nothing is copied to `chunk.user_dest`.
  Result<uint32_t> EncodeRequest(StubKind kind, const ChunkArgs& chunk,
                                 XdrWriter* w);
  Result<uint32_t> DecodeReply(StubKind kind, const ChunkArgs& chunk,
                               XdrReader* r);

 private:
  NfsFileServer* server_;
  LinkModel link_;
  RemoteServerModel remote_;
  std::unique_ptr<AddressSpace> kernel_space_;
  std::unique_ptr<AddressSpace> user_space_;

  std::unique_ptr<InterfaceFile> idl_;
  PresentationSet default_pres_;
  PresentationSet special_pres_;
  std::unique_ptr<MarshalProgram> prog_default_;
  std::unique_ptr<MarshalProgram> prog_special_;
  // Resolved once at construction rather than per call: the [special]
  // presentation's parameter slots, and where the conventional stub's
  // unmarshaled readres keeps its data sequence (a SeqRep).
  struct SpecialSlots {
    int file, offset, count, totalcount, data, attributes, status;
  };
  SpecialSlots special_slots_{};
  size_t readres_data_offset_ = 0;
  void* attr_storage_ = nullptr;  // kernel-resident fattr, reused per call
  // Figure 1's [special] routine: the kernel's copyout into user space.
  SpecialOps copy_to_user_;
  uint32_t next_xid_ = 1;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_APPS_NFS_H_
