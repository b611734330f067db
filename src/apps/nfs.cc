#include "src/apps/nfs.h"

#include <cstring>

#include "nfs.flexspec.h"  // generated: idlc --specialize over examples/idl
#include "src/idl/sema.h"
#include "src/idl/sunrpc_parser.h"
#include "src/marshal/layout.h"
#include "src/marshal/xdr.h"
#include "src/net/sunrpc.h"
#include "src/support/recorder.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace flexrpc {

const char* NfsIdlText() { return flexspec_nfs::kIdlSource; }

const char* NfsClientPdlText() { return flexspec_nfs::kClientPdlSource; }

namespace {

constexpr uint32_t kFattrFieldCount = 14;
constexpr uint32_t kNfsOk = 0;
constexpr uint32_t kNfsErrIo = 5;

// A reply whose data would overrun the caller's chunk: the [special]
// stub's caller-buffer check, made by every stub before it copies.
Status ChunkOverrun(uint32_t count, uint32_t len) {
  return ResourceExhaustedError(StrFormat(
      "read reply carries %u bytes for a %u-byte chunk", len, count));
}

// Native layout of readargs (checked against the type table in the ctor).
struct NativeReadArgs {
  uint8_t fh[kNfsFhSize];
  uint32_t offset;
  uint32_t count;
  uint32_t totalcount;
};
static_assert(sizeof(NativeReadArgs) == 44);

}  // namespace

NfsFileServer::NfsFileServer(size_t file_size, uint64_t seed) {
  content_.resize(file_size);
  Rng rng(seed);
  for (size_t i = 0; i < file_size; i += 8) {
    uint64_t word = rng.NextU64();
    size_t n = file_size - i < 8 ? file_size - i : 8;
    std::memcpy(content_.data() + i, &word, n);
  }
}

Result<NfsFileServer::ReadCall> NfsFileServer::DecodeRead(
    ByteSpan request) const {
  XdrReader r(request);
  FLEXRPC_ASSIGN_OR_RETURN(SunRpcCall call, DecodeSunRpcCall(&r));
  if (call.program != kNfsProgram || call.version != kNfsVersion) {
    return NotFoundError("not an NFSv2 call");
  }
  if (call.procedure != kNfsProcRead) {
    return UnimplementedError(
        StrFormat("NFS procedure %u not implemented", call.procedure));
  }
  // readargs
  FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* fh, r.GetBytes(kNfsFhSize));
  (void)fh;
  FLEXRPC_ASSIGN_OR_RETURN(uint32_t offset, r.GetU32());
  FLEXRPC_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  FLEXRPC_ASSIGN_OR_RETURN(uint32_t totalcount, r.GetU32());
  (void)totalcount;

  ReadCall read{call.xid, kNfsOk, offset, count};
  if (offset >= content_.size()) {
    read.status = kNfsErrIo;  // the paper's workload never reads past EOF
    read.count = 0;
    return read;
  }
  if (read.count > kNfsMaxData) {
    read.count = kNfsMaxData;
  }
  if (offset + read.count > content_.size()) {
    read.count = static_cast<uint32_t>(content_.size() - offset);
  }
  return read;
}

size_t NfsFileServer::ReplyBytes(const ReadCall& read) {
  // The SunRPC reply header (6 words) and the status word; NFS_OK adds
  // fattr, the data length and the padded data: 88 bytes plus the data.
  constexpr size_t kHeaderAndStatus = 7 * 4;
  if (read.status != kNfsOk) {
    return kHeaderAndStatus;
  }
  return kHeaderAndStatus + (kFattrFieldCount + 1) * 4 +
         XdrPadTo4(read.count);
}

void NfsFileServer::EncodeReply(const ReadCall& read, XdrWriter* w) const {
  EncodeSunRpcReplySuccess(w, read.xid);
  w->PutU32(read.status);
  if (read.status != kNfsOk) {
    return;
  }
  // fattr
  uint32_t now = 0x5F000000;
  uint32_t fattr[kFattrFieldCount] = {
      /*type=*/1,     /*mode=*/0644, /*nlink=*/1,
      /*uid=*/0,      /*gid=*/0,
      /*size=*/static_cast<uint32_t>(content_.size()),
      /*blocksize=*/8192,
      /*rdev=*/0,
      /*blocks=*/static_cast<uint32_t>((content_.size() + 511) / 512),
      /*fsid=*/7,     /*fileid=*/42, /*atime=*/now,
      /*mtime=*/now,  /*ctime=*/now};
  for (uint32_t field : fattr) {
    w->PutU32(field);
  }
  // data<>
  w->PutU32(read.count);
  w->PutBytes(content_.data() + read.offset, read.count);
}

Status NfsFileServer::Handle(ByteSpan request, XdrWriter* reply) {
  FLEXRPC_ASSIGN_OR_RETURN(ReadCall read, DecodeRead(request));
  reply->Reserve(ReplyBytes(read));
  EncodeReply(read, reply);
  return Status::Ok();
}

DatagramHandler NfsFileServer::MakeHandler(NfsFileServer* server) {
  return [server](ByteSpan request, std::vector<uint8_t>* reply) {
    if (request.size() < kMuxPrefixBytes) {
      return DataLossError("request too short to carry [xid][conn]");
    }
    FLEXRPC_ASSIGN_OR_RETURN(
        ReadCall read, server->DecodeRead(request.subspan(kMuxPrefixBytes)));
    // One exact-size buffer: the echoed prefix, then the reply.
    XdrWriter w;
    w.Reserve(kMuxPrefixBytes + ReplyBytes(read));
    w.PutBytes(request.data(), kMuxPrefixBytes);
    server->EncodeReply(read, &w);
    *reply = w.TakeBuffer();
    return Status::Ok();
  };
}

NfsClient::NfsClient(NfsFileServer* server, LinkModel link,
                     RemoteServerModel remote)
    : server_(server), link_(link), remote_(remote) {
  kernel_space_ = std::make_unique<AddressSpace>("nfs-kernel");
  user_space_ = std::make_unique<AddressSpace>("nfs-user");

  DiagnosticSink diags;
  idl_ = ParseSunRpc(NfsIdlText(), "nfs.x", &diags);
  if (idl_ == nullptr || !AnalyzeInterfaceFile(idl_.get(), &diags)) {
    std::fprintf(stderr, "NFS IDL failed to compile:\n%s",
                 diags.ToString().c_str());
    std::abort();
  }
  if (!ApplyPdl(*idl_, Side::kClient, nullptr, &default_pres_, &diags) ||
      !ApplyPdlText(*idl_, Side::kClient, NfsClientPdlText(), "nfs.pdl",
                    &special_pres_, &diags)) {
    std::fprintf(stderr, "NFS PDL failed to apply:\n%s",
                 diags.ToString().c_str());
    std::abort();
  }
  // Install the build-time specializations before compiling the programs:
  // MarshalProgram::Build resolves its SpecKey against the registry once,
  // at bind time. The explicit call also keeps the generated object out of
  // the archive linker's dead-object elision.
  flexspec_nfs::RegisterSpecializations();
  const InterfaceDecl* itf = idl_->FindInterface("NFS_VERSION");
  const OperationDecl* op = itf->FindOp("NFSPROC_READ");
  prog_default_ = std::make_unique<MarshalProgram>(MarshalProgram::Build(
      *op, *default_pres_.Find("NFS_VERSION")->FindOp("NFSPROC_READ")));
  prog_special_ = std::make_unique<MarshalProgram>(MarshalProgram::Build(
      *op, *special_pres_.Find("NFS_VERSION")->FindOp("NFSPROC_READ")));
  const MarshalProgram& special = *prog_special_;
  special_slots_ = {special.SlotOf("file"),       special.SlotOf("offset"),
                    special.SlotOf("count"),      special.SlotOf("totalcount"),
                    special.SlotOf("data"),       special.SlotOf("attributes"),
                    special.SlotOf("status")};
  const Type* readres_t = idl_->types.FindNamed("readres")->Resolve();
  const Type* okres_t = idl_->types.FindNamed("readokres");
  readres_data_offset_ =
      UnionPayloadOffset(readres_t) + NativeFieldOffset(okres_t, 1);
  attr_storage_ = kernel_space_->arena().AllocateBlock(
      idl_->types.FindNamed("fattr")->NativeSize());
  AddressSpace* user = user_space_.get();
  copy_to_user_.copy_in = [user](void* dst, const uint8_t* src, size_t n) {
    Status st = CopyToUser(user, dst, src, n);
    if (!st.ok()) {
      std::abort();  // simulation misconfiguration
    }
  };
}

NfsClient::~NfsClient() = default;

Result<uint32_t> NfsClient::EncodeRequest(StubKind kind,
                                          const ChunkArgs& chunk,
                                          XdrWriter* w) {
  switch (kind) {
    case StubKind::kGeneratedConventional: {
      NativeReadArgs native;
      std::memcpy(native.fh, chunk.fh, kNfsFhSize);
      native.offset = chunk.offset;
      native.count = chunk.count;
      native.totalcount = chunk.count;
      ArgVec args(prog_default_->slot_count());
      args[0].set_ptr(&native);
      FLEXRPC_RETURN_IF_ERROR(prog_default_->MarshalRequest(args, w));
      return 0u;
    }
    case StubKind::kGeneratedUserBuffer: {
      ArgVec args(prog_special_->slot_count());
      args[special_slots_.file].set_ptr(chunk.fh);
      args[special_slots_.offset].scalar = chunk.offset;
      args[special_slots_.count].scalar = chunk.count;
      args[special_slots_.totalcount].scalar = chunk.count;
      FLEXRPC_RETURN_IF_ERROR(prog_special_->MarshalRequest(args, w));
      return 0u;
    }
    case StubKind::kHandConventional:
    case StubKind::kHandUserBuffer: {
      // The hand-coded stub: identical wire bytes, written out longhand.
      w->PutBytes(chunk.fh, kNfsFhSize);
      w->PutU32(chunk.offset);
      w->PutU32(chunk.count);
      w->PutU32(chunk.count);
      return 0u;
    }
  }
  return InternalError("unknown stub kind");
}

Result<uint32_t> NfsClient::DecodeReply(StubKind kind,
                                        const ChunkArgs& chunk,
                                        XdrReader* r) {
  Arena* karena = &kernel_space_->arena();
  switch (kind) {
    case StubKind::kGeneratedConventional: {
      // The stub unmarshals the readres union into kernel memory...
      ArgVec args(prog_default_->slot_count());
      Status st = prog_default_->UnmarshalReply(r, karena, &args);
      uint32_t status = 0;
      uint32_t delivered = 0;
      if (st.ok()) {
        auto* readres = static_cast<uint8_t*>(
            args[prog_default_->result_slot()].ptr());
        std::memcpy(&status, readres, sizeof(status));
        if (status == 0) {
          SeqRep data;
          std::memcpy(&data, readres + readres_data_offset_, sizeof(data));
          // ...and the NFS client must copy it out to user space: the
          // extra copy the [special] presentation eliminates.
          st = data.length > chunk.count
                   ? ChunkOverrun(chunk.count, data.length)
                   : CopyToUser(user_space_.get(), chunk.user_dest,
                                data.buffer, data.length);
          delivered = data.length;
        }
      }
      // A malformed reply leaves what it read behind, the readres block
      // at least: release on every path.
      prog_default_->ReleaseReply(karena, &args);
      FLEXRPC_RETURN_IF_ERROR(st);
      if (status != 0) {
        return DataLossError(StrFormat("NFS error %u", status));
      }
      return delivered;
    }
    case StubKind::kGeneratedUserBuffer: {
      // Figure 1's stub: [special] routines unmarshal straight into the
      // user buffer via the kernel's copyout.
      ArgVec args(prog_special_->slot_count());
      args[special_slots_.data].set_ptr(chunk.user_dest);
      args[special_slots_.data].capacity = chunk.count;
      // fattr lands in a kernel-resident struct, as in the original stub.
      args[special_slots_.attributes].set_ptr(attr_storage_);
      Status st =
          prog_special_->UnmarshalReply(r, karena, &args, &copy_to_user_);
      uint32_t status =
          static_cast<uint32_t>(args[special_slots_.status].scalar);
      uint32_t delivered = args[special_slots_.data].length;
      FLEXRPC_RETURN_IF_ERROR(st);
      if (status != 0) {
        return DataLossError(StrFormat("NFS error %u", status));
      }
      return delivered;
    }
    case StubKind::kHandConventional: {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t status, r->GetU32());
      if (status != 0) {
        return DataLossError(StrFormat("NFS error %u", status));
      }
      uint32_t fattr[kFattrFieldCount];
      for (uint32_t& field : fattr) {
        FLEXRPC_ASSIGN_OR_RETURN(field, r->GetU32());
      }
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t len, r->GetU32());
      FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes, r->GetBytes(len));
      if (len > chunk.count) {
        return ChunkOverrun(chunk.count, len);
      }
      // Intermediate kernel buffer, then copyout: two copies.
      void* staging = karena->AllocateBlock(len > 0 ? len : 1);
      std::memcpy(staging, bytes, len);
      Status st =
          CopyToUser(user_space_.get(), chunk.user_dest, staging, len);
      karena->FreeBlock(staging);
      FLEXRPC_RETURN_IF_ERROR(st);
      return len;
    }
    case StubKind::kHandUserBuffer: {
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t status, r->GetU32());
      if (status != 0) {
        return DataLossError(StrFormat("NFS error %u", status));
      }
      uint32_t fattr[kFattrFieldCount];
      for (uint32_t& field : fattr) {
        FLEXRPC_ASSIGN_OR_RETURN(field, r->GetU32());
      }
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t len, r->GetU32());
      FLEXRPC_ASSIGN_OR_RETURN(const uint8_t* bytes, r->GetBytes(len));
      if (len > chunk.count) {
        return ChunkOverrun(chunk.count, len);
      }
      // Straight from the network buffer to user space: one copy.
      FLEXRPC_RETURN_IF_ERROR(
          CopyToUser(user_space_.get(), chunk.user_dest, bytes, len));
      return len;
    }
  }
  return InternalError("unknown stub kind");
}

Result<NfsClient::ReadStats> NfsClient::ReadFile(StubKind kind,
                                                 size_t chunk_bytes) {
  ReadStats stats;
  VirtualClock vclock;
  if (chunk_bytes == 0 || chunk_bytes > kNfsMaxData) {
    chunk_bytes = kNfsMaxData;
  }
  size_t file_size = server_->file_size();
  auto* user_buffer =
      static_cast<uint8_t*>(user_space_->Allocate(file_size));
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));

  double client_seconds = 0;
  for (size_t offset = 0; offset < file_size; offset += chunk_bytes) {
    uint32_t count = static_cast<uint32_t>(
        file_size - offset < chunk_bytes ? file_size - offset
                                         : chunk_bytes);
    ChunkArgs chunk{fh, static_cast<uint32_t>(offset), count,
                    user_buffer + offset};
    uint32_t xid = next_xid_++;
    // Attribute this chunk's marshal work to its xid (flight recorder).
    RecorderCallScope rec_scope(xid, &vclock);

    // --- client-side marshal (measured) ---
    XdrWriter request;
    Stopwatch encode_timer;
    EncodeSunRpcCall(&request,
                     SunRpcCall{xid, kNfsProgram, kNfsVersion,
                                kNfsProcRead});
    FLEXRPC_ASSIGN_OR_RETURN(uint32_t unused,
                             EncodeRequest(kind, chunk, &request));
    (void)unused;
    client_seconds += encode_timer.ElapsedSeconds();

    // --- network + remote server (modeled) ---
    link_.Transfer(request.size(), &vclock);
    remote_.Process(count, &vclock);
    XdrWriter reply;
    FLEXRPC_RETURN_IF_ERROR(server_->Handle(request.span(), &reply));
    link_.Transfer(reply.size(), &vclock);

    // --- client-side unmarshal + delivery (measured) ---
    Stopwatch decode_timer;
    XdrReader reader(reply.span());
    FLEXRPC_RETURN_IF_ERROR(DecodeSunRpcReplySuccess(&reader, xid));
    FLEXRPC_ASSIGN_OR_RETURN(uint32_t delivered,
                             DecodeReply(kind, chunk, &reader));
    client_seconds += decode_timer.ElapsedSeconds();

    if (delivered != count) {
      return DataLossError(
          StrFormat("short read: wanted %u, got %u", count, delivered));
    }
    stats.bytes_read += delivered;
    ++stats.rpc_calls;
  }

  // Verification (not timed): the user buffer must hold the file bytes.
  if (std::memcmp(user_buffer, server_->content(), file_size) != 0) {
    return DataLossError("file contents corrupted in transit");
  }
  user_space_->Free(user_buffer);
  stats.client_seconds = client_seconds;
  stats.network_server_seconds = vclock.now_seconds();
  return stats;
}

Result<NfsClient::ReadStats> NfsClient::ReadFileOver(StubKind kind,
                                                     CallChannel* rpc,
                                                     VirtualClock* clock,
                                                     size_t chunk_bytes) {
  ReadStats stats;
  if (chunk_bytes == 0 || chunk_bytes > kNfsMaxData) {
    chunk_bytes = kNfsMaxData;
  }
  const uint64_t clock_start = clock->now_nanos();
  size_t file_size = server_->file_size();
  auto* user_buffer =
      static_cast<uint8_t*>(user_space_->Allocate(file_size));
  uint8_t fh[kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));

  double client_seconds = 0;
  Status first_error = Status::Ok();
  auto fail = [&first_error](Status st) {
    if (first_error.ok()) {
      first_error = std::move(st);
    }
  };
  // Submit every chunk; the window admits what fits and each completion
  // decodes into its own disjoint buffer region, so out-of-order replies
  // cannot interfere with each other.
  for (size_t offset = 0; offset < file_size; offset += chunk_bytes) {
    uint32_t count = static_cast<uint32_t>(
        file_size - offset < chunk_bytes ? file_size - offset
                                         : chunk_bytes);
    ChunkArgs chunk{fh, static_cast<uint32_t>(offset), count,
                    user_buffer + offset};
    uint32_t xid = next_xid_++;

    // --- client-side marshal (measured) ---
    XdrWriter request;
    Stopwatch encode_timer;
    EncodeSunRpcCall(&request,
                     SunRpcCall{xid, kNfsProgram, kNfsVersion,
                                kNfsProcRead});
    {
      // Attribute the encode to its xid (flight recorder).
      RecorderCallScope rec_scope(xid, clock);
      FLEXRPC_ASSIGN_OR_RETURN(uint32_t unused,
                               EncodeRequest(kind, chunk, &request));
      (void)unused;
    }
    client_seconds += encode_timer.ElapsedSeconds();

    // The SunRPC xid is the engine xid too, so wire, server, and marshal
    // events of one call share it.
    rpc->Submit(xid, request.span(),
                [this, kind, xid, chunk, clock, &stats, &client_seconds,
                 &fail](Status st, std::vector<uint8_t> reply) {
                  if (!st.ok()) {
                    fail(std::move(st));
                    return;
                  }
                  // The decode runs at completion time, deep inside
                  // Drive() — possibly after the call migrated replicas;
                  // the scope re-attributes it to this xid.
                  RecorderCallScope rec_scope(xid, clock);
                  // --- client-side unmarshal + delivery (measured) ---
                  Stopwatch decode_timer;
                  XdrReader reader(
                      ByteSpan(reply).subspan(kMuxPrefixBytes));
                  Status hdr = DecodeSunRpcReplySuccess(&reader, xid);
                  if (!hdr.ok()) {
                    fail(std::move(hdr));
                    return;
                  }
                  auto delivered = DecodeReply(kind, chunk, &reader);
                  client_seconds += decode_timer.ElapsedSeconds();
                  if (!delivered.ok()) {
                    fail(delivered.status());
                  } else if (*delivered != chunk.count) {
                    fail(DataLossError(
                        StrFormat("short read: wanted %u, got %u",
                                  chunk.count, *delivered)));
                  } else {
                    stats.bytes_read += *delivered;
                    ++stats.rpc_calls;
                  }
                });
  }

  // --- the wire, window-wide (modeled time) ---
  FLEXRPC_RETURN_IF_ERROR(rpc->Drive());
  FLEXRPC_RETURN_IF_ERROR(first_error);

  // Verification (not timed): faults, out-of-order completion, and
  // failover must still deliver exactly the file bytes.
  if (std::memcmp(user_buffer, server_->content(), file_size) != 0) {
    return DataLossError("file contents corrupted in transit");
  }
  user_space_->Free(user_buffer);
  stats.client_seconds = client_seconds;
  stats.network_server_seconds =
      static_cast<double>(clock->now_nanos() - clock_start) * 1e-9;
  return stats;
}

}  // namespace flexrpc
