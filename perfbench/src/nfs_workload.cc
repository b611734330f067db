#include "perfbench/src/nfs_workload.h"

#include <cstring>

#include "src/marshal/xdr.h"
#include "src/net/sunrpc.h"
#include "src/support/rng.h"

namespace perfbench {

using flexrpc::NfsClient;

std::vector<NfsChunk> MakeNfsPassPlan(uint64_t seed, size_t file_size) {
  flexrpc::Rng rng(seed ^ 0x6E66735F72656164ull);  // "nfs_read"
  std::vector<NfsChunk> plan;
  for (size_t offset = 0; offset < file_size;) {
    NfsChunk c;
    c.offset = static_cast<uint32_t>(offset);
    c.kind = rng.NextBool() ? NfsClient::StubKind::kGeneratedUserBuffer
                            : NfsClient::StubKind::kGeneratedConventional;
    // Mean sizes 512 B and 7.5 KiB at odds 15:1 move equal byte shares.
    bool large = rng.NextBelow(16) == 0;
    size_t count = static_cast<size_t>(large ? rng.NextInRange(7168, 8192)
                                             : rng.NextInRange(256, 768));
    if (count > file_size - offset) {
      count = file_size - offset;
    }
    c.count = static_cast<uint32_t>(count);
    plan.push_back(c);
    offset += count;
  }
  return plan;
}

NfsBench::NfsBench(uint64_t seed, size_t file_size)
    : server_(file_size, seed),
      client_(&server_, flexrpc::LinkModel(), flexrpc::RemoteServerModel()),
      plan_(MakeNfsPassPlan(seed, file_size)) {
  user_buffer_ =
      static_cast<uint8_t*>(client_.user_space()->Allocate(file_size));
  std::memset(user_buffer_, 0, file_size);
  host_ns_.assign(plan_.size(), 0);
  virt_ns_.assign(plan_.size(), 0);
}

NfsPassResult NfsBench::RunPass(SpanRecorder* spans) {
  return spans == nullptr ? Pass<false>(nullptr) : Pass<true>(spans);
}

template <bool kTraced>
NfsPassResult NfsBench::Pass(SpanRecorder* spans) {
  NfsPassResult result;
  uint8_t fh[flexrpc::kNfsFhSize];
  std::memset(fh, 0xFD, sizeof(fh));
  flexrpc::VirtualClock vclock;
  result.wall_start = HostNowNanos();
  for (size_t i = 0; i < plan_.size(); ++i) {
    const NfsChunk& c = plan_[i];
    NfsClient::ChunkArgs chunk{fh, c.offset, c.count, user_buffer_ + c.offset};
    const uint32_t xid = static_cast<uint32_t>(i + 1);
    const uint64_t due = vclock.now_nanos();  // closed loop: due right now

    const uint64_t t0 = HostNowNanos();
    if constexpr (kTraced) {
      spans->Begin(Layer::kMarshalEncode, i, t0);
    }
    flexrpc::XdrWriter request;
    flexrpc::EncodeSunRpcCall(
        &request, flexrpc::SunRpcCall{xid, flexrpc::kNfsProgram,
                                      flexrpc::kNfsVersion,
                                      flexrpc::kNfsProcRead});
    bool ok = client_.EncodeRequest(c.kind, chunk, &request).ok();
    if constexpr (kTraced) {
      uint64_t t = HostNowNanos();
      spans->End(t);
      spans->Begin(Layer::kNetLinkModel, i, t);
    }
    link_.Transfer(request.size(), &vclock);
    remote_.Process(c.count, &vclock);
    if constexpr (kTraced) {
      uint64_t t = HostNowNanos();
      spans->End(t);
      spans->Begin(Layer::kAppsNfsServer, i, t);
    }
    flexrpc::XdrWriter reply;
    ok = server_.Handle(request.span(), &reply).ok() && ok;
    if constexpr (kTraced) {
      uint64_t t = HostNowNanos();
      spans->End(t);
      spans->Begin(Layer::kNetLinkModel, i, t);
    }
    link_.Transfer(reply.size(), &vclock);
    if constexpr (kTraced) {
      uint64_t t = HostNowNanos();
      spans->End(t);
      spans->Begin(Layer::kMarshalDecode, i, t);
    }
    flexrpc::XdrReader reader(reply.span());
    if (flexrpc::DecodeSunRpcReplySuccess(&reader, xid).ok()) {
      auto delivered = client_.DecodeReply(c.kind, chunk, &reader);
      ok = delivered.ok() && *delivered == c.count && ok;
    } else {
      ok = false;
    }
    const uint64_t t1 = HostNowNanos();
    if constexpr (kTraced) {
      spans->End(t1);
    }

    host_ns_[i] = t1 - t0;
    virt_ns_[i] = vclock.now_nanos() - due;
    result.wire_bytes += request.size() + reply.size();
    ++result.calls;
    if (!ok) {
      ++result.failed;
    }
  }
  result.wall_end = HostNowNanos();
  return result;
}

bool NfsBench::VerifyAndClear() {
  bool same = std::memcmp(user_buffer_, server_.content(),
                          server_.file_size()) == 0;
  std::memset(user_buffer_, 0, server_.file_size());
  return same;
}

}  // namespace perfbench
