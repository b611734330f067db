// nfs_read: the paper's Figure 2 setup driven one call at a time.
//
// One client reads an 8 MB file over the modeled 10 Mbit/s link from
// NfsFileServer, in a closed loop. Each call of a pass draws its
// presentation (conventional, or the Figure 1 [special] user buffer, 1:1)
// and its size class from the seed. The classes are "512 B" (256..768 B)
// and "8 KB" (7..8 KiB), uniform to the byte, drawn so that each moves
// half of the file's bytes: about 1 call in 16 is large. The 512 B class
// is then the median call and the 8 KB class the 99th percentile, and the
// spread of sizes inside a class makes the virtual percentiles continuous
// in the seed.
// Every pass replays the same plan, so virtual results repeat exactly.
//
// Per call the benchmark itself makes the four steps of NfsClient::ReadFile:
//   EncodeSunRpcCall + NfsClient::EncodeRequest          (marshal.encode)
//   LinkModel::Transfer + RemoteServerModel::Process     (net.link_model)
//   NfsFileServer::Handle                                (apps.nfs_server)
//   LinkModel::Transfer                                  (net.link_model)
//   DecodeSunRpcReplySuccess + NfsClient::DecodeReply    (marshal.decode,
//                                       including the osim CopyToUser)

#ifndef PERFBENCH_SRC_NFS_WORKLOAD_H_
#define PERFBENCH_SRC_NFS_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/apps/nfs.h"
#include "src/net/link.h"
#include "perfbench/src/spans.h"

namespace perfbench {

struct NfsChunk {
  uint32_t offset = 0;
  uint32_t count = 0;
  flexrpc::NfsClient::StubKind kind =
      flexrpc::NfsClient::StubKind::kGeneratedConventional;
};

// The seeded call sequence of one pass over a file of `file_size` bytes.
std::vector<NfsChunk> MakeNfsPassPlan(uint64_t seed, size_t file_size);

struct NfsPassResult {
  uint64_t calls = 0;
  uint64_t failed = 0;       // a step returned non-OK or a short read
  uint64_t wall_start = 0;   // host clock, the pass's measured region
  uint64_t wall_end = 0;
  uint64_t wire_bytes = 0;   // request + reply datagrams
};

class NfsBench {
 public:
  static constexpr size_t kFileSize = 8u << 20;

  // Set-up: builds the file, the client (IDL/PDL parse, marshal plans),
  // the user buffer and the pass plan.
  explicit NfsBench(uint64_t seed, size_t file_size = kFileSize);
  NfsBench(const NfsBench&) = delete;
  NfsBench& operator=(const NfsBench&) = delete;

  // One pass over the file. Fills host_call_ns() and virt_call_ns() (one
  // entry per call). With `spans`, opens a span at every step.
  NfsPassResult RunPass(SpanRecorder* spans);

  // Outside the timed region: the user buffer must hold the file bytes.
  // Clears the buffer afterwards, so the next pass has to write it again.
  bool VerifyAndClear();

  size_t calls_per_pass() const { return plan_.size(); }
  const std::vector<uint64_t>& host_call_ns() const { return host_ns_; }
  const std::vector<uint64_t>& virt_call_ns() const { return virt_ns_; }

 private:
  template <bool kTraced>
  NfsPassResult Pass(SpanRecorder* spans);

  flexrpc::NfsFileServer server_;
  flexrpc::NfsClient client_;
  flexrpc::LinkModel link_;
  flexrpc::RemoteServerModel remote_;
  uint8_t* user_buffer_ = nullptr;
  std::vector<NfsChunk> plan_;
  std::vector<uint64_t> host_ns_;
  std::vector<uint64_t> virt_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_NFS_WORKLOAD_H_
