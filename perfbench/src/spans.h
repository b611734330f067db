// In-memory host-clock spans at the layer boundaries the benchmark calls.
//
// The traced pass opens a span around every call the benchmark makes into
// a layer (and around each event-loop step). Spans nest: a span's self
// time is its duration minus the durations of the spans opened inside it,
// and the same holds for heap allocations. Self times are summed online
// per layer; the spans themselves are kept in memory so that the closure
// check (self times + unattributed time == wall time) can be recomputed
// from them independently, and so that one repetition can be written out
// when the run ends.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

// Every timed boundary. The names are the per-layer metric prefixes.
enum class Layer : uint8_t {
  // nfs_read: the NFS stub path.
  kMarshalEncode,  // EncodeSunRpcCall + NfsClient::EncodeRequest
  kNetLinkModel,   // LinkModel::Transfer + RemoteServerModel::Process
  kAppsNfsServer,  // NfsFileServer::Handle
  kMarshalDecode,  // DecodeSunRpcReplySuccess + NfsClient::DecodeReply
  // fleets: the multiplexed transport stack.
  kEventLoop,      // EventQueue::RunNext, minus everything nested in it
  kGenerator,      // the benchmark's arrival callback around Submit
  kMuxSubmit,      // ConnectionMux::Submit (incl. the first Send)
  kPoke,           // ServerDispatch::Poke / ConnectionMux::Poke hooks
  kAppHandler,     // the fleet server's request handler
  kAppCompletion,  // the fleet client's completion callback
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

inline uint64_t HostNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t call = 0;     // (conn << 32) | xid, or the nfs_read call index
  int32_t parent = -1;   // index into spans(), -1 for a top-level span
  Layer layer = Layer::kCount;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span at host time `t` (a HostNowNanos reading; sharing one
  // reading between an End and the next Begin makes spans contiguous).
  void Begin(Layer layer, uint64_t call, uint64_t t);
  void Begin(Layer layer, uint64_t call) { Begin(layer, call, HostNowNanos()); }
  // Sets the call identity of the innermost open span.
  void Label(uint64_t call) { spans_[stack_.back().span].call = call; }
  // Closes the innermost open span at host time `t`.
  void End(uint64_t t);
  void End() { End(HostNowNanos()); }

  // Online per-layer totals since construction.
  uint64_t self_ns(Layer l) const { return self_ns_[Index(l)]; }
  uint64_t self_allocs(Layer l) const { return self_allocs_[Index(l)]; }

  // The spans recorded since the last ClearSpans(), in opening order.
  const std::vector<Span>& spans() const { return spans_; }
  void ClearSpans() { spans_.clear(); }
  bool open() const { return !stack_.empty(); }

 private:
  struct Frame {
    size_t span;
    uint64_t alloc_start;
    uint64_t child_ns;
    uint64_t child_allocs;
  };
  static size_t Index(Layer l) { return static_cast<size_t>(l); }

  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  uint64_t self_ns_[kLayerCount] = {};
  uint64_t self_allocs_[kLayerCount] = {};
};

// Recomputes self time from the span list alone: per layer, and the time
// of [wall_start, wall_end] that no top-level span covers. Returns false
// when the spans are not properly nested, overlap, or fall outside the
// wall interval — i.e. when self times plus unattributed time would not
// add up to the wall time.
struct Attribution {
  uint64_t self_ns[kLayerCount] = {};
  uint64_t unattributed_ns = 0;
};
bool AttributeSpans(const std::vector<Span>& spans, uint64_t wall_start,
                    uint64_t wall_end, Attribution* out);

// Writes spans as TSV: layer, start_ns, end_ns (relative to `origin`),
// conn, xid, parent. Returns false on an I/O error.
bool WriteSpansTsv(const std::vector<Span>& spans, uint64_t origin,
                   std::FILE* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
