#include "perfbench/src/spans.h"

#include "perfbench/src/alloc_counter.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kMarshalEncode:
      return "marshal.encode";
    case Layer::kNetLinkModel:
      return "net.link_model";
    case Layer::kAppsNfsServer:
      return "apps.nfs_server";
    case Layer::kMarshalDecode:
      return "marshal.decode";
    case Layer::kEventLoop:
      return "support.event_loop_self";
    case Layer::kGenerator:
      return "bench.generator";
    case Layer::kMuxSubmit:
      return "rpc.mux.submit";
    case Layer::kPoke:
      return "rpc.poke";
    case Layer::kAppHandler:
      return "app.handler";
    case Layer::kAppCompletion:
      return "app.completion";
    case Layer::kCount:
      break;
  }
  return "?";
}

void SpanRecorder::Begin(Layer layer, uint64_t call, uint64_t t) {
  Span span;
  span.start_ns = t;
  span.call = call;
  span.parent = stack_.empty() ? -1 : static_cast<int32_t>(stack_.back().span);
  span.layer = layer;
  // The recorder's own growth is bench cost: keep it out of every layer.
  bool counting = AllocCounting();
  SetAllocCounting(false);
  spans_.push_back(span);
  stack_.push_back(Frame{spans_.size() - 1, 0, 0, 0});
  SetAllocCounting(counting);
  stack_.back().alloc_start = AllocCount();
}

void SpanRecorder::End(uint64_t t) {
  Frame frame = stack_.back();
  stack_.pop_back();
  Span& span = spans_[frame.span];
  span.end_ns = t;
  uint64_t duration = t - span.start_ns;
  uint64_t allocs = AllocCount() - frame.alloc_start;
  size_t l = Index(span.layer);
  self_ns_[l] += duration - frame.child_ns;
  self_allocs_[l] += allocs - frame.child_allocs;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    stack_.back().child_allocs += allocs;
  }
}

bool AttributeSpans(const std::vector<Span>& spans, uint64_t wall_start,
                    uint64_t wall_end, Attribution* out) {
  *out = Attribution{};
  std::vector<uint64_t> child_ns(spans.size(), 0);
  uint64_t covered = 0;
  uint64_t last_top_end = wall_start;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      return false;  // never closed, or a clock that ran backwards
    }
    if (s.parent < 0) {
      if (s.start_ns < last_top_end || s.end_ns > wall_end) {
        return false;
      }
      last_top_end = s.end_ns;
      covered += s.end_ns - s.start_ns;
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    if (static_cast<size_t>(s.parent) >= i || s.start_ns < p.start_ns ||
        s.end_ns > p.end_ns) {
      return false;
    }
    child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    if (child_ns[i] > duration) {
      return false;  // overlapping children
    }
    out->self_ns[static_cast<size_t>(spans[i].layer)] +=
        duration - child_ns[i];
  }
  out->unattributed_ns = (wall_end - wall_start) - covered;
  return covered <= wall_end - wall_start;
}

bool WriteSpansTsv(const std::vector<Span>& spans, uint64_t origin,
                   std::FILE* out) {
  if (std::fprintf(out, "layer\tstart_ns\tend_ns\tconn\txid\tparent\n") < 0) {
    return false;
  }
  for (const Span& s : spans) {
    if (std::fprintf(out, "%s\t%llu\t%llu\t%u\t%u\t%d\n", LayerName(s.layer),
                     static_cast<unsigned long long>(s.start_ns - origin),
                     static_cast<unsigned long long>(s.end_ns - origin),
                     static_cast<unsigned>(s.call >> 32),
                     static_cast<unsigned>(s.call & 0xFFFFFFFFu),
                     s.parent) < 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
