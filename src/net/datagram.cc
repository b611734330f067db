#include "src/net/datagram.h"

#include <algorithm>

#include "src/support/recorder.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr uint32_t kFrameMagic = 0x46444D31;  // "FDM1"
constexpr size_t kHeaderSize = 16;            // magic, seq, length, checksum

// The payload is a SunRPC message whose first word is the xid, so the
// channel can attribute wire and fault events to a call without the
// transport plumbing identity down. Returns 0 (unattributed) for frames
// too short to carry one.
uint32_t PeekPayloadXid(const uint8_t* payload, size_t size) {
  if (size < 4) {
    return 0;
  }
  return (static_cast<uint32_t>(payload[0]) << 24) |
         (static_cast<uint32_t>(payload[1]) << 16) |
         (static_cast<uint32_t>(payload[2]) << 8) |
         static_cast<uint32_t>(payload[3]);
}

// Under the mux wire format the payload's second word is the connection
// id ([xid][conn][body]); 0 for frames too short to carry one.
uint32_t PeekPayloadConn(const uint8_t* payload, size_t size) {
  if (size < 8) {
    return 0;
  }
  return PeekPayloadXid(payload + 4, size - 4);
}

uint32_t PeekFrameXid(const std::vector<uint8_t>& frame) {
  if (frame.size() < kHeaderSize) {
    return 0;
  }
  return PeekPayloadXid(frame.data() + kHeaderSize,
                        frame.size() - kHeaderSize);
}

RecEndpoint WireEndpoint(DatagramChannel::Dir dir) {
  return dir == DatagramChannel::Dir::kAtoB ? RecEndpoint::kWireAtoB
                                            : RecEndpoint::kWireBtoA;
}
}  // namespace

uint32_t DatagramChecksum(ByteSpan payload) {
  uint32_t h = 2166136261u;
  for (uint8_t b : payload) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

DatagramChannel::DatagramChannel(LinkModel link, FaultPlan plan_a_to_b,
                                 FaultPlan plan_b_to_a, VirtualClock* clock)
    : link_(link), clock_(clock) {
  plans_[0] = std::move(plan_a_to_b);
  plans_[1] = std::move(plan_b_to_a);
}

void DatagramChannel::Transmit(Dir dir, std::vector<uint8_t> bytes,
                               const FaultPlan::Decision& d) {
  const uint32_t rec_xid =
      RecorderEnabled() ? PeekFrameXid(bytes) : 0;
  const RecEndpoint rec_ep = WireEndpoint(dir);
  uint64_t deliver_at = 0;
  if (scheduled_) {
    // The frame occupies the wire from when the medium frees up; latency
    // and extra delay pipeline on top and only push out the delivery time.
    link_.CountTransfer(bytes.size());
    uint64_t& wire_free = wire_free_nanos_[static_cast<size_t>(dir)];
    uint64_t start = std::max(clock_->now_nanos(), wire_free);
    wire_free = start + link_.OccupancyNanos(bytes.size());
    deliver_at =
        wire_free + link_.LatencyNanos(bytes.size()) + d.extra_delay_nanos;
    RecordEvent(RecEvent::kWireTx, rec_ep, rec_xid, start,
                /*a=*/wire_free - start, /*b=*/deliver_at - wire_free);
  } else {
    // Lockstep: the frame occupies the wire whether or not it arrives,
    // charged to the shared clock right now.
    RecordEvent(RecEvent::kWireTx, rec_ep, rec_xid, clock_->now_nanos(),
                /*a=*/link_.OccupancyNanos(bytes.size()),
                /*b=*/link_.LatencyNanos(bytes.size()));
    link_.Transfer(bytes.size(), clock_);
  }
  if (d.extra_delay_nanos > 0) {
    RecordEvent(RecEvent::kFaultDelay, rec_ep, rec_xid, clock_->now_nanos(),
                /*a=*/d.extra_delay_nanos, /*b=*/d.index);
  }
  if (d.drop) {
    ++stats_.dropped;
    TraceAdd(TraceCounter::kNetFaultDrops);
    RecordEvent(RecEvent::kFaultDrop, rec_ep, rec_xid, clock_->now_nanos(),
                /*a=*/0, /*b=*/d.index);
    return;
  }
  Frame frame;
  frame.bytes = std::move(bytes);
  frame.extra_delay_nanos = scheduled_ ? 0 : d.extra_delay_nanos;
  frame.deliver_at_nanos = deliver_at;
  if (d.extra_delay_nanos > 0) {
    TraceAdd(TraceCounter::kNetFaultExtraDelayVirtualNanos,
             d.extra_delay_nanos);
  }
  if (d.corrupt) {
    // Flip one byte in the length/checksum/payload region; the receiver's
    // length or checksum validation detects it. (The magic and sequence
    // words are skipped: they are not covered by the checksum, and an
    // undetectably corrupted frame would break fault accounting.)
    size_t pos = 8 + d.corrupt_salt % (frame.bytes.size() - 8);
    frame.bytes[pos] ^= 0xFF;
    ++stats_.corrupted;
    TraceAdd(TraceCounter::kNetFaultCorrupts);
    RecordEvent(RecEvent::kFaultCorrupt, rec_ep, rec_xid,
                clock_->now_nanos(), /*a=*/0, /*b=*/d.index);
  }
  auto& queue = queues_[static_cast<size_t>(dir)];
  if (d.reorder && !queue.empty()) {
    queue.push_front(std::move(frame));  // overtakes everything in flight
    ++stats_.reordered;
    TraceAdd(TraceCounter::kNetFaultReorders);
  } else {
    queue.push_back(std::move(frame));
  }
}

void DatagramChannel::Send(Dir dir, ByteSpan payload) {
  ++stats_.sent;
  TraceAdd(TraceCounter::kNetDatagramsSent);
  ByteWriter w;
  w.WriteU32Be(kFrameMagic);
  w.WriteU32Be(next_seq_[static_cast<size_t>(dir)]++);
  w.WriteU32Be(static_cast<uint32_t>(payload.size()));
  w.WriteU32Be(DatagramChecksum(payload));
  w.WriteSpan(payload);

  FaultPlan::Decision d = plans_[static_cast<size_t>(dir)].Next();
  // Release the framed bytes straight out of the writer — the send path
  // performs no frame-buffer copy (net.frame_copies counts any that
  // remain; only duplicated frames need one).
  std::vector<uint8_t> bytes = w.TakeBuffer();
  if (d.duplicate) {
    ++stats_.duplicated;
    TraceAdd(TraceCounter::kNetFaultDups);
    TraceAdd(TraceCounter::kNetFrameCopies);
    RecordEvent(RecEvent::kFaultDup, WireEndpoint(dir),
                RecorderEnabled() ? PeekFrameXid(bytes) : 0,
                clock_->now_nanos(), /*a=*/0, /*b=*/d.index);
    // The duplicate travels as its own physical frame with no further
    // faults of its own (the plan decided this packet, not the copy).
    Transmit(dir, bytes, FaultPlan::Decision{});
  }
  Transmit(dir, std::move(bytes), d);
}

bool DatagramChannel::HasPending(Dir dir) const {
  const auto& queue = queues_[static_cast<size_t>(dir)];
  if (queue.empty()) {
    return false;
  }
  return !scheduled_ ||
         queue.front().deliver_at_nanos <= clock_->now_nanos();
}

std::optional<uint64_t> DatagramChannel::NextDeliveryNanos(Dir dir) const {
  const auto& queue = queues_[static_cast<size_t>(dir)];
  if (queue.empty()) {
    return std::nullopt;
  }
  return queue.front().deliver_at_nanos;
}

Result<std::vector<uint8_t>> DatagramChannel::Receive(Dir dir) {
  auto& queue = queues_[static_cast<size_t>(dir)];
  if (queue.empty()) {
    return FailedPreconditionError("no datagram pending");
  }
  if (scheduled_ && queue.front().deliver_at_nanos > clock_->now_nanos()) {
    return FailedPreconditionError("next datagram is still in flight");
  }
  Frame frame = std::move(queue.front());
  queue.pop_front();
  if (frame.extra_delay_nanos > 0) {
    clock_->AdvanceNanos(frame.extra_delay_nanos);
  }
  auto fail = [&](const char* why) -> Result<std::vector<uint8_t>> {
    ++stats_.checksum_failures;
    TraceAdd(TraceCounter::kNetChecksumFailures);
    return DataLossError(why);
  };
  ByteReader r(ByteSpan(frame.bytes.data(), frame.bytes.size()));
  auto magic = r.ReadU32Be();
  if (!magic.ok() || *magic != kFrameMagic) {
    return fail("datagram frame has bad magic");
  }
  auto seq = r.ReadU32Be();
  auto length = r.ReadU32Be();
  auto checksum = r.ReadU32Be();
  (void)seq;
  if (!length.ok() || !checksum.ok() ||
      frame.bytes.size() != kHeaderSize + *length) {
    return fail("datagram frame has bad length");
  }
  ByteSpan payload(frame.bytes.data() + kHeaderSize, *length);
  if (DatagramChecksum(payload) != *checksum) {
    return fail("datagram checksum mismatch");
  }
  ++stats_.delivered;
  TraceAdd(TraceCounter::kNetDatagramsDelivered);
  // Receive runs before the caller has parsed the frame, so no
  // RecorderConnScope encloses it; in conn-tagged mode the channel reads
  // the connection id out of the payload itself.
  std::optional<RecorderConnScope> conn_scope;
  if (conn_tagging_ && RecorderEnabled()) {
    conn_scope.emplace(PeekPayloadConn(payload.data(), *length));
  }
  RecordEvent(RecEvent::kWireRx, WireEndpoint(dir),
              RecorderEnabled() ? PeekPayloadXid(payload.data(), *length) : 0,
              clock_->now_nanos(), /*a=*/*length);
  return std::vector<uint8_t>(payload.begin(), payload.end());
}

}  // namespace flexrpc
