#include "src/net/datagram.h"

#include <algorithm>
#include <array>

#include "src/support/recorder.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {
constexpr uint32_t kFrameMagic = 0x46444D31;  // "FDM1"
constexpr size_t kHeaderSize = 16;            // magic, seq, length, checksum

// The checksum: FNV-1a's step, run over kChecksumLanes independent lanes
// of 32-bit words and then over the lanes themselves (see datagram.h).
constexpr uint32_t kFnvBasis = 2166136261u;
constexpr uint32_t kFnvPrime = 16777619u;
constexpr size_t kChecksumLanes = 8;

// For a fixed input the step is a bijection of the state (the prime is
// odd), and for a fixed state a bijection of the input — so one changed
// input changes the state, and every later step keeps it changed.
uint32_t FnvStep(uint32_t state, uint32_t input) {
  return (state ^ input) * kFnvPrime;
}

// Word assembly by shifts, so the value depends on neither the host's byte
// order nor the pointer's alignment (compilers emit one load for these).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint32_t LoadBe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 |
         static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

// A frame travels as [header][payload] but is stored payload-first,
// [payload][header], so Receive can hand back the frame's own buffer with
// the header cut off its end. Maps an offset in the wire layout to the
// stored byte.
size_t StoredOffset(size_t wire_offset, size_t frame_size) {
  return wire_offset < kHeaderSize
             ? frame_size - kHeaderSize + wire_offset
             : wire_offset - kHeaderSize;
}

// The payload is a SunRPC message whose first word is the xid, so the
// channel can attribute wire and fault events to a call without the
// transport plumbing identity down. Returns 0 (unattributed) for frames
// too short to carry one.
uint32_t PeekPayloadXid(const uint8_t* payload, size_t size) {
  if (size < 4) {
    return 0;
  }
  return LoadBe32(payload);
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
  return PeekPayloadXid(frame.data(), frame.size() - kHeaderSize);
}

RecEndpoint WireEndpoint(DatagramChannel::Dir dir) {
  return dir == DatagramChannel::Dir::kAtoB ? RecEndpoint::kWireAtoB
                                            : RecEndpoint::kWireBtoA;
}
}  // namespace

uint32_t DatagramChecksum(ByteSpan payload) {
  constexpr size_t kRoundBytes = 4 * kChecksumLanes;
  const uint8_t* p = payload.data();
  const size_t n = payload.size();
  std::array<uint32_t, kChecksumLanes> lanes;
  lanes.fill(kFnvBasis);
  size_t i = 0;
  for (; i + kRoundBytes <= n; i += kRoundBytes) {
    for (size_t l = 0; l < kChecksumLanes; ++l) {
      lanes[l] = FnvStep(lanes[l], LoadLe32(p + i + 4 * l));
    }
  }
  uint32_t h = kFnvBasis;
  for (uint32_t lane : lanes) {
    h = FnvStep(h, lane);
  }
  for (; i < n; ++i) {  // the tail too short for a full round
    h = FnvStep(h, p[i]);
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
    // Flip one byte in the wire frame's length/checksum/payload region.
    // The receiver always detects it: a flipped length fails the length
    // check, and a one-byte edit of the checksum or of the payload always
    // fails the checksum comparison. The magic and sequence words are
    // skipped: they are not covered by the checksum, and an undetectably
    // corrupted frame would break fault accounting.
    size_t wire_pos = 8 + d.corrupt_salt % (frame.bytes.size() - 8);
    frame.bytes[StoredOffset(wire_pos, frame.bytes.size())] ^= 0xFF;
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
  // One allocation of the frame's exact size, stored payload-first (see
  // StoredOffset): the payload is copied once and the header appended.
  ByteWriter w(payload.size() + kHeaderSize);
  w.WriteSpan(payload);
  w.WriteU32Be(kFrameMagic);
  w.WriteU32Be(next_seq_[static_cast<size_t>(dir)]++);
  w.WriteU32Be(static_cast<uint32_t>(payload.size()));
  w.WriteU32Be(DatagramChecksum(payload));

  FaultPlan::Decision d = plans_[static_cast<size_t>(dir)].Next();
  // The framed bytes move out of the writer onto the wire queue; only a
  // duplicated frame needs a copy (net.frame_copies counts it).
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
  std::vector<uint8_t>& bytes = frame.bytes;
  if (bytes.size() < kHeaderSize) {
    return fail("datagram frame is shorter than its header");
  }
  // The header is stored after the payload (see StoredOffset).
  const uint8_t* header = bytes.data() + bytes.size() - kHeaderSize;
  if (LoadBe32(header) != kFrameMagic) {
    return fail("datagram frame has bad magic");
  }
  const uint32_t length = LoadBe32(header + 8);
  if (bytes.size() != kHeaderSize + length) {
    return fail("datagram frame has bad length");
  }
  if (DatagramChecksum(ByteSpan(bytes.data(), length)) !=
      LoadBe32(header + 12)) {
    return fail("datagram checksum mismatch");
  }
  ++stats_.delivered;
  TraceAdd(TraceCounter::kNetDatagramsDelivered);
  // Receive runs before the caller has parsed the frame, so no
  // RecorderConnScope encloses it; in conn-tagged mode the channel reads
  // the connection id out of the payload itself.
  std::optional<RecorderConnScope> conn_scope;
  if (conn_tagging_ && RecorderEnabled()) {
    conn_scope.emplace(PeekPayloadConn(bytes.data(), length));
  }
  RecordEvent(RecEvent::kWireRx, WireEndpoint(dir),
              RecorderEnabled() ? PeekPayloadXid(bytes.data(), length) : 0,
              clock_->now_nanos(), /*a=*/length);
  bytes.resize(length);  // strip the header: the frame's own buffer, no copy
  return std::move(bytes);
}

}  // namespace flexrpc
