// DatagramChannel — framed, checksummed datagrams over a faulty LinkModel.
//
// The channel moves whole datagrams between two endpoints (A = client,
// B = server) through per-direction FIFO queues. Each send is framed with a
// magic word, a per-direction sequence number, the payload length, and a
// word-parallel FNV-1a checksum over the payload (DatagramChecksum); the
// FaultPlan for that direction then decides whether the frame is dropped,
// duplicated, reordered ahead of the queue, corrupted (one byte flipped —
// the length or checksum check catches it at the receiver, exactly like a
// UDP checksum discard), or held back by an extra delivery delay. Wire
// occupancy is charged to the VirtualClock at send time for every physical
// transmission (dropped and duplicated frames occupied the wire too); extra
// delay is charged at delivery.
//
// Each byte is copied once: Send builds a frame in one allocation of its
// exact size, and Receive validates the frame and returns that same buffer
// with the header stripped. Only a fault-injected duplicate is copied
// (net.frame_copies).
//
// The channel is a single-threaded simulation artifact: Send/Receive run on
// the caller's thread and "time" is the shared virtual clock, which is what
// keeps every fault sequence and timestamp reproducible from the seeds.

#ifndef FLEXRPC_SRC_NET_DATAGRAM_H_
#define FLEXRPC_SRC_NET_DATAGRAM_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/net/fault.h"
#include "src/net/link.h"
#include "src/support/bytes.h"
#include "src/support/status.h"
#include "src/support/timing.h"

namespace flexrpc {

// The frame checksum: FNV-1a's step, h = (h ^ w) * 16777619, run word-
// parallel. Eight independent 32-bit lanes, each seeded with the FNV offset
// basis, take one 32-bit word per round (32 bytes per round); each word is
// assembled little-endian from bytes, so the value depends on neither the
// host's byte order nor the span's alignment. The lanes are then folded
// into one hash with the same step, and the tail too short for a full
// round is hashed byte by byte. Every step is a bijection of its state for
// a fixed input and of its input for a fixed state, so an edit confined to
// one byte, or to one aligned word of a full round, always changes the
// checksum.
uint32_t DatagramChecksum(ByteSpan payload);

class DatagramChannel {
 public:
  enum class Dir {
    kAtoB = 0,  // client -> server
    kBtoA = 1,  // server -> client
  };

  struct Stats {
    uint64_t sent = 0;        // frames handed to Send (pre-fault)
    uint64_t delivered = 0;   // frames returned intact by Receive
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t reordered = 0;
    uint64_t corrupted = 0;   // corrupted in flight (by the plan)
    uint64_t checksum_failures = 0;  // corruption detected at the receiver
  };

  DatagramChannel(LinkModel link, FaultPlan plan_a_to_b,
                  FaultPlan plan_b_to_a, VirtualClock* clock);

  // Frames `payload` and transmits it in direction `dir`, applying that
  // direction's fault plan. Charges wire time for every physical frame.
  void Send(Dir dir, ByteSpan payload);

  // True when a frame is waiting to be received in direction `dir`.
  bool HasPending(Dir dir) const;

  // Delivers the next frame's payload. Returns kDataLoss when the frame
  // fails validation (bad magic/length/checksum) — the frame is consumed,
  // as a real UDP stack silently discards it. kFailedPrecondition when the
  // queue is empty (callers should check HasPending first).
  Result<std::vector<uint8_t>> Receive(Dir dir);

  // --- scheduled delivery (event-driven transports) ------------------
  //
  // In the default lockstep mode Send charges wire time to the shared
  // clock inline and a queued frame is receivable immediately. In
  // scheduled mode Send instead stamps each frame with a delivery
  // timestamp: wire occupancy serializes per direction through a
  // busy-until horizon, while per-packet latency and fault extra delay
  // pipeline on top of it. HasPending/Receive then only surface frames
  // whose timestamp the clock has reached, and an event-driven transport
  // polls NextDeliveryNanos to know when to wake up. Pick the mode before
  // the first Send and do not mix transports on one channel.
  void set_scheduled_delivery(bool on) { scheduled_ = on; }
  bool scheduled_delivery() const { return scheduled_; }

  // Multiplexed framing: the payload's second big-endian word is the
  // connection id ([xid][conn][body] — the mux wire format). When on,
  // Receive tags its wire-delivery record events with that connection so
  // flexrec can attribute them to the (conn, xid) call; send-side events
  // inherit the caller's RecorderConnScope instead. Off by default — a
  // channel carrying other framings puts arbitrary body bytes there.
  void set_conn_tagging(bool on) { conn_tagging_ = on; }

  // Delivery timestamp of the frame at the head of `dir`'s queue (which
  // may still be in flight); nullopt when the queue is empty. Only
  // meaningful in scheduled mode (lockstep frames carry timestamp 0).
  std::optional<uint64_t> NextDeliveryNanos(Dir dir) const;

  const Stats& stats() const { return stats_; }
  VirtualClock* clock() { return clock_; }
  const LinkModel& link() const { return link_; }

 private:
  struct Frame {
    std::vector<uint8_t> bytes;       // [payload][header], post-corruption
    uint64_t extra_delay_nanos = 0;   // charged at delivery (lockstep mode)
    uint64_t deliver_at_nanos = 0;    // receivable time (scheduled mode)
  };

  void Transmit(Dir dir, std::vector<uint8_t> bytes,
                const FaultPlan::Decision& d);

  LinkModel link_;
  FaultPlan plans_[2];
  VirtualClock* clock_;
  std::deque<Frame> queues_[2];
  uint32_t next_seq_[2] = {0, 0};
  bool scheduled_ = false;
  bool conn_tagging_ = false;
  uint64_t wire_free_nanos_[2] = {0, 0};  // per-direction busy-until horizon
  Stats stats_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_NET_DATAGRAM_H_
