#include "src/net/link.h"

#include <cmath>

#include "src/support/trace.h"

namespace flexrpc {

LinkModel::LinkModel() : config_(Config{}) {}
LinkModel::LinkModel(Config config) : config_(config) {}

RemoteServerModel::RemoteServerModel() : config_(Config{}) {}
RemoteServerModel::RemoteServerModel(Config config) : config_(config) {}

namespace {

uint64_t PacketsFor(const LinkModel::Config& config, uint64_t payload_bytes) {
  uint64_t packets =
      (payload_bytes + config.mtu_bytes - 1) / config.mtu_bytes;
  return packets == 0 ? 1 : packets;  // even an empty datagram occupies it
}

uint64_t WireBytesFor(const LinkModel::Config& config,
                      uint64_t payload_bytes) {
  return payload_bytes +
         PacketsFor(config, payload_bytes) * config.per_packet_overhead_bytes;
}

}  // namespace

double LinkModel::TransferSeconds(uint64_t payload_bytes) const {
  double serialization = static_cast<double>(WireBytesFor(
                             config_, payload_bytes)) *
                         8.0 / config_.bandwidth_bits_per_sec;
  return serialization + static_cast<double>(PacketsFor(
                             config_, payload_bytes)) *
                             config_.per_packet_latency_sec;
}

uint64_t LinkModel::OccupancyNanos(uint64_t payload_bytes) const {
  return static_cast<uint64_t>(
      static_cast<double>(WireBytesFor(config_, payload_bytes)) * 8.0 /
      config_.bandwidth_bits_per_sec * 1e9);
}

uint64_t LinkModel::LatencyNanos(uint64_t payload_bytes) const {
  return static_cast<uint64_t>(
      static_cast<double>(PacketsFor(config_, payload_bytes)) *
      config_.per_packet_latency_sec * 1e9);
}

void LinkModel::CountTransfer(uint64_t payload_bytes) const {
  if (!TraceEnabled()) {
    return;
  }
  TraceAdd(TraceCounter::kNetTransfers);
  TraceAdd(TraceCounter::kNetPackets, PacketsFor(config_, payload_bytes));
  TraceAdd(TraceCounter::kNetBytesOnWire,
           WireBytesFor(config_, payload_bytes));
  TraceAdd(TraceCounter::kNetWireVirtualNanos,
           static_cast<uint64_t>(TransferSeconds(payload_bytes) * 1e9));
}

void LinkModel::Transfer(uint64_t payload_bytes, VirtualClock* clock) const {
  CountTransfer(payload_bytes);
  clock->AdvanceSeconds(TransferSeconds(payload_bytes));
}

}  // namespace flexrpc
