#include "src/sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "src/support/event_queue.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace flexrpc {

namespace {

// NFS-style op mix; weights sum to 100. A zero request/reply size means
// the size is drawn per call from kBulkSizes (read replies and write
// requests are bimodal in real traces).
struct OpSpec {
  uint32_t weight;
  uint32_t op;
  uint32_t request_body_bytes;  // excludes the 8-byte mux prefix
  uint32_t reply_body_bytes;    // excludes the 8-byte echoed prefix
};
constexpr OpSpec kOps[] = {
    {40, 0, 120, 112},  // getattr
    {26, 1, 168, 128},  // lookup
    {22, 2, 136, 0},    // read: reply size drawn
    {8, 3, 0, 32},      // write: request size drawn
    {4, 4, 152, 512},   // readdir
};
constexpr uint32_t kBulkSizes[] = {512, 2048, 8192};

void AppendU32Be(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

uint64_t Interarrival(Rng* rng, const FleetConfig& config) {
  double u = rng->NextDouble();
  double mean = static_cast<double>(config.mean_interarrival_nanos);
  double x;
  if (config.heavy_tailed) {
    // Bounded Pareto, alpha 1.5, on [mean/4, 50*mean]: most gaps are
    // short bursts, a heavy tail of long silences keeps the mean
    // comparable to the exponential draw.
    constexpr double kAlpha = 1.5;
    double lo = mean / 4.0;
    double hi = mean * 50.0;
    double la = std::pow(lo, kAlpha);
    double ha = std::pow(hi, kAlpha);
    x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / kAlpha);
  } else {
    x = -std::log(1.0 - u) * mean;  // exponential: Poisson arrivals
  }
  return x < 1.0 ? 1 : static_cast<uint64_t>(x);
}

// One call's request body: [op u32][reply_size u32][pad]. The pad mimics
// the op's real argument size so wire occupancy is honest.
std::vector<uint8_t> MakeBody(Rng* rng) {
  uint64_t draw = rng->NextBelow(100);
  const OpSpec* spec = &kOps[0];
  for (const OpSpec& candidate : kOps) {
    spec = &candidate;
    if (draw < candidate.weight) {
      break;
    }
    draw -= candidate.weight;
  }
  uint32_t request_body = spec->request_body_bytes != 0
                              ? spec->request_body_bytes
                              : kBulkSizes[rng->NextBelow(3)];
  uint32_t reply_body = spec->reply_body_bytes != 0
                            ? spec->reply_body_bytes
                            : kBulkSizes[rng->NextBelow(3)];
  std::vector<uint8_t> body;
  body.reserve(request_body);
  AppendU32Be(&body, spec->op);
  AppendU32Be(&body, reply_body);
  while (body.size() < request_body) {
    body.push_back(static_cast<uint8_t>(body.size() & 0xFF));
  }
  return body;
}

}  // namespace

FleetResult RunFleet(const FleetConfig& config,
                     std::map<uint64_t, uint64_t>* executions) {
  VirtualClock clock;
  EventQueue events(&clock);
  DatagramChannel channel(LinkModel(config.link),
                          FaultPlan(config.fault_a_to_b),
                          FaultPlan(config.fault_b_to_a), &clock);

  // The server: echo the [xid][conn] prefix, fill the requested number of
  // deterministic payload bytes. The executions census is the at-most-
  // once proof's evidence — one increment per handler run.
  DatagramHandler handler = [executions](ByteSpan request,
                                         std::vector<uint8_t>* reply) {
    ByteReader r(request);
    auto xid = r.ReadU32Be();
    auto conn = r.ReadU32Be();
    auto op = r.ReadU32Be();
    auto reply_size = r.ReadU32Be();
    if (!xid.ok() || !conn.ok() || !op.ok() || !reply_size.ok()) {
      return InvalidArgumentError("fleet request too short");
    }
    if (executions != nullptr) {
      ++(*executions)[(static_cast<uint64_t>(*conn) << 32) | *xid];
    }
    reply->clear();
    reply->reserve(8 + *reply_size);
    AppendU32Be(reply, *xid);
    AppendU32Be(reply, *conn);
    for (uint32_t i = 0; i < *reply_size; ++i) {
      reply->push_back(static_cast<uint8_t>((*xid + i) & 0xFF));
    }
    return Status::Ok();
  };

  ConnectionMux mux(&channel, config.mux, &events);
  ServerDispatch dispatch(&channel, std::move(handler), config.dispatch,
                          &events);
  mux.set_request_listener([&dispatch]() { dispatch.Poke(); });
  dispatch.set_reply_listener([&mux]() { mux.Poke(); });

  // flexwatch: the sampler rides the same event queue. Its ticks only
  // *read* mux/dispatch state, so the simulation's event interleaving —
  // and every recording and trace counter — is identical with or without
  // it; the timeline itself is deterministic because the run is.
  std::optional<TimelineSampler> sampler;
  if (config.timeline_tick_nanos != 0) {
    sampler.emplace(&events, config.timeline_tick_nanos);
    // Series that count what a flextrace counter counts take its name.
    auto counter_name = [](TraceCounter c) {
      return std::string(TraceCounterName(c));
    };
    sampler->AddCounter("rpc.mux.completed",
                        [&mux]() { return mux.stats().completed; });
    sampler->AddCounter(counter_name(TraceCounter::kRpcMuxRetransmits),
                        [&mux]() { return mux.stats().retransmits; });
    sampler->AddCounter(counter_name(TraceCounter::kRpcDispatchExecutions),
                        [&dispatch]() { return dispatch.stats().executions; });
    sampler->AddCounter(counter_name(TraceCounter::kRpcDispatchShed),
                        [&dispatch]() {
                          return dispatch.stats().shed_accept +
                                 dispatch.stats().shed_run;
                        });
    sampler->AddGauge("rpc.mux.in_flight", [&mux]() {
      return static_cast<uint64_t>(mux.in_flight_calls());
    });
    sampler->AddGauge("rpc.mux.total_window",
                      [&mux]() { return mux.total_window(); });
    sampler->AddGauge("rpc.dispatch.queue_depth",
                      [&dispatch]() { return dispatch.CurrentQueueDepth(); });
  }

  FleetResult result;
  std::vector<uint64_t> latencies;
  latencies.reserve(static_cast<size_t>(config.num_clients) *
                    config.calls_per_client);
  uint64_t first_arrival = UINT64_MAX;
  uint64_t last_complete = 0;

  for (uint32_t i = 0; i < config.num_clients; ++i) {
    uint32_t conn = mux.OpenConnection();
    // Per-client SplitMix64 stream: arrivals, ops, and sizes all derive
    // from (seed, client index).
    Rng rng(config.seed ^ ((i + 1) * 0x9E3779B97F4A7C15ull));
    uint64_t t = 0;
    for (uint32_t k = 0; k < config.calls_per_client; ++k) {
      t += Interarrival(&rng, config);
      first_arrival = std::min(first_arrival, t);
      std::vector<uint8_t> body = MakeBody(&rng);
      // Open loop: the submission fires at the precomputed arrival time
      // whether or not earlier calls completed.
      events.ScheduleAt(t, [&mux, &clock, &result, &latencies,
                            &last_complete, conn,
                            body = std::move(body)]() {
        uint64_t submitted = clock.now_nanos();
        mux.Submit(conn, ByteSpan(body.data(), body.size()),
                   [&clock, &result, &latencies, &last_complete,
                    submitted](Status st, std::vector<uint8_t>) {
                     uint64_t now = clock.now_nanos();
                     last_complete = std::max(last_complete, now);
                     if (st.ok()) {
                       ++result.completed;
                       latencies.push_back(now - submitted);
                     } else {
                       ++result.failed;
                     }
                   });
      });
    }
  }

  if (sampler) {
    sampler->Start();
  }
  while (events.RunNext()) {
  }
  if (sampler) {
    result.timeline = sampler->Stop();
  }
  if (mux.outstanding() != 0) {
    result.status = InternalError(
        StrFormat("fleet stalled: %zu calls outstanding, no events pending",
                  mux.outstanding()));
  }

  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&latencies](double q) -> uint64_t {
    if (latencies.empty()) {
      return 0;
    }
    double pos = q * static_cast<double>(latencies.size() - 1);
    return latencies[static_cast<size_t>(pos + 0.5)];
  };
  result.p50_nanos = percentile(0.50);
  result.p99_nanos = percentile(0.99);
  result.p999_nanos = percentile(0.999);
  if (last_complete > first_arrival) {
    result.span_nanos = last_complete - first_arrival;
    result.throughput_cps = static_cast<double>(result.completed) /
                            (static_cast<double>(result.span_nanos) * 1e-9);
  }
  result.mux = mux.stats();
  result.dispatch = dispatch.stats();
  result.wire = channel.stats();
  result.dup_replies = dispatch.stats().dup_replies;
  result.executions = dispatch.endpoint().misses();
  result.cache_evictions = dispatch.endpoint().evictions();
  result.evicted_reexecs = dispatch.endpoint().evicted_reexecs();
  return result;
}

}  // namespace flexrpc
