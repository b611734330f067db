#include "perfbench/src/fleet_workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "perfbench/src/alloc_counter.h"
#include "perfbench/src/report.h"
#include "src/rpc/retry.h"
#include "src/support/rng.h"

namespace perfbench {

using flexrpc::ByteSpan;
using flexrpc::FleetConfig;
using flexrpc::Status;

namespace {

constexpr auto kAtoB = flexrpc::DatagramChannel::Dir::kAtoB;
constexpr auto kBtoA = flexrpc::DatagramChannel::Dir::kBtoA;

// RunFleet seeds client i's SplitMix64 stream with seed ^ (i+1)*golden,
// and SplitMix64 steps its state by that same golden constant, so for a
// small seed the clients' streams are shifted copies of each other. The
// benchmark hands RunFleet well-mixed 64-bit seeds instead.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  return flexrpc::Rng(seed * 0x9E3779B97F4A7C15ull + stream).NextU64();
}

FleetConfig BaseConfig(uint64_t seed, uint32_t part) {
  // The bench_fleet_nfs sweep's server: 8 workers at 50 us + 20 ns/B.
  FleetConfig config;
  config.mean_interarrival_nanos = 3'000'000;
  config.seed = MixSeed(seed, 3 * part);
  config.dispatch.workers = 8;
  config.dispatch.service.per_call_sec = 50e-6;
  config.dispatch.service.per_byte_sec = 20e-9;
  config.dispatch.run_queue_limit = 64;
  config.dispatch.cache_capacity = 64;
  return config;
}

// RunFleet's workload draws (src/sim/fleet.cc), repeated here so the
// benchmark can generate the workload before the clock starts. Any drift
// fails perfbench_test's RunFleet equivalence check.
struct OpSpec {
  uint32_t weight;
  uint32_t op;
  uint32_t request_body_bytes;
  uint32_t reply_body_bytes;
};
constexpr OpSpec kOps[] = {
    {40, 0, 120, 112}, {26, 1, 168, 128}, {22, 2, 136, 0},
    {8, 3, 0, 32},     {4, 4, 152, 512},
};
constexpr uint32_t kBulkSizes[] = {512, 2048, 8192};

uint64_t Interarrival(flexrpc::Rng* rng, const FleetConfig& config) {
  double u = rng->NextDouble();
  double mean = static_cast<double>(config.mean_interarrival_nanos);
  double x;
  if (config.heavy_tailed) {
    constexpr double kAlpha = 1.5;
    double lo = mean / 4.0;
    double hi = mean * 50.0;
    double la = std::pow(lo, kAlpha);
    double ha = std::pow(hi, kAlpha);
    x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / kAlpha);
  } else {
    x = -std::log(1.0 - u) * mean;
  }
  return x < 1.0 ? 1 : static_cast<uint64_t>(x);
}

void AppendU32Be(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

uint32_t ReadU32Be(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

struct BodyDraw {
  uint32_t op;
  uint32_t request_body;  // bytes, [op][reply_size] included
  uint32_t reply_body;
};

BodyDraw DrawBody(flexrpc::Rng* rng) {
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
  return BodyDraw{spec->op, request_body, reply_body};
}

// RunFleet's body bytes: [op][reply_size][pad], pad byte i = i & 0xFF.
void AppendBody(const BodyDraw& body, std::vector<uint8_t>* pool) {
  size_t start = pool->size();
  AppendU32Be(pool, body.op);
  AppendU32Be(pool, body.reply_body);
  while (pool->size() - start < body.request_body) {
    pool->push_back(static_cast<uint8_t>((pool->size() - start) & 0xFF));
  }
}

uint64_t CallKey(uint32_t conn, uint32_t xid) {
  return (static_cast<uint64_t>(conn) << 32) | xid;
}

volatile uint64_t g_sink = 0;  // keeps replayed results observable

}  // namespace

FleetConfig FleetSteadyConfig(uint64_t seed, uint32_t part) {
  FleetConfig config = BaseConfig(seed, part);
  config.num_clients = 100;
  config.calls_per_client = 200;
  return config;
}

FleetConfig FleetOverloadLossyConfig(uint64_t seed, uint32_t part) {
  FleetConfig config = BaseConfig(seed, part);
  config.num_clients = 1000;
  config.calls_per_client = 60;
  // At 8 attempts an occasional call of the backlog's tail exhausts its
  // budget; 12 keeps every seed failure-free (the 4 s deadline never binds).
  config.mux.retry.max_attempts = 12;
  flexrpc::FaultConfig faults;
  faults.drop_prob = 0.02;
  faults.dup_prob = 0.02;
  faults.reorder_prob = 0.02;
  faults.corrupt_prob = 0.005;
  config.fault_a_to_b = faults;
  config.fault_a_to_b.seed = MixSeed(seed, 3 * part + 1);
  config.fault_b_to_a = faults;
  config.fault_b_to_a.seed = MixSeed(seed, 3 * part + 2);
  return config;
}

bool FleetOutcome::Correct() const {
  return outstanding == 0 && evicted_reexecs == 0 && late_arrivals == 0 &&
         bad_replies == 0 && completed + failed == calls;
}

FleetBench::FleetBench(const FleetConfig& config, SpanRecorder* spans)
    : config_(config),
      spans_(spans),
      events_(&clock_),
      channel_(flexrpc::LinkModel(config.link),
               flexrpc::FaultPlan(config.fault_a_to_b),
               flexrpc::FaultPlan(config.fault_b_to_a), &clock_),
      mux_(&channel_, config.mux, &events_),
      dispatch_(&channel_,
                [this](ByteSpan request, std::vector<uint8_t>* reply) {
                  return Handle(request, reply);
                },
                config.dispatch, &events_) {
  if (spans_ == nullptr) {
    mux_.set_request_listener([this]() { dispatch_.Poke(); });
    dispatch_.set_reply_listener([this]() { mux_.Poke(); });
  } else {
    mux_.set_request_listener([this]() {
      spans_->Begin(Layer::kPoke, 0);
      dispatch_.Poke();
      spans_->End();
    });
    dispatch_.set_reply_listener([this]() {
      spans_->Begin(Layer::kPoke, 0);
      mux_.Poke();
      spans_->End();
    });
  }

  // The whole workload, client-major like RunFleet: per-client SplitMix64
  // streams keyed by (seed, client index).
  const size_t total = static_cast<size_t>(config.num_clients) *
                       config.calls_per_client;
  calls_.reserve(total);
  std::vector<BodyDraw> bodies;
  bodies.reserve(total);
  size_t pool_size = 0;
  for (uint32_t i = 0; i < config.num_clients; ++i) {
    uint32_t conn = mux_.OpenConnection();
    flexrpc::Rng rng(config.seed ^ ((i + 1) * 0x9E3779B97F4A7C15ull));
    uint64_t t = 0;
    for (uint32_t k = 0; k < config.calls_per_client; ++k) {
      t += Interarrival(&rng, config);
      bodies.push_back(DrawBody(&rng));
      Call call;
      call.due = t;
      call.conn = conn;
      call.xid = k + 1;  // the mux numbers each connection's calls from 1
      call.body_offset = static_cast<uint32_t>(pool_size);
      call.body_size = bodies.back().request_body;
      call.reply_size = bodies.back().reply_body;
      pool_size += call.body_size;
      first_arrival_ = std::min(first_arrival_, t);
      last_arrival_ = std::max(last_arrival_, t);
      calls_.push_back(call);
    }
  }
  // Sized once: a doubling pool would make peak RSS depend on the seed.
  body_pool_.reserve(pool_size);
  for (const BodyDraw& body : bodies) {
    AppendBody(body, &body_pool_);
  }
  // Open loop: each submission fires at its arrival time whether or not
  // earlier calls completed. Same scheduling order as RunFleet, so equal
  // deadlines break ties identically.
  for (uint32_t index = 0; index < calls_.size(); ++index) {
    events_.ScheduleAt(calls_[index].due, [this, index]() { Arrive(index); });
  }
  latencies_.reserve(total);
  submit_ns_.reserve(total);
  if (spans_ != nullptr) {
    submitted_.reserve(total);
    executed_.reserve(total);
    reply_sizes_.reserve(total);
  }
}

void FleetBench::Arrive(uint32_t index) {
  const Call& call = calls_[index];
  if (clock_.now_nanos() != call.due) {
    ++late_;
  }
  const uint64_t key = CallKey(call.conn, call.xid);
  if (spans_ != nullptr) {
    spans_->Begin(Layer::kGenerator, key);
    submitted_.push_back(index);
  }
  const uint64_t t0 = HostNowNanos();
  if (spans_ != nullptr) {
    spans_->Begin(Layer::kMuxSubmit, key, t0);
  }
  mux_.Submit(call.conn,
              ByteSpan(body_pool_.data() + call.body_offset, call.body_size),
              [this, index](Status status, std::vector<uint8_t> reply) {
                Complete(index, status, reply);
              });
  const uint64_t t1 = HostNowNanos();
  if (spans_ != nullptr) {
    spans_->End(t1);
  }
  submit_ns_.push_back(t1 - t0);
  if (spans_ != nullptr) {
    spans_->End();
  }
}

void FleetBench::Complete(uint32_t index, const Status& status,
                          const std::vector<uint8_t>& reply) {
  const Call& call = calls_[index];
  if (spans_ != nullptr) {
    spans_->Begin(Layer::kAppCompletion, CallKey(call.conn, call.xid));
  }
  uint64_t now = clock_.now_nanos();
  last_complete_ = std::max(last_complete_, now);
  if (status.ok()) {
    ++completed_;
    if (now <= last_arrival_) {
      ++window_completed_;
    }
    latencies_.push_back(now - call.due);
    if (reply.size() != 8 + static_cast<size_t>(call.reply_size) ||
        ReadU32Be(reply.data()) != call.xid ||
        ReadU32Be(reply.data() + 4) != call.conn) {
      ++bad_replies_;
    }
    if (spans_ != nullptr) {
      reply_sizes_.push_back(static_cast<uint32_t>(reply.size()));
    }
  } else {
    ++failed_;
  }
  if (spans_ != nullptr) {
    spans_->End();
  }
}

// RunFleet's server: echo the [xid][conn] prefix, then reply_size
// deterministic bytes.
Status FleetBench::Handle(ByteSpan request, std::vector<uint8_t>* reply) {
  if (spans_ != nullptr) {
    spans_->Begin(Layer::kAppHandler, 0);
  }
  Status status = Status::Ok();
  if (request.size() < 16) {
    status = flexrpc::InvalidArgumentError("fleet request too short");
  } else {
    uint32_t xid = ReadU32Be(request.data());
    uint32_t conn = ReadU32Be(request.data() + 4);
    uint32_t reply_size = ReadU32Be(request.data() + 12);
    reply->clear();
    reply->reserve(8 + reply_size);
    AppendU32Be(reply, xid);
    AppendU32Be(reply, conn);
    for (uint32_t i = 0; i < reply_size; ++i) {
      reply->push_back(static_cast<uint8_t>((xid + i) & 0xFF));
    }
    if (spans_ != nullptr && conn >= 1 && xid >= 1) {
      spans_->Label(CallKey(conn, xid));
      executed_.push_back((conn - 1) * config_.calls_per_client + (xid - 1));
    }
  }
  if (spans_ != nullptr) {
    spans_->End();
  }
  return status;
}

void FleetBench::Run() {
  if (spans_ == nullptr) {
    while (events_.RunNext()) {
      ++events_run_;
    }
    return;
  }
  for (;;) {
    spans_->Begin(Layer::kEventLoop, 0);
    bool ran = events_.RunNext();
    spans_->End();
    if (!ran) {
      break;
    }
    ++events_run_;
    pending_sum_ += events_.pending();
  }
}

double FleetBench::mean_pending() const {
  return events_run_ == 0 ? 0
                          : static_cast<double>(pending_sum_) /
                                static_cast<double>(events_run_);
}

FleetOutcome FleetBench::Finish() {
  FleetOutcome o;
  o.calls = calls_.size();
  o.completed = completed_;
  o.failed = failed_;
  std::vector<uint64_t> sorted = latencies_;
  o.p50_nanos = Percentile(&sorted, 0.50);
  o.p99_nanos = Percentile(&sorted, 0.99);
  o.p999_nanos = Percentile(&sorted, 0.999);
  if (last_complete_ > first_arrival_) {
    o.span_nanos = last_complete_ - first_arrival_;
    o.throughput_cps = static_cast<double>(completed_) /
                       (static_cast<double>(o.span_nanos) * 1e-9);
  }
  o.window_completed = window_completed_;
  o.window_nanos = last_arrival_ - first_arrival_;
  o.mux = mux_.stats();
  o.dispatch = dispatch_.stats();
  o.wire = channel_.stats();
  o.executions = dispatch_.endpoint().misses();
  o.evicted_reexecs = dispatch_.endpoint().evicted_reexecs();
  o.outstanding = mux_.outstanding();
  o.late_arrivals = late_;
  o.bad_replies = bad_replies_;
  o.events_run = events_run_;
  // Event ids are handed out consecutively from 1, so a probe's id counts
  // every event scheduled before it; the run is over, so it perturbs
  // nothing.
  size_t pending = events_.pending();
  flexrpc::EventQueue::EventId probe =
      events_.ScheduleAt(clock_.now_nanos(), []() {});
  events_.Cancel(probe);
  o.events_scheduled = probe - 1;
  o.events_cancelled = o.events_scheduled - o.events_run - pending;
  return o;
}

std::vector<uint8_t> FleetBench::RequestDatagram(const Call& call) const {
  std::vector<uint8_t> d;
  d.reserve(8 + call.body_size);
  AppendU32Be(&d, call.xid);
  AppendU32Be(&d, call.conn);
  d.insert(d.end(), body_pool_.begin() + call.body_offset,
           body_pool_.begin() + call.body_offset + call.body_size);
  return d;
}

ReplayCosts FleetBench::ReplayLayers(const FleetOutcome& outcome) {
  constexpr int kRounds = 3;
  std::vector<std::vector<uint8_t>> requests;
  for (uint32_t index : submitted_) {
    requests.push_back(RequestDatagram(calls_[index]));
  }
  std::vector<std::vector<uint8_t>> replies;
  for (uint32_t size : reply_sizes_) {
    replies.emplace_back(std::max<uint32_t>(size, 8), 0);
  }
  ReplayCosts costs;

  // DatagramChannel: the run's request and reply frames in run order, with
  // the run's fault configs, drained in batches so queues stay short.
  {
    std::vector<double> send, receive, allocs;
    for (int round = 0; round < kRounds; ++round) {
      flexrpc::VirtualClock vclock;
      flexrpc::DatagramChannel ch(flexrpc::LinkModel(config_.link),
                                  flexrpc::FaultPlan(config_.fault_a_to_b),
                                  flexrpc::FaultPlan(config_.fault_b_to_a),
                                  &vclock);
      ch.set_scheduled_delivery(true);
      ch.set_conn_tagging(true);
      uint64_t send_ns = 0, receive_ns = 0, sends = 0, receives = 0;
      uint64_t alloc_start = AllocCount();
      size_t n = std::max(requests.size(), replies.size());
      for (size_t base = 0; base < n; base += 64) {
        size_t end = std::min(n, base + 64);
        uint64_t t = HostNowNanos();
        for (size_t j = base; j < end; ++j) {
          if (j < requests.size()) {
            ch.Send(kAtoB, ByteSpan(requests[j].data(), requests[j].size()));
            ++sends;
          }
          if (j < replies.size()) {
            ch.Send(kBtoA, ByteSpan(replies[j].data(), replies[j].size()));
            ++sends;
          }
        }
        send_ns += HostNowNanos() - t;
        vclock.AdvanceNanos(1'000'000'000);
        t = HostNowNanos();
        for (auto dir : {kAtoB, kBtoA}) {
          while (ch.HasPending(dir)) {
            g_sink = g_sink + ch.Receive(dir).ok();
            ++receives;
          }
        }
        receive_ns += HostNowNanos() - t;
      }
      send.push_back(static_cast<double>(send_ns) / std::max<uint64_t>(sends, 1));
      receive.push_back(static_cast<double>(receive_ns) /
                        std::max<uint64_t>(receives, 1));
      allocs.push_back(static_cast<double>(AllocCount() - alloc_start) /
                       std::max<uint64_t>(sends, 1));
    }
    costs.send_ns = Median(send);
    costs.receive_ns = Median(receive);
    costs.allocs_per_frame = Median(allocs);
  }

  // DatagramChecksum over the same payloads.
  {
    std::vector<double> per_kib;
    for (int round = 0; round < kRounds; ++round) {
      uint64_t bytes = 0;
      uint32_t acc = 0;
      uint64_t t = HostNowNanos();
      for (const auto* frames : {&requests, &replies}) {
        for (const auto& f : *frames) {
          acc ^= flexrpc::DatagramChecksum(ByteSpan(f.data(), f.size()));
          bytes += f.size();
        }
      }
      uint64_t ns = HostNowNanos() - t;
      g_sink = g_sink + acc;
      per_kib.push_back(static_cast<double>(ns) * 1024.0 /
                        static_cast<double>(std::max<uint64_t>(bytes, 1)));
    }
    costs.checksum_ns_per_kib = Median(per_kib);
  }

  // FaultPlan::Next, one decision per frame and direction.
  {
    std::vector<double> per_next;
    for (int round = 0; round < kRounds; ++round) {
      flexrpc::FaultPlan a(config_.fault_a_to_b);
      flexrpc::FaultPlan b(config_.fault_b_to_a);
      uint64_t acc = 0;
      uint64_t t = HostNowNanos();
      for (size_t j = 0; j < requests.size(); ++j) {
        acc += a.Next().drop;
      }
      for (size_t j = 0; j < replies.size(); ++j) {
        acc += b.Next().drop;
      }
      uint64_t ns = HostNowNanos() - t;
      g_sink = g_sink + acc;
      per_next.push_back(static_cast<double>(ns) /
                         static_cast<double>(std::max<size_t>(
                             requests.size() + replies.size(), 1)));
    }
    costs.fault_next_ns = Median(per_next);
  }

  // EventQueue: the run's schedule/cancel/run mix at the run's mean queue
  // length, with callbacks the size of the mux's wrapped timers (a heap-
  // allocated std::function each).
  {
    std::vector<double> sched, cancel, run;
    const uint64_t s_total = outcome.events_scheduled;
    const double cancel_share =
        s_total == 0 ? 0
                     : static_cast<double>(outcome.events_cancelled) /
                           static_cast<double>(s_total);
    const size_t prefill =
        static_cast<size_t>(std::max(1.0, std::round(mean_pending())));
    for (int round = 0; round < kRounds; ++round) {
      flexrpc::VirtualClock vclock;
      flexrpc::EventQueue q(&vclock);
      flexrpc::Rng rng(0x6576656E74ull + static_cast<uint64_t>(round));
      uint64_t hits = 0;
      uint64_t* sink = &hits;
      auto make = [sink](uint32_t tag) {
        std::array<uint64_t, 4> payload{tag, 0, 0, 0};
        return [sink, tag, payload]() { *sink += tag + payload[0]; };
      };
      for (size_t j = 0; j < prefill; ++j) {
        q.ScheduleAt(vclock.now_nanos() + 1 + rng.NextBelow(2'000'000),
                     make(1));
      }
      uint64_t sched_ns = 0, cancel_ns = 0, run_ns = 0;
      uint64_t scheduled = 0, cancelled = 0, ran = 0;
      double cancel_credit = 0;
      std::vector<flexrpc::EventQueue::EventId> ids(64);
      std::vector<uint64_t> deadlines(64);
      while (scheduled < s_total) {
        size_t b = static_cast<size_t>(std::min<uint64_t>(64, s_total - scheduled));
        for (size_t j = 0; j < b; ++j) {
          deadlines[j] = vclock.now_nanos() + 1 + rng.NextBelow(2'000'000);
        }
        uint64_t t = HostNowNanos();
        for (size_t j = 0; j < b; ++j) {
          ids[j] = q.ScheduleAt(deadlines[j], make(2));
        }
        sched_ns += HostNowNanos() - t;
        scheduled += b;
        cancel_credit += cancel_share * static_cast<double>(b);
        size_t c = std::min(b, static_cast<size_t>(cancel_credit));
        cancel_credit -= static_cast<double>(c);
        t = HostNowNanos();
        for (size_t j = 0; j < c; ++j) {
          q.Cancel(ids[j * b / std::max<size_t>(c, 1)]);
        }
        cancel_ns += HostNowNanos() - t;
        cancelled += c;
        t = HostNowNanos();
        for (size_t j = c; j < b; ++j) {
          q.RunNext();
        }
        run_ns += HostNowNanos() - t;
        ran += b - c;
      }
      g_sink = g_sink + hits;
      sched.push_back(static_cast<double>(sched_ns) /
                      static_cast<double>(std::max<uint64_t>(scheduled, 1)));
      cancel.push_back(static_cast<double>(cancel_ns) /
                       static_cast<double>(std::max<uint64_t>(cancelled, 1)));
      run.push_back(static_cast<double>(run_ns) /
                    static_cast<double>(std::max<uint64_t>(ran, 1)));
    }
    costs.schedule_ns = Median(sched);
    costs.cancel_ns = Median(cancel);
    costs.run_ns = Median(run);
  }

  // AtMostOnceEndpoint::Handle over the run's executed (conn, xid)
  // sequence, with a copy-only handler of the run's reply sizes.
  {
    std::vector<std::vector<uint8_t>> executed;
    for (uint32_t index : executed_) {
      executed.push_back(RequestDatagram(calls_[index]));
    }
    std::vector<uint8_t> reply_bytes(8 + 8192, 0);
    std::vector<double> per_handle;
    for (int round = 0; round < kRounds; ++round) {
      flexrpc::AtMostOnceEndpoint endpoint(
          [&reply_bytes](ByteSpan request, std::vector<uint8_t>* reply) {
            uint32_t size = ReadU32Be(request.data() + 12);
            reply->assign(reply_bytes.begin(),
                          reply_bytes.begin() + 8 + std::min<uint32_t>(size, 8192));
            return Status::Ok();
          },
          config_.dispatch.cache_capacity);
      uint64_t ok = 0;
      uint64_t t = HostNowNanos();
      for (const auto& request : executed) {
        uint32_t conn = ReadU32Be(request.data() + 4);
        ok += endpoint.Handle(conn, ByteSpan(request.data(), request.size())).ok();
      }
      uint64_t ns = HostNowNanos() - t;
      g_sink = g_sink + ok;
      per_handle.push_back(static_cast<double>(ns) /
                           static_cast<double>(std::max<size_t>(executed.size(), 1)));
    }
    costs.endpoint_handle_ns = Median(per_handle);
  }
  return costs;
}

}  // namespace perfbench
