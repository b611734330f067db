// Unit tests for the flexrec flight recorder (src/support/recorder.h) and
// its consumers (src/analysis/flexrec.h): ring semantics incl. wrap and
// drop accounting, call-scope nesting, serialization round trips and
// determinism, Chrome trace_event export structural validity (including
// under truncation), and the latency-attribution invariants — per-phase
// virtual-time components sum exactly to the per-call total, retransmits
// classify against recorded losses.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/flexrec.h"
#include "src/apps/nfs.h"
#include "src/net/datagram.h"
#include "src/net/fault.h"
#include "src/rpc/dispatch.h"
#include "src/support/event_queue.h"
#include "src/support/json.h"
#include "src/support/recorder.h"
#include "src/support/timing.h"

namespace flexrpc {
namespace {

TEST(RecorderTest, DisabledByDefaultAndOutsideSessions) {
  EXPECT_FALSE(RecorderEnabled());
  // A record point with no session is the zero-overhead no-op path.
  RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 1, 100);
  RecorderSession session(/*capacity=*/8);
  EXPECT_TRUE(RecorderEnabled());
  RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 2, 200);
  Recording rec = session.Stop();
  EXPECT_FALSE(RecorderEnabled());
  ASSERT_EQ(rec.events.size(), 1u);  // the pre-session event never landed
  EXPECT_EQ(rec.events[0].xid, 2u);
  EXPECT_EQ(rec.total_events, 1u);
  EXPECT_EQ(rec.dropped_events, 0u);
}

TEST(RecorderTest, RecordsFieldsInOrder) {
  RecorderSession session(/*capacity=*/8);
  RecordEvent(RecEvent::kWireTx, RecEndpoint::kWireAtoB, 7, 1000,
              /*a=*/250, /*b=*/4000);
  RecordEvent(RecEvent::kFaultDrop, RecEndpoint::kWireBtoA, 7, 5000,
              /*a=*/0, /*b=*/3);
  Recording rec = session.Stop();
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(rec.events[0].type, RecEvent::kWireTx);
  EXPECT_EQ(rec.events[0].endpoint, RecEndpoint::kWireAtoB);
  EXPECT_EQ(rec.events[0].xid, 7u);
  EXPECT_EQ(rec.events[0].virtual_nanos, 1000u);
  EXPECT_EQ(rec.events[0].a, 250u);
  EXPECT_EQ(rec.events[0].b, 4000u);
  EXPECT_EQ(rec.events[1].type, RecEvent::kFaultDrop);
  EXPECT_EQ(rec.events[1].b, 3u);
  // Stop() is idempotent: the ring was drained.
  EXPECT_TRUE(session.Stop().events.empty());
}

TEST(RecorderTest, RingWrapOverwritesOldestAndCountsDropped) {
  RecorderSession session(/*capacity=*/4);
  for (uint32_t i = 0; i < 10; ++i) {
    RecordEvent(RecEvent::kWireRx, RecEndpoint::kClient, i, i * 100);
  }
  Recording rec = session.Stop();
  EXPECT_EQ(rec.capacity, 4u);
  EXPECT_EQ(rec.total_events, 10u);
  EXPECT_EQ(rec.dropped_events, 6u);
  ASSERT_EQ(rec.events.size(), 4u);
  // Drained oldest-first: the survivors are the newest four, in order.
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.events[i].xid, 6 + i);
    EXPECT_EQ(rec.events[i].virtual_nanos, (6 + i) * 100u);
  }
}

TEST(RecorderTest, CallScopeNestsAndRestores) {
  EXPECT_FALSE(RecorderCallScope::Active());
  VirtualClock outer_clock;
  outer_clock.AdvanceNanos(11);
  VirtualClock inner_clock;
  inner_clock.AdvanceNanos(22);
  {
    RecorderCallScope outer(101, &outer_clock);
    EXPECT_TRUE(RecorderCallScope::Active());
    EXPECT_EQ(RecorderCallScope::CurrentXid(), 101u);
    EXPECT_EQ(RecorderCallScope::CurrentVirtualNanos(), 11u);
    {
      RecorderCallScope inner(202, &inner_clock);
      EXPECT_EQ(RecorderCallScope::CurrentXid(), 202u);
      EXPECT_EQ(RecorderCallScope::CurrentVirtualNanos(), 22u);
    }
    // The inner scope's destructor restored the outer context.
    EXPECT_TRUE(RecorderCallScope::Active());
    EXPECT_EQ(RecorderCallScope::CurrentXid(), 101u);
    EXPECT_EQ(RecorderCallScope::CurrentVirtualNanos(), 11u);
  }
  EXPECT_FALSE(RecorderCallScope::Active());
}

TEST(RecorderTest, EventAndEndpointNamesAreNonEmptyAndUnique) {
  std::set<std::string_view> names;
  for (size_t i = 0; i < kRecEventCount; ++i) {
    std::string_view name = RecEventName(static_cast<RecEvent>(i));
    EXPECT_FALSE(name.empty()) << "event " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  std::set<std::string_view> endpoints;
  for (size_t i = 0; i < kRecEndpointCount; ++i) {
    std::string_view name = RecEndpointName(static_cast<RecEndpoint>(i));
    EXPECT_FALSE(name.empty()) << "endpoint " << i;
    EXPECT_TRUE(endpoints.insert(name).second) << "duplicate " << name;
  }
}

// --- serialization ------------------------------------------------------

RecordedEvent MakeEvent(RecEvent type, RecEndpoint ep, uint32_t xid,
                        uint64_t vt, uint64_t a = 0, uint64_t b = 0) {
  RecordedEvent e;
  e.type = type;
  e.endpoint = ep;
  e.xid = xid;
  e.virtual_nanos = vt;
  e.wall_nanos = 123456;  // must not leak into default serialization
  e.a = a;
  e.b = b;
  return e;
}

Recording SmallRecording() {
  Recording rec;
  rec.capacity = 16;
  rec.total_events = 3;
  rec.dropped_events = 0;
  rec.events.push_back(MakeEvent(RecEvent::kCallSubmit,
                                 RecEndpoint::kClient, 9, 100, 512));
  rec.events.push_back(MakeEvent(RecEvent::kWireTx, RecEndpoint::kWireAtoB,
                                 9, 150, 40, 5000));
  rec.events.push_back(MakeEvent(RecEvent::kCallComplete,
                                 RecEndpoint::kClient, 9, 9000, 0));
  return rec;
}

TEST(RecorderTest, JsonRoundTripPreservesEveryField) {
  Recording rec = SmallRecording();
  std::string json = RecordingToJson(rec);
  // Wall stamps are host-dependent and must be absent by default...
  EXPECT_EQ(json.find("\"wt\""), std::string::npos);
  // ...and present on request (live profiling mode).
  EXPECT_NE(RecordingToJson(rec, /*include_wall_nanos=*/true).find("\"wt\""),
            std::string::npos);

  auto parsed = ParseRecording(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->capacity, rec.capacity);
  EXPECT_EQ(parsed->total_events, rec.total_events);
  EXPECT_EQ(parsed->dropped_events, rec.dropped_events);
  ASSERT_EQ(parsed->events.size(), rec.events.size());
  for (size_t i = 0; i < rec.events.size(); ++i) {
    EXPECT_EQ(parsed->events[i].type, rec.events[i].type) << i;
    EXPECT_EQ(parsed->events[i].endpoint, rec.events[i].endpoint) << i;
    EXPECT_EQ(parsed->events[i].xid, rec.events[i].xid) << i;
    EXPECT_EQ(parsed->events[i].virtual_nanos, rec.events[i].virtual_nanos)
        << i;
    EXPECT_EQ(parsed->events[i].a, rec.events[i].a) << i;
    EXPECT_EQ(parsed->events[i].b, rec.events[i].b) << i;
  }
}

TEST(RecorderTest, ParseRejectsUnknownEventName) {
  Recording rec = SmallRecording();
  std::string json = RecordingToJson(rec);
  size_t pos = json.find("\"wire_tx\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 9, "\"wire_zz\"");
  EXPECT_FALSE(ParseRecording(json).ok());
}

TEST(RecorderTest, ParseRejectsIntegersThatDoNotFitTheirField) {
  auto recording = [](const std::string& fields) {
    return R"({"schema": "flexrpc-rec-v1", "capacity": 4,
               "total_events": 1, "dropped_events": 0,
               "events": [{"type": "call_submit", "ep": "client", )" +
           fields + "}]}";
  };
  ASSERT_TRUE(
      ParseRecording(recording(R"("xid": 7, "vt": 1, "a": 0, "b": 0)")).ok());
  // Negative, fractional, and too-wide numbers are refused, never cast.
  for (const char* fields : {
           R"("xid": -7, "vt": 1, "a": 0, "b": 0)",
           R"("xid": 7, "vt": -1, "a": 0, "b": 0)",
           R"("xid": 4294967296, "vt": 1, "a": 0, "b": 0)",
           R"("xid": 7, "vt": 1.5, "a": 0, "b": 0)",
           R"("xid": 7, "vt": 1e20, "a": 0, "b": 0)",
           R"("xid": 7, "c": -1, "vt": 1, "a": 0, "b": 0)",
       }) {
    EXPECT_EQ(ParseRecording(recording(fields)).status().code(),
              StatusCode::kInvalidArgument)
        << fields;
  }
}

// --- a real seeded lossy pipelined NFS run ------------------------------
//
// The acceptance workload: a window-8 engine read over a drop/dup/reorder
// wire, recorded end to end. Everything downstream (export, analysis,
// determinism) is asserted against this recording.

FaultConfig TestLossyMix(uint64_t seed) {
  FaultConfig config;
  config.drop_prob = 0.05;
  config.dup_prob = 0.03;
  config.reorder_prob = 0.03;
  config.seed = seed;
  return config;
}

Recording RecordLossyPipelinedRead(
    size_t capacity = kDefaultRecorderCapacity) {
  RecorderSession recorder(capacity);
  NfsFileServer server(64 * 1024, /*seed=*/1995);
  NfsClient client(&server, LinkModel(), RemoteServerModel());
  VirtualClock clock;
  DatagramChannel channel(LinkModel(), FaultPlan{TestLossyMix(205)},
                          FaultPlan{TestLossyMix(206)}, &clock);
  EventQueue events(&clock);
  MuxPolicy policy;
  policy.per_conn_window = 8;
  policy.retry.deadline_nanos = 60'000'000'000;
  policy.retry.initial_rto_nanos = 20'000'000;
  ServerConnection rpc(&channel, NfsFileServer::MakeHandler(&server), policy,
                       &events);
  auto stats = client.ReadFileOver(NfsClient::StubKind::kGeneratedUserBuffer,
                                   &rpc, &clock, 2048);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return recorder.Stop();
}

TEST(RecorderTest, SameSeedRunsSerializeByteIdentical) {
  std::string first = RecordingToJson(RecordLossyPipelinedRead());
  std::string second = RecordingToJson(RecordLossyPipelinedRead());
  EXPECT_EQ(first, second);
}

// Walks a parsed Chrome trace and asserts the structural contract
// Perfetto/chrome://tracing rely on: every event carries the fixed fields,
// duration (B/E) events balance per track with stack discipline, async
// (b/e) events balance per id, and non-metadata timestamps are
// non-decreasing.
void CheckChromeTraceShape(const JsonValue& trace, uint64_t dropped) {
  const JsonValue* other = trace.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(other->Find("dropped_events")->number),
            dropped);
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->array.empty());

  size_t metadata = 0;
  size_t instants = 0;
  bool saw_truncated = false;
  std::set<std::string> span_names;
  std::map<uint64_t, std::vector<std::string>> open_spans;  // tid -> stack
  std::map<uint64_t, int> open_calls;                       // id -> depth
  double last_ts = -1;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    if (ph->string == "M") {
      ++metadata;
      continue;
    }
    const JsonValue* ts = e.Find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->IsNumber());
    EXPECT_GE(ts->number, last_ts);
    last_ts = ts->number;
    uint64_t tid = static_cast<uint64_t>(e.Find("tid")->number);
    const std::string& name = e.Find("name")->string;
    if (ph->string == "B") {
      open_spans[tid].push_back(name);
      span_names.insert(name);
    } else if (ph->string == "E") {
      ASSERT_FALSE(open_spans[tid].empty())
          << "E \"" << name << "\" with no open span on tid " << tid;
      EXPECT_EQ(open_spans[tid].back(), name);
      open_spans[tid].pop_back();
    } else if (ph->string == "b") {
      ++open_calls[static_cast<uint64_t>(e.Find("id")->number)];
    } else if (ph->string == "e") {
      uint64_t id = static_cast<uint64_t>(e.Find("id")->number);
      EXPECT_GT(open_calls[id], 0) << "async e with no open b, id " << id;
      --open_calls[id];
    } else {
      ASSERT_EQ(ph->string, "i") << "unexpected phase " << ph->string;
      ++instants;
      if (name == "truncated") {
        saw_truncated = true;
        EXPECT_EQ(e.Find("s")->string, "g");
        EXPECT_GT(e.Find("args")->Find("dropped_events")->number, 0.0);
      }
    }
  }
  // One process_name plus one thread_name per endpoint track.
  EXPECT_EQ(metadata, 1 + kRecEndpointCount);
  EXPECT_GT(instants, 0u);
  for (const auto& [tid, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  for (const auto& [id, depth] : open_calls) {
    EXPECT_EQ(depth, 0) << "unclosed async call id " << id;
  }
  EXPECT_EQ(saw_truncated, dropped > 0);
  if (dropped == 0) {
    // The full recording shows both marshal work and server execution.
    EXPECT_TRUE(span_names.count("marshal"));
    EXPECT_TRUE(span_names.count("unmarshal"));
    EXPECT_TRUE(span_names.count("server_exec"));
  }
}

TEST(RecorderTest, ChromeTraceFromLossyRunIsStructurallyValid) {
  Recording rec = RecordLossyPipelinedRead();
  ASSERT_EQ(rec.dropped_events, 0u);
  auto trace = ParseJson(ExportChromeTrace(rec));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  CheckChromeTraceShape(*trace, /*dropped=*/0);
}

TEST(RecorderTest, TruncatedRecordingExportsMarkerAndStaysValid) {
  // A ring far smaller than the run: most of the timeline is overwritten,
  // leaving orphan E events and unclosed B/b events for the exporter to
  // repair.
  Recording rec = RecordLossyPipelinedRead(/*capacity=*/128);
  ASSERT_GT(rec.dropped_events, 0u);
  ASSERT_EQ(rec.events.size(), 128u);
  auto trace = ParseJson(ExportChromeTrace(rec));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  CheckChromeTraceShape(*trace, rec.dropped_events);
}

// --- latency attribution ------------------------------------------------

TEST(RecorderTest, PhaseComponentsSumExactlyToPerCallTotal) {
  Recording rec = RecordLossyPipelinedRead();
  RecordingAnalysis analysis = AnalyzeRecording(rec);
  ASSERT_GT(analysis.completed_calls, 0u);
  EXPECT_EQ(analysis.completed_calls, 32u);  // 64 KiB file / 2 KiB chunks
  size_t checked = 0;
  for (const CallBreakdown& c : analysis.calls) {
    if (!c.complete) {
      continue;
    }
    uint64_t sum = c.queued_nanos + c.req_wire_nanos + c.req_prop_nanos +
                   c.server_exec_nanos + c.reply_wire_nanos +
                   c.reply_prop_nanos + c.wait_nanos;
    EXPECT_EQ(sum, c.total_nanos) << "xid " << c.xid;
    EXPECT_GT(c.total_nanos, 0u) << "xid " << c.xid;
    ++checked;
  }
  EXPECT_EQ(checked, analysis.completed_calls);
  // The lossy mix actually bit: the run recovered from real drops.
  EXPECT_GT(analysis.total_retransmits, 0u);
  EXPECT_EQ(analysis.total_retransmits, analysis.drop_induced_retransmits +
                                            analysis.spurious_retransmits);
  // And the report over it renders deterministically.
  EXPECT_EQ(RenderReport(analysis),
            RenderReport(AnalyzeRecording(RecordLossyPipelinedRead())));
}

TEST(RecorderTest, RetransmitClassificationConsumesRecordedLosses) {
  Recording rec;
  rec.capacity = 64;
  rec.total_events = 12;
  // xid 1: the first transmit is dropped; the retransmit is drop-induced.
  rec.events.push_back(
      MakeEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 1, 0, 100));
  rec.events.push_back(
      MakeEvent(RecEvent::kWireTx, RecEndpoint::kWireAtoB, 1, 10, 5, 40));
  rec.events.push_back(
      MakeEvent(RecEvent::kFaultDrop, RecEndpoint::kWireAtoB, 1, 10));
  rec.events.push_back(MakeEvent(RecEvent::kRetransmit, RecEndpoint::kClient,
                                 1, 500, /*attempt=*/2));
  rec.events.push_back(
      MakeEvent(RecEvent::kWireTx, RecEndpoint::kWireAtoB, 1, 500, 5, 40));
  rec.events.push_back(MakeEvent(RecEvent::kServerExecBegin,
                                 RecEndpoint::kServer, 1, 545, 200));
  rec.events.push_back(MakeEvent(RecEvent::kServerExecEnd,
                                 RecEndpoint::kServer, 1, 600, 200));
  rec.events.push_back(
      MakeEvent(RecEvent::kWireTx, RecEndpoint::kWireBtoA, 1, 600, 10, 40));
  rec.events.push_back(
      MakeEvent(RecEvent::kCallComplete, RecEndpoint::kClient, 1, 650, 0));
  // xid 2: every frame was healthy, just slow — the retransmit is a
  // spurious RTO.
  rec.events.push_back(
      MakeEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 2, 700, 100));
  rec.events.push_back(MakeEvent(RecEvent::kRetransmit, RecEndpoint::kClient,
                                 2, 900, /*attempt=*/2));
  rec.events.push_back(
      MakeEvent(RecEvent::kCallComplete, RecEndpoint::kClient, 2, 950, 0));
  rec.total_events = rec.events.size();

  RecordingAnalysis analysis = AnalyzeRecording(rec);
  ASSERT_EQ(analysis.calls.size(), 2u);
  const CallBreakdown& dropped = analysis.calls[0];
  EXPECT_EQ(dropped.xid, 1u);
  EXPECT_EQ(dropped.attempts, 2u);
  EXPECT_EQ(dropped.drop_induced_retransmits, 1u);
  EXPECT_EQ(dropped.spurious_retransmits, 0u);
  const CallBreakdown& spurious = analysis.calls[1];
  EXPECT_EQ(spurious.xid, 2u);
  EXPECT_EQ(spurious.drop_induced_retransmits, 0u);
  EXPECT_EQ(spurious.spurious_retransmits, 1u);
  EXPECT_EQ(analysis.drop_induced_retransmits, 1u);
  EXPECT_EQ(analysis.spurious_retransmits, 1u);

  // Attribution detail for xid 1: queued until first tx, both wire
  // occupancies, both propagations, the server span, and the uncovered
  // RTO gap — summing exactly to the 650 ns lifetime.
  EXPECT_EQ(dropped.total_nanos, 650u);
  EXPECT_EQ(dropped.queued_nanos, 10u);
  EXPECT_EQ(dropped.req_wire_nanos, 10u);   // both request transmits
  EXPECT_EQ(dropped.server_exec_nanos, 55u);
  EXPECT_EQ(dropped.reply_wire_nanos, 10u);
  EXPECT_EQ(dropped.reply_prop_nanos, 40u);
  uint64_t sum = dropped.queued_nanos + dropped.req_wire_nanos +
                 dropped.req_prop_nanos + dropped.server_exec_nanos +
                 dropped.reply_wire_nanos + dropped.reply_prop_nanos +
                 dropped.wait_nanos;
  EXPECT_EQ(sum, dropped.total_nanos);
}

TEST(RecorderTest, WindowOccupancyCountsOverlappingCalls) {
  Recording rec;
  rec.capacity = 16;
  // Two calls on the wire at once between t=20 and t=30.
  rec.events.push_back(
      MakeEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 1, 0));
  rec.events.push_back(
      MakeEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 2, 0));
  rec.events.push_back(
      MakeEvent(RecEvent::kWireTx, RecEndpoint::kWireAtoB, 1, 10, 1, 1));
  rec.events.push_back(
      MakeEvent(RecEvent::kWireTx, RecEndpoint::kWireAtoB, 2, 20, 1, 1));
  rec.events.push_back(
      MakeEvent(RecEvent::kCallComplete, RecEndpoint::kClient, 1, 30, 0));
  rec.events.push_back(
      MakeEvent(RecEvent::kCallComplete, RecEndpoint::kClient, 2, 40, 0));
  rec.total_events = rec.events.size();

  RecordingAnalysis analysis = AnalyzeRecording(rec);
  EXPECT_EQ(analysis.max_in_flight, 2u);
  // Submission alone must NOT count as in-flight (the pipelined path
  // queues submissions behind a full window).
  ASSERT_FALSE(analysis.window.empty());
  EXPECT_EQ(analysis.window.front().at_nanos, 10u);
}

// --- (conn, xid)-keyed analysis and truncation accounting ---------------

RecordedEvent MakeConnEvent(uint32_t conn, RecEvent type, RecEndpoint ep,
                            uint32_t xid, uint64_t vt, uint64_t a = 0,
                            uint64_t b = 0) {
  RecordedEvent e = MakeEvent(type, ep, xid, vt, a, b);
  e.conn = conn;
  return e;
}

TEST(RecorderTest, ConnKeyedCallsAnalyzeSeparately) {
  // Two mux connections colliding on xid 1. Keyed by bare xid the
  // analyzer would fuse them into one nonsense call (two submits, two
  // completes); keyed by (conn, xid) each attributes independently and
  // the phase-sum invariant holds for both.
  Recording rec;
  rec.capacity = 32;
  rec.events.push_back(MakeConnEvent(1, RecEvent::kCallSubmit,
                                     RecEndpoint::kClient, 1, 0, 100));
  rec.events.push_back(MakeConnEvent(2, RecEvent::kCallSubmit,
                                     RecEndpoint::kClient, 1, 5, 100));
  rec.events.push_back(MakeConnEvent(1, RecEvent::kWireTx,
                                     RecEndpoint::kWireAtoB, 1, 10, 5, 40));
  rec.events.push_back(MakeConnEvent(2, RecEvent::kWireTx,
                                     RecEndpoint::kWireAtoB, 1, 15, 5, 40));
  rec.events.push_back(MakeConnEvent(1, RecEvent::kCallComplete,
                                     RecEndpoint::kClient, 1, 100, 0));
  rec.events.push_back(MakeConnEvent(2, RecEvent::kCallComplete,
                                     RecEndpoint::kClient, 1, 120, 0));
  rec.total_events = rec.events.size();

  RecordingAnalysis analysis = AnalyzeRecording(rec);
  ASSERT_EQ(analysis.calls.size(), 2u);
  EXPECT_EQ(analysis.completed_calls, 2u);
  EXPECT_EQ(analysis.truncated_calls, 0u);
  EXPECT_EQ(analysis.calls[0].conn, 1u);
  EXPECT_EQ(analysis.calls[1].conn, 2u);
  EXPECT_EQ(analysis.calls[0].total_nanos, 100u);
  EXPECT_EQ(analysis.calls[1].total_nanos, 115u);
  for (const CallBreakdown& c : analysis.calls) {
    uint64_t sum = c.queued_nanos + c.req_wire_nanos + c.req_prop_nanos +
                   c.server_exec_nanos + c.reply_wire_nanos +
                   c.reply_prop_nanos + c.wait_nanos;
    EXPECT_EQ(sum, c.total_nanos) << "conn " << c.conn;
  }
}

TEST(RecorderTest, RingTruncatedSubmitIsMarkedNotMisattributed) {
  // Bugfix regression. When the ring overwrote a call's kCallSubmit, the
  // analyzer used to drop the call silently — the report's call count
  // disagreed with its own completion events and the "phases sum to
  // total" invariant was unverifiable. Such calls are now listed, marked
  // truncated, counted in truncated_calls, and excluded from aggregates
  // (their span has no anchor).
  Recording rec;
  rec.capacity = 8;
  rec.dropped_events = 5;  // the ring wrapped; xid 7's submit is gone
  rec.events.push_back(MakeConnEvent(1, RecEvent::kServerExecBegin,
                                     RecEndpoint::kServer, 7, 500, 10));
  rec.events.push_back(MakeConnEvent(1, RecEvent::kServerExecEnd,
                                     RecEndpoint::kServer, 7, 520, 10));
  rec.events.push_back(MakeConnEvent(1, RecEvent::kCallComplete,
                                     RecEndpoint::kClient, 7, 600, 0));
  // An intact call alongside it still attributes normally.
  rec.events.push_back(MakeConnEvent(1, RecEvent::kCallSubmit,
                                     RecEndpoint::kClient, 8, 700, 100));
  rec.events.push_back(MakeConnEvent(1, RecEvent::kCallComplete,
                                     RecEndpoint::kClient, 8, 800, 0));
  rec.total_events = rec.events.size() + rec.dropped_events;

  RecordingAnalysis analysis = AnalyzeRecording(rec);
  EXPECT_EQ(analysis.truncated_calls, 1u);
  EXPECT_EQ(analysis.completed_calls, 1u);  // only the intact call
  ASSERT_EQ(analysis.calls.size(), 2u);
  const CallBreakdown* truncated = nullptr;
  const CallBreakdown* intact = nullptr;
  for (const CallBreakdown& c : analysis.calls) {
    (c.truncated ? truncated : intact) = &c;
  }
  ASSERT_NE(truncated, nullptr);
  ASSERT_NE(intact, nullptr);
  EXPECT_EQ(truncated->xid, 7u);
  EXPECT_FALSE(truncated->complete);  // not a completed, attributable call
  EXPECT_EQ(truncated->total_nanos, 0u);  // nothing summed from a lost span
  EXPECT_EQ(intact->xid, 8u);
  EXPECT_EQ(intact->total_nanos, 100u);
  // The report names the truncation instead of silently shrinking.
  std::string report = RenderReport(analysis);
  EXPECT_NE(report.find("truncated"), std::string::npos);
}

TEST(RecorderTest, ConnFieldSerializesOnlyWhenTagged) {
  // Conn 0 (every pre-mux recording) serializes without a "c" key, so
  // existing recordings stay byte-identical; tagged events round-trip.
  Recording untagged = SmallRecording();
  std::string untagged_json = RecordingToJson(untagged);
  EXPECT_EQ(untagged_json.find("\"c\""), std::string::npos);

  Recording tagged = SmallRecording();
  for (RecordedEvent& e : tagged.events) {
    e.conn = 42;
  }
  std::string tagged_json = RecordingToJson(tagged);
  EXPECT_NE(tagged_json.find("\"c\""), std::string::npos);
  auto parsed = ParseRecording(tagged_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), tagged.events.size());
  for (const RecordedEvent& e : parsed->events) {
    EXPECT_EQ(e.conn, 42u);
  }
  // And an untagged round trip parses conn back to 0.
  auto untagged_parsed = ParseRecording(untagged_json);
  ASSERT_TRUE(untagged_parsed.ok());
  EXPECT_EQ(untagged_parsed->events[0].conn, 0u);
}

TEST(RecorderTest, ConnScopeNestsAndTagsEvents) {
  EXPECT_EQ(RecorderConnScope::Current(), 0u);
  RecorderSession session(/*capacity=*/8);
  {
    RecorderConnScope outer(5);
    EXPECT_EQ(RecorderConnScope::Current(), 5u);
    RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 1, 10);
    {
      RecorderConnScope inner(9);
      RecordEvent(RecEvent::kCallSubmit, RecEndpoint::kClient, 1, 20);
    }
    EXPECT_EQ(RecorderConnScope::Current(), 5u);
    RecordEvent(RecEvent::kCallComplete, RecEndpoint::kClient, 1, 30);
  }
  EXPECT_EQ(RecorderConnScope::Current(), 0u);
  Recording rec = session.Stop();
  ASSERT_EQ(rec.events.size(), 3u);
  EXPECT_EQ(rec.events[0].conn, 5u);
  EXPECT_EQ(rec.events[1].conn, 9u);
  EXPECT_EQ(rec.events[2].conn, 5u);
}

}  // namespace
}  // namespace flexrpc
