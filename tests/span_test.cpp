// Span layer, Chrome-trace exporter, and flight recorder.
//
// Covers the full observability episode path: RAII span lifecycle
// (open/close nesting, marks, moves, teardown truncation via close_all),
// JSONL round-trips, the Chrome trace-event golden rendering, the
// flight-recorder ring with its dump-on-abandon and dump-on-contract
// triggers, every fault-catalog episode arriving as a span, the JSONL
// replay rendering the live Chrome trace byte for byte, and the
// determinism contract that an armed run fingerprints identically to an
// unobserved one.
//
// This target is pinned to VSTREAM_CHECK_LEVEL=1 in CMakeLists so the
// contract-hook test still fires when the tree builds with checks off.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "check/contracts.hpp"
#include "net/dynamics.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session.hpp"
#include "streaming/session_builder.hpp"

namespace vstream::obs {
namespace {

using sim::SimTime;

// One observed world: a simulator with an ObsContext attached and a ring
// sink listening, so open_span() hands out live handles.
struct ObservedSim {
  ObservedSim() {
    sim.set_obs(&obs);
    obs.trace().attach(&sink);
  }

  std::vector<SpanRecord> spans() const { return sink.collect<SpanRecord>(); }

  sim::Simulator sim;
  ObsContext obs;
  RingBufferSink sink{256};
};

// ---- span lifecycle ------------------------------------------------------

TEST(SpanTest, InertHandlesAndUnobservedWorldsAreNoOps) {
  Span inert;
  EXPECT_FALSE(inert.active());
  inert.mark();
  inert.close("ignored");  // must not crash or emit anywhere

  // No ObsContext at all: the fast path returns an inert handle.
  sim::Simulator bare;
  Span from_bare = open_span(bare, SpanCategory::kFetch, "fetch");
  EXPECT_FALSE(from_bare.active());

  // Context attached but no sink listening: still inert, and the tracer
  // never even allocates a slot.
  sim::Simulator sim;
  ObsContext obs;
  sim.set_obs(&obs);
  Span unobserved = open_span(sim, SpanCategory::kPlayer, "buffering");
  EXPECT_FALSE(unobserved.active());
  EXPECT_EQ(obs.spans().spans_opened(), 0u);
  EXPECT_EQ(obs.trace().events_emitted(), 0u);
}

TEST(SpanTest, LifecycleEmitsOneRecordWithSimTimes) {
  ObservedSim w;
  Span span;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    span = open_span(w.sim, SpanCategory::kFetch, "fetch", 42);
    EXPECT_TRUE(span.active());
  });
  w.sim.schedule_at(SimTime::from_seconds(2.0), [&] { span.mark(); });
  w.sim.schedule_at(SimTime::from_seconds(3.5), [&] { span.close("complete"); });
  w.sim.run();

  EXPECT_FALSE(span.active());
  EXPECT_EQ(w.obs.spans().open_spans(), 0u);
  EXPECT_EQ(w.obs.spans().spans_opened(), 1u);
  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  const SpanRecord& r = spans[0];
  EXPECT_DOUBLE_EQ(r.t_begin_s, 1.0);
  EXPECT_DOUBLE_EQ(r.t_mark_s, 2.0);
  EXPECT_DOUBLE_EQ(r.t_end_s, 3.5);
  EXPECT_EQ(r.span_id, 1u);
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(r.depth, 0u);
  EXPECT_EQ(r.category, "fetch");
  EXPECT_EQ(r.name, "fetch");
  EXPECT_EQ(r.detail, "complete");
}

TEST(SpanTest, MarkFirstCallWins) {
  ObservedSim w;
  Span span;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    span = open_span(w.sim, SpanCategory::kTcp, "rto_recovery");
  });
  w.sim.schedule_at(SimTime::from_seconds(2.0), [&] { span.mark(); });
  w.sim.schedule_at(SimTime::from_seconds(4.0), [&] { span.mark(); });  // ignored
  w.sim.schedule_at(SimTime::from_seconds(5.0), [&] { span.close(); });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].t_mark_s, 2.0);
  EXPECT_TRUE(spans[0].detail.empty());
}

TEST(SpanTest, NestingRecordsDepthAtOpenAndMonotonicIds) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    Span outer = open_span(w.sim, SpanCategory::kPlayer, "steady");
    Span inner = open_span(w.sim, SpanCategory::kFetch, "fetch");
    EXPECT_EQ(w.obs.spans().open_spans(), 2u);
    inner.close("complete");
    outer.close("complete");
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Close order: inner first.
  EXPECT_EQ(spans[0].name, "fetch");
  EXPECT_EQ(spans[0].span_id, 2u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "steady");
  EXPECT_EQ(spans[1].span_id, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
}

TEST(SpanTest, DestructorClosesImplicitly) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(2.0), [&] {
    Span span = open_span(w.sim, SpanCategory::kLink, "blackout");
    EXPECT_TRUE(span.active());
    // falls out of scope without close(): the RAII close emits once
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].t_begin_s, 2.0);
  EXPECT_DOUBLE_EQ(spans[0].t_end_s, 2.0);
  EXPECT_TRUE(spans[0].detail.empty());
  EXPECT_EQ(w.obs.spans().open_spans(), 0u);
}

TEST(SpanTest, MoveTransfersOwnershipWithoutDoubleEmit) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    Span a = open_span(w.sim, SpanCategory::kFetch, "fetch");
    Span b{std::move(a)};
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): moved-from is inert by contract
    EXPECT_TRUE(b.active());

    // Move-assign onto an open span closes the target first.
    Span c = open_span(w.sim, SpanCategory::kFetch, "fetch2");
    c = std::move(b);
    EXPECT_TRUE(c.active());
    c.close("complete");
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 2u);  // fetch2 closed by assignment, fetch closed explicitly
  EXPECT_EQ(spans[0].name, "fetch2");
  EXPECT_EQ(spans[1].name, "fetch");
  EXPECT_EQ(spans[1].detail, "complete");
}

TEST(SpanTest, CloseAllTruncatesInOpenOrderAndInvalidatesHandles) {
  ObservedSim w;
  Span first;
  Span second;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    first = open_span(w.sim, SpanCategory::kPlayer, "steady");
    second = open_span(w.sim, SpanCategory::kFetch, "fetch");
  });
  w.sim.schedule_at(SimTime::from_seconds(9.0), [&] {
    // Teardown flush: both still open, emitted in span_id order.
    EXPECT_EQ(w.obs.spans().close_all("capture_end"), 2u);
    EXPECT_EQ(w.obs.spans().open_spans(), 0u);
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "steady");
  EXPECT_EQ(spans[1].name, "fetch");
  EXPECT_EQ(spans[0].detail, "capture_end");
  EXPECT_EQ(spans[1].detail, "capture_end");

  // The outstanding handles were invalidated: destruction / explicit close
  // must not emit a second record.
  EXPECT_FALSE(first.active());
  EXPECT_FALSE(second.active());
  first.close("late");
  second = Span{};
  EXPECT_EQ(w.spans().size(), 2u);
}

TEST(SpanTest, EmitCompleteRetroEmitsFinishedEpisode) {
  ObservedSim w;
  w.sim.schedule_at(SimTime::from_seconds(5.0), [&] {
    emit_span(w.sim, 3.25, SpanCategory::kTcp, "zero_window", 7, "reopened");
  });
  w.sim.run();

  const auto spans = w.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].t_begin_s, 3.25);
  EXPECT_DOUBLE_EQ(spans[0].t_end_s, 5.0);
  EXPECT_LT(spans[0].t_mark_s, 0.0);
  EXPECT_EQ(spans[0].category, "tcp");
  EXPECT_EQ(spans[0].id, 7u);
  EXPECT_EQ(spans[0].detail, "reopened");
}

TEST(SpanTest, RebindingWithOpenSpansThrows) {
  ObservedSim w;
  sim::Simulator other;
  Span span;
  w.sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    span = open_span(w.sim, SpanCategory::kSim, "run");
    EXPECT_THROW(w.obs.spans().bind(other), std::logic_error);
    span.close();
    w.obs.spans().bind(other);  // fine once nothing is open
  });
  w.sim.run();
}

// ---- JSONL round-trip ----------------------------------------------------

TEST(SpanJsonlTest, SpanRecordRoundTripsThroughJsonl) {
  SpanRecord r;
  r.t_begin_s = 1.5;
  r.t_end_s = 3.25;
  r.t_mark_s = 2.0;
  r.span_id = 7;
  r.id = 42;
  r.depth = 1;
  r.category = "fetch";
  r.name = "fetch";
  r.detail = "complete";

  const std::string line = to_jsonl(TraceEvent{r});
  EXPECT_EQ(jsonl_string(line, "type"), "span");
  const auto back = from_jsonl(line);
  ASSERT_TRUE(back.has_value());
  const auto* rb = std::get_if<SpanRecord>(&*back);
  ASSERT_NE(rb, nullptr);
  EXPECT_DOUBLE_EQ(rb->t_begin_s, r.t_begin_s);
  EXPECT_DOUBLE_EQ(rb->t_end_s, r.t_end_s);
  EXPECT_DOUBLE_EQ(rb->t_mark_s, r.t_mark_s);
  EXPECT_EQ(rb->span_id, r.span_id);
  EXPECT_EQ(rb->id, r.id);
  EXPECT_EQ(rb->depth, r.depth);
  EXPECT_EQ(rb->category, r.category);
  EXPECT_EQ(rb->name, r.name);
  EXPECT_EQ(rb->detail, r.detail);
}

TEST(SpanJsonlTest, EscapedDetailRoundTripsAsOneLine) {
  SpanRecord r;
  r.t_end_s = 1.0;
  r.category = "fetch";
  r.name = "fetch";
  r.detail = std::string{"say \"hi\" \\ tab\there\nnext\x01line"};

  const std::string line = to_jsonl(TraceEvent{r});
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_EQ(line.find('\t'), std::string::npos) << line;
  const auto back = from_jsonl(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<SpanRecord>(*back).detail, r.detail);

  EXPECT_FALSE(from_jsonl("{\"type\":\"unknown_event\"}").has_value());
  EXPECT_FALSE(from_jsonl("not json at all").has_value());
  // An escape json_escape never writes is not one of ours.
  EXPECT_FALSE(jsonl_string("{\"k\":\"a\\qb\"}", "k").has_value());
}

TEST(SpanJsonlTest, NumbersRoundTripBitExactly) {
  TcpCwndSample cwnd;
  cwnd.t_s = 1.026740351;  // ten significant digits: %.9g would drift the Chrome ts
  cwnd.connection_id = 3;
  cwnd.endpoint = "server#3";
  cwnd.ssthresh = 4611686018427387903ULL;  // 2^62-1: a double would round it up
  cwnd.rto_s = 0.2 + 0.1;
  const auto back = from_jsonl(to_jsonl(TraceEvent{cwnd}));
  ASSERT_TRUE(back.has_value());
  const auto& rb = std::get<TcpCwndSample>(*back);
  EXPECT_EQ(rb.t_s, cwnd.t_s);
  EXPECT_EQ(rb.ssthresh, cwnd.ssthresh);
  EXPECT_EQ(rb.rto_s, cwnd.rto_s);
  EXPECT_EQ(to_jsonl(*back), to_jsonl(TraceEvent{cwnd}));
}

// ---- Chrome trace-event exporter -----------------------------------------

TEST(ChromeTraceTest, SpanRendersAsGoldenAsyncPair) {
  SpanRecord r;
  r.t_begin_s = 1.5;
  r.t_end_s = 3.25;
  r.t_mark_s = 2.0;
  r.span_id = 7;
  r.id = 42;
  r.depth = 1;
  r.category = "fetch";
  r.name = "fetch";
  r.detail = "complete";

  ChromeTraceWriter writer;
  writer.add(TraceEvent{r});
  EXPECT_EQ(writer.rows(), 3u);  // begin + mark instant + end

  // Byte-exact golden: the writer's formatting is pinned (fixed %.3f
  // microsecond timestamps) so this stays stable across platforms.
  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"fetch\"}},\n"
      "{\"ph\":\"b\",\"pid\":1,\"tid\":2,\"cat\":\"fetch\",\"id\":7,\"name\":\"fetch\","
      "\"ts\":1500000.000,\"args\":{\"detail\":\"complete\",\"domain_id\":42,\"depth\":1}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":2000000.000,\"s\":\"t\","
      "\"name\":\"fetch.mark\",\"args\":{\"span_id\":7}},\n"
      "{\"ph\":\"e\",\"pid\":1,\"tid\":2,\"cat\":\"fetch\",\"id\":7,\"name\":\"fetch\","
      "\"ts\":3250000.000}"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(writer.to_json(), expected);
}

TEST(ChromeTraceTest, SamplesRenderAsCountersAndInstants) {
  ChromeTraceWriter writer;
  TcpCwndSample cwnd;
  cwnd.t_s = 1.0;
  cwnd.connection_id = 3;
  cwnd.cwnd = 14600;
  writer.add(TraceEvent{cwnd});
  SimLoopSample loop;
  loop.t_s = 2.0;
  loop.events_pending = 12;
  writer.add(TraceEvent{loop});
  writer.add(TraceEvent{PacingBlockEmitted{3.0, 3, 65536, true}});
  EXPECT_EQ(writer.rows(), 3u);

  const std::string json = writer.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("cwnd conn3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sim_loop\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"initial_burst\""), std::string::npos);
}

TEST(ChromeTraceTest, SinkWritesFileOnceAndCloseIsIdempotent) {
  const std::string path = ::testing::TempDir() + "chrome_trace_sink_test.json";
  {
    TraceBus bus;
    ChromeTraceSink sink{path};
    bus.attach(&sink);
    SpanRecord r;
    r.t_begin_s = 0.5;
    r.t_end_s = 1.0;
    r.category = "player";
    r.name = "buffering";
    r.span_id = 1;
    bus.emit(TraceEvent{r});
    EXPECT_EQ(sink.writer().rows(), 2u);
    EXPECT_TRUE(sink.close());
    EXPECT_TRUE(sink.close());  // idempotent; destructor will no-op too
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string content{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_EQ(content.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(content.find("\"name\":\"buffering\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- flight recorder -----------------------------------------------------

TEST(FlightRecorderTest, RingKeepsMostRecentEventsOnly) {
  FlightRecorder::Options opt;
  opt.capacity = 3;
  opt.arm_contract_hook = false;
  FlightRecorder recorder{opt};
  TraceBus bus;
  bus.attach(&recorder);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    bus.emit(TraceEvent{PacingBlockEmitted{static_cast<double>(i), 1, i, false}});
  }
  ASSERT_EQ(recorder.buffered().size(), 3u);
  EXPECT_EQ(std::get<PacingBlockEmitted>(recorder.buffered().front()).bytes, 3u);
  EXPECT_EQ(std::get<PacingBlockEmitted>(recorder.buffered().back()).bytes, 5u);
  EXPECT_EQ(recorder.dumps_written(), 0u);

  FlightRecorder::Options zero;
  zero.capacity = 0;
  EXPECT_THROW(FlightRecorder{zero}, std::invalid_argument);
}

TEST(FlightRecorderTest, FetchAbandonTriggersDumpWithHeaderAndTail) {
  const std::string path = ::testing::TempDir() + "flight_dump_abandon_test.jsonl";
  FlightRecorder::Options opt;
  opt.capacity = 8;
  opt.dump_path = path;
  opt.arm_contract_hook = false;
  FlightRecorder recorder{opt};
  TraceBus bus;
  bus.attach(&recorder);

  bus.emit(TraceEvent{PacingBlockEmitted{1.0, 1, 65536, false}});
  SpanRecord backoff;
  backoff.t_begin_s = 2.0;
  backoff.t_end_s = 2.5;
  backoff.id = 2;
  backoff.category = "fetch";
  backoff.name = "retry_backoff";
  backoff.detail = "reissued";
  bus.emit(TraceEvent{backoff});  // a retry is not a failure: no dump yet
  backoff.t_begin_s = 4.5;
  backoff.t_end_s = 5.5;
  backoff.id = 3;
  bus.emit(TraceEvent{backoff});
  EXPECT_EQ(recorder.dumps_written(), 0u);

  SpanRecord fetch;
  fetch.t_begin_s = 1.0;
  fetch.t_end_s = 7.5;
  fetch.id = 9;
  fetch.category = "fetch";
  fetch.name = "fetch";
  fetch.detail = "abandoned";
  bus.emit(TraceEvent{fetch});
  EXPECT_EQ(recorder.dumps_written(), 1u);

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 buffered events
  EXPECT_EQ(jsonl_string(lines[0], "type"), "flight_dump");
  EXPECT_NE(jsonl_string(lines[0], "reason")->find("fetch abandoned after attempt 3"),
            std::string::npos);
  EXPECT_EQ(jsonl_number(lines[0], "events"), 4.0);
  // The tail is ordinary JSONL: the same parser the trace tooling uses.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(from_jsonl(lines[i]).has_value()) << lines[i];
  }
  EXPECT_EQ(jsonl_string(lines.back(), "detail"), "abandoned");
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ContractViolationTriggersDumpAndHookIsRestored) {
  const std::string path = ::testing::TempDir() + "flight_dump_contract_test.jsonl";
  // Stand-in for whatever hook was installed before the recorder: it must
  // be dormant while the recorder is alive and restored afterwards.
  std::size_t outer_hook_calls = 0;
  const check::ViolationHook original = check::set_violation_hook(
      [&outer_hook_calls](const check::ContractViolation&) { ++outer_hook_calls; });
  {
    FlightRecorder::Options opt;
    opt.capacity = 4;
    opt.dump_path = path;
    FlightRecorder recorder{opt};
    TraceBus bus;
    bus.attach(&recorder);
    bus.emit(TraceEvent{PacingBlockEmitted{1.0, 1, 65536, false}});

    EXPECT_THROW(VSTREAM_INVARIANT(1 + 1 == 3, "arithmetic broke"), check::ContractViolation);
    EXPECT_EQ(recorder.dumps_written(), 1u);
    EXPECT_EQ(outer_hook_calls, 0u);

    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(jsonl_string(header, "type"), "flight_dump");
    EXPECT_NE(jsonl_string(header, "reason")->find("arithmetic broke"), std::string::npos);
    EXPECT_EQ(jsonl_number(header, "events"), 1.0);
  }
  // Recorder gone: the previous hook is back in place.
  EXPECT_THROW(VSTREAM_INVARIANT(false, "after recorder"), check::ContractViolation);
  EXPECT_EQ(outer_hook_calls, 1u);
  check::set_violation_hook(original);
  std::remove(path.c_str());
}

// ---- end-to-end session spans --------------------------------------------

// iPad-YouTube world: the successive ranged fetches go through
// FetchManager (fetch spans) while the player runs its phase machine
// (player spans) — both instrumented subsystems fire in one session.
streaming::SessionConfig observed_session_config() {
  video::VideoMeta meta;
  meta.id = "span-e2e";
  meta.duration_s = 600.0;
  meta.encoding_bps = 2e6;
  meta.container = video::Container::kHtml5;
  return streaming::SessionBuilder{}
      .vantage(net::Vantage::kResearch)
      .service(streaming::Service::kYouTube)
      .container(video::Container::kHtml5)
      .application(streaming::Application::kIosNative)
      .video(meta)
      .capture_duration_s(60.0)
      .seed(23)
      .build();
}

TEST(SessionSpanTest, SessionEmitsEpisodeSpansAndTruncatesAtTeardown) {
  RingBufferSink sink{8192};
  auto cfg = observed_session_config();
  cfg.trace_sink = &sink;
  const auto result = streaming::run_session(cfg);

  const auto spans = sink.collect<SpanRecord>();
  ASSERT_FALSE(spans.empty());

  std::set<std::string> categories;
  std::set<std::uint64_t> ids;
  bool saw_capture_end = false;
  for (const auto& s : spans) {
    categories.insert(s.category);
    EXPECT_TRUE(ids.insert(s.span_id).second) << "duplicate span_id " << s.span_id;
    EXPECT_LE(s.t_begin_s, s.t_end_s);
    if (s.detail == "capture_end") saw_capture_end = true;
  }
  // The fetch lifecycle and the player phase machine are both instrumented.
  EXPECT_TRUE(categories.count("fetch")) << "no fetch span";
  EXPECT_TRUE(categories.count("player")) << "no player span";

  // The player is mid-phase when the capture window closes, so teardown
  // truncation must have flushed at least one span and recorded the count.
  const double truncated = result.metrics.gauges.at("obs.spans_truncated");
  EXPECT_GE(truncated, 1.0);
  EXPECT_TRUE(saw_capture_end);
}

// ---- every episode is a span: the fault catalog --------------------------

// A session takes one trace sink; this one fans each event out to several.
struct TeeSink final : TraceSink {
  std::vector<TraceSink*> sinks;
  void on_event(const TraceEvent& event) override {
    for (TraceSink* sink : sinks) sink->on_event(event);
  }
};

// Keeps every span of a run (a ring would drop the early ones).
struct SpanCollector final : TraceSink {
  std::vector<SpanRecord> spans;
  void on_event(const TraceEvent& event) override {
    if (const auto* span = std::get_if<SpanRecord>(&event)) spans.push_back(*span);
  }
  [[nodiscard]] std::size_t count(const std::string& name, const std::string& detail = {}) const {
    return static_cast<std::size_t>(std::count_if(spans.begin(), spans.end(), [&](const auto& s) {
      return s.name == name && (detail.empty() || s.detail == detail);
    }));
  }
};

TEST(FaultScenarioSpanTest, EveryEpisodeIsOnTheBusAsASpan) {
  const std::string dump_path =
      ::testing::TempDir() + "fault_span_dump_" + std::to_string(::getpid()) + ".jsonl";
  std::size_t stalls = 0;
  std::size_t zero_windows = 0;
  std::size_t backoffs = 0;
  std::size_t abandons = 0;
  for (const auto& scenario : streaming::fault_scenarios(180.0)) {
    SCOPED_TRACE(scenario.name);
    SpanCollector collector;
    FlightRecorder::Options opt;
    opt.capacity = 64;
    opt.dump_path = dump_path;
    opt.arm_contract_hook = false;
    FlightRecorder recorder{opt};
    TeeSink tee;
    tee.sinks = {&collector, &recorder};
    auto cfg = scenario.config;
    cfg.trace_sink = &tee;
    const auto result = streaming::run_session(cfg);

    // One "stall" span (id = stall count) per stall the player counted.
    EXPECT_EQ(collector.count("stall"), result.player.stall_count);
    // One closed "zero_window" span per reopened window; an episode still
    // open at the cutoff is counted by the endpoint but has no span yet.
    const std::size_t zw = collector.count("zero_window");
    EXPECT_LE(zw, result.metrics.counters.at("tcp.zero_window_episodes"));
    for (const auto& s : collector.spans) {
      if (s.name != "zero_window") continue;
      EXPECT_EQ(s.category, "tcp");
      EXPECT_TRUE(s.detail.rfind("client#", 0) == 0 || s.detail.rfind("server#", 0) == 0)
          << s.detail;
    }
    // A link span per scheduled fault window, named after its kind.
    for (const auto& window : cfg.impairments.windows()) {
      EXPECT_GE(collector.count(net::to_string(window.kind)), 1u) << net::to_string(window.kind);
    }
    // Every retry waits out its backoff in a span; every abandon closes
    // its fetch span "abandoned" and trips the flight recorder.
    EXPECT_EQ(collector.count("retry_backoff"), result.resilience.fetch_retries);
    EXPECT_EQ(collector.count("fetch", "abandoned"), result.resilience.fetch_abandoned);
    EXPECT_EQ(recorder.dumps_written(), result.resilience.fetch_abandoned);
    if (result.resilience.fetch_abandoned > 0) {
      // An abandoning fetch spent the whole shared retry budget.
      std::ifstream in{dump_path};
      std::string header;
      ASSERT_TRUE(std::getline(in, header));
      EXPECT_EQ(jsonl_string(header, "reason"),
                "fetch abandoned after attempt " + std::to_string(cfg.fetch_retry.max_retries));
    }

    stalls += collector.count("stall");
    zero_windows += zw;
    backoffs += collector.count("retry_backoff");
    abandons += collector.count("fetch", "abandoned");
  }
  // The catalog exercises every episode kind at least once.
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(zero_windows, 0u);
  EXPECT_GT(backoffs, 0u);
  EXPECT_GT(abandons, 0u);
  std::remove(dump_path.c_str());
}

TEST(FaultScenarioSpanTest, InterruptClosesThePhaseSpan) {
  for (const auto& scenario : streaming::canonical_scenarios(180.0)) {
    if (!scenario.config.watch_fraction.has_value()) continue;
    SCOPED_TRACE(scenario.name);
    SpanCollector collector;
    auto cfg = scenario.config;
    cfg.trace_sink = &collector;
    const auto result = streaming::run_session(cfg);
    ASSERT_TRUE(result.player.interrupted);
    ASSERT_EQ(collector.count("steady", "interrupted") + collector.count("stall", "interrupted") +
                  collector.count("buffering", "interrupted"),
              1u);
    for (const auto& s : collector.spans) {
      if (s.detail == "interrupted") {
        EXPECT_EQ(s.category, "player");
        EXPECT_DOUBLE_EQ(s.t_end_s, result.interrupted_at_s);
      }
    }
  }
}

// ---- the JSONL trace round-trips exactly -----------------------------------

// What tools/trace_export promises: a JSONL trace replayed through
// from_jsonl renders the same Chrome JSON, byte for byte, as a live
// ChromeTraceSink on the same run.
TEST(TraceRoundTripTest, JsonlReplayRendersTheLiveChromeTrace) {
  for (const auto& scenario : streaming::fault_scenarios(180.0)) {
    SCOPED_TRACE(scenario.name);
    struct LiveAndJsonl final : TraceSink {
      ChromeTraceWriter live;
      std::string jsonl;
      void on_event(const TraceEvent& event) override {
        live.add(event);
        jsonl += to_jsonl(event);
        jsonl += '\n';
      }
    } sink;
    auto cfg = scenario.config;
    cfg.trace_sink = &sink;
    (void)streaming::run_session(cfg);

    ChromeTraceWriter replay;
    std::istringstream in{sink.jsonl};
    for (std::string line; std::getline(in, line);) {
      const auto event = from_jsonl(line);
      ASSERT_TRUE(event.has_value()) << line;
      replay.add(*event);
    }
    ASSERT_GT(sink.live.rows(), 0u);
    const std::string live = sink.live.to_json();
    const std::string replayed = replay.to_json();
    const auto diverge = std::mismatch(live.begin(), live.end(), replayed.begin(), replayed.end());
    EXPECT_TRUE(live == replayed)
        << "first difference at byte " << (diverge.first - live.begin()) << ": live \""
        << live.substr(static_cast<std::size_t>(diverge.first - live.begin()), 60)
        << "\" vs replay \""
        << replayed.substr(static_cast<std::size_t>(diverge.second - replayed.begin()), 60)
        << "\"";
  }
}

// ---- determinism: armed vs unobserved ------------------------------------

TEST(SpanDeterminismTest, ArmedRunFingerprintsIdenticallyToUnobserved) {
  // Spans read sim-time and emit; they never schedule or touch RNG. An
  // armed run must therefore be bit-identical to an unobserved twin.
  const auto cfg = observed_session_config();
  const auto unobserved = streaming::fingerprint_session(cfg);
  RingBufferSink sink{4096};
  const auto armed = streaming::fingerprint_session(cfg, &sink);

  EXPECT_GT(sink.total_seen(), 0u) << "armed run never fired a probe";
  EXPECT_EQ(unobserved, armed);
  EXPECT_GT(armed.sim_events, 0u);
  EXPECT_GT(armed.bytes_downloaded, 0u);
}

}  // namespace
}  // namespace vstream::obs
