// Telemetry tests (docs/TELEMETRY.md): flight-recorder publish/read
// semantics (ordering, wrap, torn-slot rejection under concurrent
// writers), the env-var option overlay, the sampler hub's ring and
// serialization contract, Prometheus text rendering, and the loopback
// /metrics listener end to end.
#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "test_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TILQ_TEST_HAVE_SOCKETS 1
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define TILQ_TEST_HAVE_SOCKETS 0
#endif

namespace tilq {
namespace {

using test::ScopedEnv;

TEST(FlightRecorderTest, RecordsEventsInOrderWithFields) {
  FlightRecorder recorder(64);
  recorder.record(7, FlightEventKind::kSubmitted, -1, 1000);
  recorder.record(7, FlightEventKind::kLaneAssigned, 2, 1000);
  recorder.record(7, FlightEventKind::kFinalized);
  const std::vector<FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].job, 7u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kSubmitted);
  EXPECT_EQ(events[0].lane, -1);
  EXPECT_EQ(events[0].flops, 1000);
  EXPECT_EQ(events[1].kind, FlightEventKind::kLaneAssigned);
  EXPECT_EQ(events[1].lane, 2);
  EXPECT_EQ(events[2].kind, FlightEventKind::kFinalized);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  EXPECT_LT(events[0].sequence, events[1].sequence);
  EXPECT_EQ(recorder.recorded(), 3u);
}

TEST(FlightRecorderTest, JsonDumpNamesEventsAndJobs) {
  FlightRecorder recorder(16);
  recorder.record(42, FlightEventKind::kSubmitted, -1, 99);
  recorder.record(42, FlightEventKind::kFinalized);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"event\":\"submitted\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"event\":\"finalized\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"job\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"flops\":99"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(FlightRecorderTest, PerJobFilterAndDump) {
  FlightRecorder recorder(64);
  recorder.record(1, FlightEventKind::kSubmitted);
  recorder.record(2, FlightEventKind::kSubmitted);
  recorder.record(1, FlightEventKind::kFinalized);
  const std::vector<FlightEvent> one = recorder.events_for(1);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0].kind, FlightEventKind::kSubmitted);
  EXPECT_EQ(one[1].kind, FlightEventKind::kFinalized);
  const std::string json = recorder.to_json(2);
  EXPECT_NE(json.find("\"job\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"job\":1"), std::string::npos);
}

TEST(FlightRecorderTest, WrapsKeepingTheMostRecentEvents) {
  FlightRecorder recorder(8);  // power of two already
  EXPECT_EQ(recorder.capacity(), 8u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    recorder.record(i, FlightEventKind::kSubmitted);
  }
  EXPECT_EQ(recorder.recorded(), 100u);
  const std::vector<FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are exactly the last 8, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].job, 92 + i);
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(9);
  EXPECT_EQ(recorder.capacity(), 16u);
  FlightRecorder tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearSlots) {
  // Writers race on the same small ring while readers scan it; the seqlock
  // must reject mixed slots, so every event a reader returns satisfies the
  // writer-side invariant flops == 3 * job.
  FlightRecorder recorder(32);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20'000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scanned{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightEvent& event : recorder.events()) {
        ASSERT_EQ(event.flops, static_cast<std::int64_t>(event.job) * 3);
        scanned.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const auto job = static_cast<std::uint64_t>(w) * kPerWriter +
                         static_cast<std::uint64_t>(i);
        recorder.record(job, FlightEventKind::kSubmitted, -1,
                        static_cast<std::int64_t>(job) * 3);
      }
    });
  }
  for (std::thread& thread : writers) {
    thread.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(recorder.events().size(), recorder.capacity());
}

TEST(FlightEventKindTest, EveryKindHasAStableName) {
  EXPECT_STREQ(to_string(FlightEventKind::kSubmitted), "submitted");
  EXPECT_STREQ(to_string(FlightEventKind::kPlanned), "planned");
  EXPECT_STREQ(to_string(FlightEventKind::kAdmitted), "admitted");
  EXPECT_STREQ(to_string(FlightEventKind::kLaneAssigned), "lane-assigned");
  EXPECT_STREQ(to_string(FlightEventKind::kFirstTile), "first-tile");
  EXPECT_STREQ(to_string(FlightEventKind::kFinalized), "finalized");
  EXPECT_STREQ(to_string(FlightEventKind::kShed), "shed");
  EXPECT_STREQ(to_string(FlightEventKind::kDeferred), "deferred");
  EXPECT_STREQ(to_string(FlightEventKind::kDeadlineMiss), "deadline-miss");
  EXPECT_STREQ(to_string(FlightEventKind::kStuck), "stuck");
}

TEST(TelemetryOptionsTest, EnvOverlayParsesSwitchIntervalPortAndDump) {
  {
    const ScopedEnv env("TILQ_TELEMETRY", "on");
    const TelemetryOptions options =
        telemetry_options_from_env(TelemetryOptions{});
    EXPECT_TRUE(options.enabled);
    EXPECT_DOUBLE_EQ(options.sample_interval_ms, 100.0);  // base untouched
  }
  {
    const ScopedEnv env("TILQ_TELEMETRY", "off");
    TelemetryOptions base;
    base.enabled = true;  // env wins over code
    EXPECT_FALSE(telemetry_options_from_env(base).enabled);
  }
  {
    const ScopedEnv env("TILQ_TELEMETRY", "0");
    TelemetryOptions base;
    base.enabled = true;
    EXPECT_FALSE(telemetry_options_from_env(base).enabled);
  }
  {
    // A numeric value is both the switch and the sample interval.
    const ScopedEnv env("TILQ_TELEMETRY", "25");
    const TelemetryOptions options =
        telemetry_options_from_env(TelemetryOptions{});
    EXPECT_TRUE(options.enabled);
    EXPECT_DOUBLE_EQ(options.sample_interval_ms, 25.0);
  }
  {
    const ScopedEnv env("TILQ_TELEMETRY_PORT", "8080");
    EXPECT_EQ(telemetry_options_from_env(TelemetryOptions{}).port, 8080);
  }
  {
    const ScopedEnv env("TILQ_TELEMETRY_DUMP", "/tmp/flight.json");
    EXPECT_EQ(telemetry_options_from_env(TelemetryOptions{}).dump_path,
              "/tmp/flight.json");
  }
}

TEST(RenderPrometheusTest, FreeFunctionEmitsEveryCounterWithTypeLines) {
  std::string out;
  render_prometheus(out);
  // Spot-check the schema anchors; the full name list is linted against
  // docs/TELEMETRY.md by tools/check_metrics_docs.py --telemetry-doc.
  EXPECT_NE(out.find("# TYPE tilq_flops counter"), std::string::npos);
  EXPECT_NE(out.find("# HELP tilq_flops"), std::string::npos);
  EXPECT_NE(out.find("\ntilq_flops "), std::string::npos);
  EXPECT_NE(out.find("# TYPE tilq_engine_jobs_stuck counter"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE tilq_engine_telemetry_samples counter"),
            std::string::npos);
  // Text exposition ends in a newline (the format requires it).
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
}

TelemetryOptions quiet_options() {
  TelemetryOptions options;
  options.enabled = true;
  options.sample_interval_ms = 1000.0;  // ticks driven by sample_now()
  options.port = -1;
  return options;
}

TEST(TelemetryHubTest, CollectorFeedsTheRingAndLatest) {
  std::atomic<int> calls{0};
  TelemetryOptions options = quiet_options();
  TelemetryHub hub(options, [&calls] {
    TelemetrySample sample;
    sample.jobs_completed =
        static_cast<std::uint64_t>(calls.fetch_add(1) + 1);
    sample.uptime_ms = 12.0;
    return sample;
  });
  // The constructor takes the first sample eagerly.
  EXPECT_GE(hub.sample_count(), 1u);
  hub.sample_now();
  hub.sample_now();
  EXPECT_GE(hub.sample_count(), 3u);
  const auto latest = hub.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->uptime_ms, 12.0);
  const std::vector<TelemetrySample> samples = hub.samples();
  EXPECT_GE(samples.size(), 3u);
  // Samples are oldest first and carry monotone hub timestamps.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].t_ms, samples[i].t_ms);
    EXPECT_LT(samples[i - 1].jobs_completed, samples[i].jobs_completed);
  }
}

TEST(TelemetryHubTest, RingTrimsToCapacityButCountKeepsGrowing) {
  TelemetryOptions options = quiet_options();
  options.ring_capacity = 4;
  TelemetryHub hub(options, [] { return TelemetrySample{}; });
  for (int i = 0; i < 20; ++i) {
    hub.sample_now();
  }
  EXPECT_LE(hub.samples().size(), 4u);
  EXPECT_GE(hub.sample_count(), 21u);
}

TEST(TelemetryHubTest, SamplerThreadTicksOnItsOwn) {
  TelemetryOptions options = quiet_options();
  options.sample_interval_ms = 1.0;
  TelemetryHub hub(options, [] { return TelemetrySample{}; });
  const std::uint64_t before = hub.sample_count();
  for (int i = 0; i < 200 && hub.sample_count() <= before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(hub.sample_count(), before);
}

TEST(TelemetryHubTest, MemberRenderAddsEngineGauges) {
  TelemetryOptions options = quiet_options();
  TelemetryHub hub(options, [] {
    TelemetrySample sample;
    sample.uptime_ms = 2500.0;
    sample.in_flight = 3;
    sample.plan_hit_rate = 0.75;
    sample.workers.push_back({10, 2});
    sample.workers.push_back({11, 0});
    return sample;
  });
  hub.sample_now();
  std::string out;
  hub.render_prometheus(out);
  EXPECT_NE(out.find("tilq_engine_up 1"), std::string::npos) << out;
  EXPECT_NE(out.find("tilq_engine_uptime_seconds 2.5"), std::string::npos);
  EXPECT_NE(out.find("tilq_engine_in_flight 3"), std::string::npos);
  EXPECT_NE(out.find("tilq_engine_plan_hit_rate 0.75"), std::string::npos);
  EXPECT_NE(out.find("tilq_engine_worker_executed{worker=\"0\"} 10"),
            std::string::npos);
  EXPECT_NE(out.find("tilq_engine_worker_stolen{worker=\"1\"} 0"),
            std::string::npos);
  // The process-wide counters from the free function are included too.
  EXPECT_NE(out.find("# TYPE tilq_flops counter"), std::string::npos);
}

TEST(TelemetryHubTest, FlightDumpIsWrittenAtDestruction) {
  const std::string path = ::testing::TempDir() + "tilq_flight_dump.json";
  std::remove(path.c_str());
  {
    TelemetryOptions options = quiet_options();
    options.dump_path = path;
    TelemetryHub hub(options, [] { return TelemetrySample{}; });
    hub.flight().record(5, FlightEventKind::kSubmitted);
    hub.flight().record(5, FlightEventKind::kFinalized);
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr) << path;
  std::string contents(1 << 14, '\0');
  const std::size_t n = std::fread(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  contents.resize(n);
  EXPECT_NE(contents.find("\"event\":\"finalized\""), std::string::npos);
  EXPECT_NE(contents.find("\"job\":5"), std::string::npos);
  std::remove(path.c_str());
}

#if TILQ_TEST_HAVE_SOCKETS
/// Minimal loopback HTTP GET, enough to exercise the hub's listener.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(TelemetryHubTest, HttpListenerServesMetricsHealthzAnd404) {
  TelemetryOptions options = quiet_options();
  options.port = 0;  // ephemeral
  TelemetryHub hub(options, [] {
    TelemetrySample sample;
    sample.jobs_completed = 17;
    return sample;
  });
  if (hub.port() < 0) {
    GTEST_SKIP() << "loopback bind unavailable in this environment";
  }
  const std::string metrics = http_get(hub.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("tilq_engine_up 1"), std::string::npos);
  EXPECT_NE(metrics.find("tilq_engine_jobs_submitted"), std::string::npos);

  const std::string healthz = http_get(hub.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string missing = http_get(hub.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
}

// /healthz follows the engine health state machine (docs/ROBUSTNESS.md):
// degraded still answers 200 (serving, investigate), browned-out answers
// 503 so load balancers stop routing new work here.
TEST(TelemetryHubTest, HealthzReflectsTheHealthProvider) {
  TelemetryOptions options = quiet_options();
  options.port = 0;
  std::atomic<EngineHealth> health{EngineHealth::kDegraded};
  TelemetryHub hub(
      options, [] { return TelemetrySample{}; },
      [&health] { return health.load(); });
  if (hub.port() < 0) {
    GTEST_SKIP() << "loopback bind unavailable in this environment";
  }
  const std::string degraded = http_get(hub.port(), "/healthz");
  EXPECT_NE(degraded.find("HTTP/1.1 200"), std::string::npos) << degraded;
  EXPECT_NE(degraded.find("degraded"), std::string::npos);

  health.store(EngineHealth::kBrownedOut);
  const std::string browned = http_get(hub.port(), "/healthz");
  EXPECT_NE(browned.find("HTTP/1.1 503"), std::string::npos) << browned;
  EXPECT_NE(browned.find("browned-out"), std::string::npos);

  health.store(EngineHealth::kHealthy);
  const std::string healthy = http_get(hub.port(), "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.1 200"), std::string::npos);
  // "ok" stays the healthy body: pre-resilience probes match on it.
  EXPECT_NE(healthy.find("ok"), std::string::npos);
}
#endif  // TILQ_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace tilq
