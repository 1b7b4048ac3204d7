// Tests for the telemetry subsystem: striped counter/gauge aggregation
// under real thread contention (the TSan job runs this file), log-bucket
// histogram boundaries and snapshot merges, the Prometheus exposition
// golden output, registry rendering concurrent with hot writers, and the
// metrics scrape socket's verbs and shutdown.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.h"
#include "telemetry/metrics_socket.h"
#include "telemetry/registry.h"
#include "transport/socket_transport.h"
#include "transport/tcp_transport.h"

namespace capp::telemetry {
namespace {

// ----------------------------------------------------------- primitives --

TEST(CounterTest, AggregatesAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent reads are wait-free and must never tear; they may only
  // under-count adds still in flight.
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t now = counter.Value();
    EXPECT_LE(now, kThreads * kAddsPerThread);
    EXPECT_GE(now, last);
    last = now;
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SignedAggregationAcrossThreads) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Half the threads push the level up twice and down once; the other
    // half mirror it, so the final level is 0 but every intermediate read
    // races with both signs.
    const int64_t up = (t % 2 == 0) ? 2 : 1;
    const int64_t down = (t % 2 == 0) ? -1 : -2;
    threads.emplace_back([&gauge, up, down] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        gauge.Add(up);
        gauge.Add(down);
        gauge.Add(up);
        gauge.Add(down);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const int64_t per_round = 2 * (2 - 1) + 2 * (1 - 2);  // pairs cancel
  EXPECT_EQ(gauge.Value(), per_round * kRoundsPerThread * kThreads / 2);
  gauge.Set(-42);
  EXPECT_EQ(gauge.Value(), -42);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is exactly {0}; bucket b in [1, 62] covers [2^(b-1), 2^b-1];
  // bucket 63 is the unbounded tail.
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  for (size_t b = 1; b <= 62; ++b) {
    const uint64_t lo = uint64_t{1} << (b - 1);
    const uint64_t hi = (uint64_t{1} << b) - 1;
    EXPECT_EQ(Histogram::BucketFor(lo), b) << "lower edge of bucket " << b;
    EXPECT_EQ(Histogram::BucketFor(hi), b) << "upper edge of bucket " << b;
    EXPECT_EQ(Histogram::BucketUpperBound(b), hi);
  }
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 63), 63u);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), 63u);
  EXPECT_EQ(Histogram::BucketUpperBound(63), UINT64_MAX);
}

TEST(HistogramTest, RecordAndSnapshot) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(5);
  histogram.Record(5);
  histogram.Record(1000);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count(), 5u);
  EXPECT_EQ(snap.sum, 1011u);
  EXPECT_EQ(snap.buckets[0], 1u);   // the zero
  EXPECT_EQ(snap.buckets[1], 1u);   // 1
  EXPECT_EQ(snap.buckets[3], 2u);   // 5 twice, in [4, 7]
  EXPECT_EQ(snap.buckets[10], 1u);  // 1000, in [512, 1023]
}

TEST(HistogramTest, SnapshotMergeIsExact) {
  Histogram a;
  Histogram b;
  for (uint64_t v : {0u, 3u, 9u, 1000000u}) a.Record(v);
  for (uint64_t v : {1u, 3u, 500u}) b.Record(v);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  Histogram all;
  for (uint64_t v : {0u, 3u, 9u, 1000000u, 1u, 3u, 500u}) all.Record(v);
  const HistogramSnapshot expected = all.Snapshot();
  EXPECT_EQ(merged.count(), expected.count());
  EXPECT_EQ(merged.sum, expected.sum);
  for (size_t bucket = 0; bucket < HistogramSnapshot::kBuckets; ++bucket) {
    EXPECT_EQ(merged.buckets[bucket], expected.buckets[bucket])
        << "bucket " << bucket;
  }
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record((i + static_cast<uint64_t>(t)) % 4096);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.Snapshot().count(), kThreads * kPerThread);
}

// ----------------------------------------------------- gating & sampling --

TEST(ConfigTest, RoundTripsAndGates) {
  const TelemetryConfig saved = CurrentConfig();
  TelemetryConfig config;
  config.enabled = true;
  config.sample_every = 7;
  Configure(config);
  EXPECT_TRUE(Enabled());
  EXPECT_EQ(SampleEvery(), 7u);
  EXPECT_EQ(CurrentConfig().sample_every, 7u);
  Configure(TelemetryConfig{});
  EXPECT_FALSE(Enabled());
  Configure(saved);
}

TEST(ConfigTest, ShouldSampleHitsOnceEveryN) {
  const TelemetryConfig saved = CurrentConfig();
  TelemetryConfig config;
  config.enabled = true;
  config.sample_every = 4;
  Configure(config);
  // A fresh thread gets a fresh countdown: 1 hit in every 4 calls, with
  // the very first call sampled (so short-lived threads report at all).
  int hits = 0;
  bool first = false;
  std::thread([&hits, &first] {
    for (int i = 0; i < 400; ++i) {
      if (ShouldSample()) {
        ++hits;
        if (i == 0) first = true;
      }
    }
  }).join();
  EXPECT_EQ(hits, 100);
  EXPECT_TRUE(first);
  Configure(saved);
}

TEST(ScopedTimerTest, RecordsOnlyWhenArmed) {
  Histogram histogram;
  { ScopedTimer unarmed; }
  EXPECT_EQ(histogram.Snapshot().count(), 0u);
  {
    ScopedTimer timer;
    timer.Arm(&histogram);
  }
  EXPECT_EQ(histogram.Snapshot().count(), 1u);
}

// ------------------------------------------------------------- registry --

TEST(RegistryTest, PrometheusGoldenOutput) {
  MetricsRegistry registry;
  registry.GetCounter("capp_t_total", "Total things.").Add(7);
  registry.GetGauge("capp_t_depth").Add(-3);
  Histogram& bytes =
      registry.GetHistogram("capp_t_bytes", HistogramUnit::kBytes, "Sizes.");
  bytes.Record(0);
  bytes.Record(1);
  bytes.Record(5);
  bytes.Record(1000);
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP capp_t_bytes Sizes.\n"
            "# TYPE capp_t_bytes histogram\n"
            "capp_t_bytes_bucket{le=\"0\"} 1\n"
            "capp_t_bytes_bucket{le=\"1\"} 2\n"
            "capp_t_bytes_bucket{le=\"3\"} 2\n"
            "capp_t_bytes_bucket{le=\"7\"} 3\n"
            "capp_t_bytes_bucket{le=\"15\"} 3\n"
            "capp_t_bytes_bucket{le=\"31\"} 3\n"
            "capp_t_bytes_bucket{le=\"63\"} 3\n"
            "capp_t_bytes_bucket{le=\"127\"} 3\n"
            "capp_t_bytes_bucket{le=\"255\"} 3\n"
            "capp_t_bytes_bucket{le=\"511\"} 3\n"
            "capp_t_bytes_bucket{le=\"1023\"} 4\n"
            "capp_t_bytes_bucket{le=\"+Inf\"} 4\n"
            "capp_t_bytes_sum 1006\n"
            "capp_t_bytes_count 4\n"
            "# TYPE capp_t_depth gauge\n"
            "capp_t_depth -3\n"
            "# HELP capp_t_total Total things.\n"
            "# TYPE capp_t_total counter\n"
            "capp_t_total 7\n");
}

TEST(RegistryTest, NanosecondHistogramsExportAsSeconds) {
  MetricsRegistry registry;
  registry.GetHistogram("capp_t_seconds", HistogramUnit::kNanoseconds)
      .Record(1500);
  const std::string text = registry.RenderPrometheus();
  // 1500ns lands in bucket 11 ([1024, 2047]); the le boundary is the
  // bucket's upper bound scaled to seconds, as is the sum.
  EXPECT_NE(text.find("capp_t_seconds_bucket{le=\"2.047e-06\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("capp_t_seconds_sum 1.5e-06\n"), std::string::npos)
      << text;
}

TEST(RegistryTest, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.GetCounter("capp_t_total").Add(7);
  registry.GetGauge("capp_t_depth").Add(-3);
  registry.GetHistogram("capp_t_bytes", HistogramUnit::kBytes).Record(5);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\":{\"capp_t_total\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"capp_t_depth\":-3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"capp_t_bytes\":{\"unit\":\"bytes\",\"count\":1,"
                      "\"sum\":5,"),
            std::string::npos)
      << json;
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& first = registry.GetCounter("capp_t_total");
  Counter& again = registry.GetCounter("capp_t_total");
  EXPECT_EQ(&first, &again);
  first.Add(2);
  EXPECT_EQ(registry.CounterValue("capp_t_total"), 2u);
  // Point reads of an absent or differently-kinded name are 0, not UB.
  EXPECT_EQ(registry.CounterValue("capp_t_absent"), 0u);
  EXPECT_EQ(registry.GaugeValue("capp_t_total"), 0);
  registry.Reset();
  EXPECT_EQ(first.Value(), 0u);  // reference stays valid across Reset
}

TEST(RegistryTest, RenderConcurrentWithHotWriters) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("capp_t_total");
  Gauge& gauge = registry.GetGauge("capp_t_depth");
  Histogram& histogram =
      registry.GetHistogram("capp_t_seconds", HistogramUnit::kNanoseconds);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&counter, &gauge, &histogram, &stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add(1);
        gauge.Add(i % 2 == 0 ? 1 : -1);
        histogram.Record(i % 100000);
        ++i;
      }
    });
  }
  // Exporters hold the map mutex only to walk names; values are relaxed
  // reads racing the writers above. TSan verifies the absence of data
  // races; these assertions verify the output stays well-formed.
  for (int i = 0; i < 50; ++i) {
    const std::string text = registry.RenderPrometheus();
    EXPECT_NE(text.find("# TYPE capp_t_total counter\n"), std::string::npos);
    const std::string json = registry.RenderJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(registry.CounterValue("capp_t_total"), counter.Value());
}

// -------------------------------------------------------- scrape socket --

class MetricsSocketServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.GetCounter("capp_t_scrapes_total", "Scrapes.").Add(3);
    auto server = MetricsSocketServer::Create(&registry_, path_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  // Sends one request and reads the reply until the server closes.
  std::string Scrape(std::string_view request) {
    auto fd = ConnectEndpointFd(SocketEndpoint::Unix(path_));
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) return "";
    EXPECT_TRUE(SendAll(*fd, std::span(reinterpret_cast<const uint8_t*>(
                                           request.data()),
                                       request.size()))
                    .ok());
    std::string reply;
    char buf[4096];
    for (ssize_t got; (got = ::recv(*fd, buf, sizeof(buf), 0)) > 0;) {
      reply.append(buf, static_cast<size_t>(got));
    }
    ::close(*fd);
    return reply;
  }

  MetricsRegistry registry_;
  const std::string path_ = MakeLoopbackSocketPath();
  std::unique_ptr<MetricsSocketServer> server_;
};

TEST_F(MetricsSocketServerTest, GetMetricsIsHttpWithMatchingLength) {
  const std::string reply = Scrape("GET /metrics HTTP/1.0\r\n\r\n");
  ASSERT_EQ(reply.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << reply;
  const size_t header_end = reply.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string body = reply.substr(header_end + 4);
  EXPECT_EQ(body, registry_.RenderPrometheus());
  EXPECT_NE(body.find("capp_t_scrapes_total 3\n"), std::string::npos);
  const std::string length =
      "Content-Length: " + std::to_string(body.size()) + "\r\n";
  EXPECT_NE(reply.substr(0, header_end + 2).find(length), std::string::npos)
      << reply.substr(0, header_end);
}

TEST_F(MetricsSocketServerTest, MetricsAndStatsVerbs) {
  // The bare verb is the same HTTP response as GET.
  EXPECT_EQ(Scrape("metrics\n"), Scrape("GET /metrics HTTP/1.0\r\n\r\n"));
  // stats is the JSON snapshot on one line.
  const std::string stats = Scrape("stats\n");
  EXPECT_EQ(stats, registry_.RenderJson() + "\n");
  EXPECT_EQ(stats.find('\n'), stats.size() - 1);
  EXPECT_EQ(stats.rfind("{", 0), 0u);
}

TEST_F(MetricsSocketServerTest, UnknownVerbIsAnError) {
  EXPECT_EQ(Scrape("scrape please\n").rfind("ERR ", 0), 0u);
  EXPECT_EQ(Scrape("\n").rfind("ERR ", 0), 0u);
  // The server is still up for the next scrape.
  EXPECT_EQ(Scrape("stats\n"), registry_.RenderJson() + "\n");
}

TEST_F(MetricsSocketServerTest, StopRemovesTheSocketFileAndIsIdempotent) {
  ASSERT_EQ(::access(path_.c_str(), F_OK), 0);
  server_->Stop();
  EXPECT_NE(::access(path_.c_str(), F_OK), 0);
  EXPECT_FALSE(ConnectEndpointFd(SocketEndpoint::Unix(path_)).ok());
  server_->Stop();
  server_.reset();  // the destructor stops again
  EXPECT_NE(::access(path_.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace capp::telemetry
