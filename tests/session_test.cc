// Tests for the high-level UserSession / CollectorSession deployment API.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/math_utils.h"
#include "stream/report_io.h"
#include "stream/session.h"

namespace capp {
namespace {

TEST(UserSessionTest, RejectsSamplingAlgorithms) {
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kAppS, {1.0, 10}, 7).ok());
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kSampling, {1.0, 10}, 7).ok());
}

TEST(UserSessionTest, RejectsBadOptions) {
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kCapp, {0.0, 10}, 7).ok());
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kCapp, {1.0, 0}, 7).ok());
}

TEST(UserSessionTest, ReportsCarrySlotAndUser) {
  auto session = UserSession::Create(42, AlgorithmKind::kCapp, {1.0, 10}, 7);
  ASSERT_TRUE(session.ok());
  for (size_t t = 0; t < 25; ++t) {
    const SlotReport report = session->Report(0.4);
    EXPECT_EQ(report.user_id, 42u);
    EXPECT_EQ(report.slot, t);
    EXPECT_TRUE(std::isfinite(report.value));
  }
  EXPECT_EQ(session->slots_processed(), 25u);
}

TEST(UserSessionTest, BudgetAuditStaysGreen) {
  auto session = UserSession::Create(7, AlgorithmKind::kApp, {2.0, 5}, 11);
  ASSERT_TRUE(session.ok());
  for (int t = 0; t < 100; ++t) session->Report(0.3 + 0.001 * t);
  EXPECT_TRUE(session->AuditBudget().ok());
  EXPECT_NEAR(session->MaxWindowSpend(), 2.0, 1e-9);
}

TEST(UserSessionTest, DeterministicForSameSeed) {
  auto a = UserSession::Create(1, AlgorithmKind::kIpp, {1.0, 10}, 99);
  auto b = UserSession::Create(1, AlgorithmKind::kIpp, {1.0, 10}, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int t = 0; t < 50; ++t) {
    EXPECT_DOUBLE_EQ(a->Report(0.6).value, b->Report(0.6).value);
  }
}

TEST(CollectorSessionTest, RejectsEvenSmoothing) {
  EXPECT_FALSE(CollectorSession::Create(2).ok());
  EXPECT_FALSE(CollectorSession::Create(0).ok());
  EXPECT_TRUE(CollectorSession::Create(1).ok());
}

TEST(CollectorSessionTest, IngestAndCount) {
  auto collector = CollectorSession::Create();
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.5});
  collector->Ingest({1, 1, 0.6});
  collector->Ingest({2, 0, 0.4});
  EXPECT_EQ(collector->user_count(), 2u);
  EXPECT_EQ(collector->SlotCount(1), 2u);
  EXPECT_EQ(collector->SlotCount(2), 1u);
  EXPECT_EQ(collector->SlotCount(3), 0u);
}

TEST(CollectorSessionTest, OverwriteIsLastWriteWins) {
  auto collector = CollectorSession::Create(1);
  ASSERT_TRUE(collector.ok());
  collector->Ingest({7, 2, 0.1});
  collector->Ingest({7, 2, 0.9});
  EXPECT_EQ(collector->user_count(), 1u);
  EXPECT_EQ(collector->SlotCount(7), 1u);
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 3u);
  EXPECT_DOUBLE_EQ(means[2], 0.9);
  auto stream = collector->PublishedStream(7);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(*stream, (std::vector<double>{0.5, 0.5, 0.9}));
}

TEST(CollectorSessionTest, NonFiniteReportsAreDiscarded) {
  auto collector = CollectorSession::Create(1);
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, std::nan("")});
  collector->Ingest({1, 1, -std::numeric_limits<double>::infinity()});
  // A garbage report must not register the user or touch the means...
  EXPECT_EQ(collector->user_count(), 0u);
  EXPECT_EQ(collector->SlotCount(1), 0u);
  EXPECT_FALSE(collector->PublishedStream(1).ok());
  EXPECT_TRUE(collector->PopulationSlotMeans().empty());
  // ...and must not shadow a later valid report for the same slot.
  collector->Ingest({1, 0, 0.3});
  EXPECT_EQ(collector->SlotCount(1), 1u);
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 1u);
  EXPECT_DOUBLE_EQ(means[0], 0.3);
}

TEST(CollectorSessionTest, PublishedStreamFillsGaps) {
  auto collector = CollectorSession::Create(1);  // no smoothing
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.2});
  collector->Ingest({1, 3, 0.8});  // slots 1, 2 missing
  auto stream = collector->PublishedStream(1);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream->size(), 4u);
  EXPECT_DOUBLE_EQ((*stream)[0], 0.2);
  EXPECT_DOUBLE_EQ((*stream)[1], 0.2);  // carried forward
  EXPECT_DOUBLE_EQ((*stream)[2], 0.2);
  EXPECT_DOUBLE_EQ((*stream)[3], 0.8);
}

TEST(CollectorSessionTest, UnknownUserIsNotFound) {
  auto collector = CollectorSession::Create();
  ASSERT_TRUE(collector.ok());
  EXPECT_FALSE(collector->PublishedStream(9).ok());
  EXPECT_FALSE(collector->SubsequenceMean(9, 0, 5).ok());
}

TEST(CollectorSessionTest, SubsequenceMeanOverReports) {
  auto collector = CollectorSession::Create(1);
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.2});
  collector->Ingest({1, 1, 0.4});
  collector->Ingest({1, 2, 0.9});
  auto mean = collector->SubsequenceMean(1, 0, 2);
  ASSERT_TRUE(mean.ok());
  EXPECT_NEAR(*mean, 0.3, 1e-12);
  EXPECT_FALSE(collector->SubsequenceMean(1, 5, 2).ok());
  EXPECT_FALSE(collector->SubsequenceMean(1, 0, 0).ok());
}

TEST(CollectorSessionTest, SubsequenceMeanSaturatesItsInterval) {
  // An interval whose end would pass SIZE_MAX ends there instead of
  // wrapping, and the walk visits only the stored reports, so even a
  // SIZE_MAX-long interval answers at once.
  auto collector = CollectorSession::Create(1);
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.2});
  collector->Ingest({1, 1, 0.4});
  collector->Ingest({1, 2, 0.9});
  auto tail = collector->SubsequenceMean(1, 1, SIZE_MAX);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_NEAR(*tail, 0.65, 1e-12);
  auto all = collector->SubsequenceMean(1, 0, SIZE_MAX);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_NEAR(*all, 0.5, 1e-12);
  EXPECT_FALSE(collector->SubsequenceMean(1, SIZE_MAX, SIZE_MAX).ok());
}

TEST(CollectorSessionTest, PopulationSlotMeans) {
  auto collector = CollectorSession::Create(1);
  ASSERT_TRUE(collector.ok());
  collector->Ingest({1, 0, 0.2});
  collector->Ingest({2, 0, 0.4});
  collector->Ingest({1, 2, 1.0});
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 3u);
  EXPECT_NEAR(means[0], 0.3, 1e-12);
  EXPECT_TRUE(std::isnan(means[1]));  // nobody reported slot 1
  EXPECT_NEAR(means[2], 1.0, 1e-12);
}

TEST(CollectorSessionTest, EmptySessionBehaves) {
  auto collector = CollectorSession::Create();
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector->user_count(), 0u);
  EXPECT_TRUE(collector->PopulationSlotMeans().empty());
}

// End-to-end: many user sessions feeding one collector; the population
// mean tracks the true common signal.
TEST(SessionIntegrationTest, PopulationMeanTracksSignal) {
  auto collector = CollectorSession::Create(1);
  ASSERT_TRUE(collector.ok());
  const int kUsers = 400;
  // The deviation feedback corrects the running mean with time constant
  // ~1/alpha slots (alpha = SW's mean-line slope, ~0.07 at eps/w = 0.2),
  // so give it a long enough horizon to converge.
  const int kSlots = 100;
  std::vector<UserSession> sessions;
  sessions.reserve(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    auto session = UserSession::Create(static_cast<uint64_t>(u),
                                       AlgorithmKind::kApp, {2.0, 10},
                                       1000 + u);
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  // Signal centered at 0.5: APP's feedback equilibrium stays inside the
  // [0,1] clip range. (A mean far below SW's output intercept ~0.45
  // saturates the clip and the plain-APP calibration stalls -- the exact
  // pathology CAPP's widened bounds address.)
  std::vector<double> signal;
  for (int t = 0; t < kSlots; ++t) {
    const double x = 0.5 + 0.15 * std::sin(t / 3.0);
    signal.push_back(x);
    for (auto& session : sessions) {
      collector->Ingest(session.Report(x));
    }
  }
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), signal.size());
  for (double m : means) EXPECT_TRUE(std::isfinite(m));
  // APP's raw reports are per-slot biased toward mid-domain (SW's output
  // mean line is nearly flat at stream budgets); what the deviation
  // feedback guarantees is that the *window average* of the published
  // stream matches the signal's average (Lemma IV.2). Per-slot tracking
  // needs the debiasing collector of analysis/reconstruction.h instead.
  EXPECT_NEAR(Mean(means), Mean(signal), 0.04);
}

// ---------------------------------------------------------- report I/O ----

class ReportIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "capp_report_io_test.csv")
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(ReportIoTest, RoundTrip) {
  const std::vector<SlotReport> reports = {
      {1, 0, 0.25}, {1, 1, -0.1}, {42, 7, 1.3}};
  ASSERT_TRUE(SaveReportsCsv(path_, reports).ok());
  auto loaded = LoadReportsCsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[2].user_id, 42u);
  EXPECT_EQ((*loaded)[2].slot, 7u);
  EXPECT_DOUBLE_EQ((*loaded)[2].value, 1.3);
  EXPECT_DOUBLE_EQ((*loaded)[1].value, -0.1);
}

TEST_F(ReportIoTest, RejectsWrongFieldCount) {
  {
    std::ofstream out(path_);
    out << "user_id,slot,value\n1,2\n";
  }
  EXPECT_FALSE(LoadReportsCsv(path_).ok());
}

TEST_F(ReportIoTest, RejectsNegativeIds) {
  {
    std::ofstream out(path_);
    out << "user_id,slot,value\n-1,0,0.5\n";
  }
  EXPECT_FALSE(LoadReportsCsv(path_).ok());
}

TEST_F(ReportIoTest, RejectsSlotsPastTheCellIndex) {
  // A slot past 2^32 - 1 would overrun the collectors' uint32 slot index;
  // the loader refuses it as a row error, like wire decode does.
  for (const char* slot : {"18446744073709551615", "4294967296"}) {
    SCOPED_TRACE(slot);
    {
      std::ofstream out(path_);
      out << "user_id,slot,value\n1," << slot << ",0.5\n";
    }
    const auto loaded = LoadReportsCsv(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    std::ofstream out(path_);
    out << "user_id,slot,value\n1,4294967295,0.5\n";
  }
  const auto last = LoadReportsCsv(path_);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ((*last)[0].slot, 4294967295u);
}

TEST_F(ReportIoTest, MissingFileIsError) {
  EXPECT_FALSE(LoadReportsCsv("/definitely/not/here.csv").ok());
}

TEST_F(ReportIoTest, BatchIngestEquivalentToStreaming) {
  // A user streams via session; reports are archived, reloaded, and batch-
  // ingested into a fresh collector; both collectors agree.
  auto session = UserSession::Create(5, AlgorithmKind::kApp, {1.0, 10}, 3);
  ASSERT_TRUE(session.ok());
  std::vector<SlotReport> reports;
  auto live = CollectorSession::Create();
  ASSERT_TRUE(live.ok());
  for (int t = 0; t < 30; ++t) {
    const SlotReport report = session->Report(0.4 + 0.01 * t);
    live->Ingest(report);
    reports.push_back(report);
  }
  ASSERT_TRUE(SaveReportsCsv(path_, reports).ok());
  auto reloaded = LoadReportsCsv(path_);
  ASSERT_TRUE(reloaded.ok());
  auto replayed = CollectorSession::Create();
  ASSERT_TRUE(replayed.ok());
  IngestAll(*reloaded, &*replayed);
  auto live_stream = live->PublishedStream(5);
  auto replay_stream = replayed->PublishedStream(5);
  ASSERT_TRUE(live_stream.ok() && replay_stream.ok());
  ASSERT_EQ(live_stream->size(), replay_stream->size());
  for (size_t t = 0; t < live_stream->size(); ++t) {
    EXPECT_NEAR((*live_stream)[t], (*replay_stream)[t], 1e-9) << t;
  }
}

}  // namespace
}  // namespace capp
