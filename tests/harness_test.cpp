/**
 * @file
 * Tests for the evaluation harness: the driver's run/record loop, end
 * reasons, series recording, effect formatting, and table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

namespace lp {
namespace {

class HarnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerAllWorkloads(); }
};

TEST_F(HarnessTest, IterationCapRespected)
{
    DriverConfig cfg;
    cfg.tolerance = ToleranceMode::None;
    cfg.heapBytes = 32u << 20;
    cfg.maxIterations = 25;
    const RunResult r = runWorkloadByName("suite.churn", cfg);
    EXPECT_EQ(r.iterations, 25u);
    EXPECT_EQ(r.end, EndReason::IterationCap);
}

TEST_F(HarnessTest, SeriesRecordedWhenRequested)
{
    DriverConfig cfg;
    cfg.tolerance = ToleranceMode::None;
    cfg.heapBytes = 32u << 20;
    cfg.maxIterations = 40;
    cfg.recordSeries = true;
    cfg.sampleEvery = 2;
    const RunResult r = runWorkloadByName("suite.tree", cfg);
    EXPECT_EQ(r.iterMillis.size(), 20u);
    EXPECT_EQ(r.memoryMb.size(), 20u);
    // Disabled by default.
    cfg.recordSeries = false;
    const RunResult r2 = runWorkloadByName("suite.tree", cfg);
    EXPECT_EQ(r2.iterMillis.size(), 0u);
}

TEST_F(HarnessTest, OomRunsReportEndDetail)
{
    DriverConfig cfg;
    cfg.tolerance = ToleranceMode::None;
    cfg.maxSeconds = 15.0;
    const RunResult r = runWorkloadByName("ListLeak", cfg);
    EXPECT_EQ(r.end, EndReason::OutOfMemory);
    EXPECT_NE(r.endDetail.find("OutOfMemoryError"), std::string::npos);
    EXPECT_FALSE(r.survived());
}

TEST_F(HarnessTest, StatsArePopulated)
{
    DriverConfig cfg;
    cfg.maxSeconds = 10.0;
    const RunResult r = runWorkloadByName("ListLeak", cfg);
    EXPECT_GT(r.gc.collections, 0u);
    EXPECT_GT(r.barrier.reads, 0u);
    EXPECT_GT(r.pruning.refsPoisoned, 0u);
    EXPECT_GT(r.edgeTypeCount, 0u);
    EXPECT_GT(r.maxLiveBytes, 0u);
    EXPECT_FALSE(r.pruneLog.empty());
}

TEST_F(HarnessTest, DescribeEffectShapes)
{
    RunResult base;
    base.iterations = 100;
    base.end = EndReason::OutOfMemory;

    RunResult capped;
    capped.iterations = 5000;
    capped.end = EndReason::IterationCap;
    EXPECT_NE(describeEffect(base, capped).find(">50.0X"), std::string::npos);

    RunResult died;
    died.iterations = 470;
    died.end = EndReason::OutOfMemory;
    EXPECT_NE(describeEffect(base, died).find("4.7X longer"),
              std::string::npos);

    RunResult same;
    same.iterations = 105;
    same.end = EndReason::OutOfMemory;
    EXPECT_NE(describeEffect(base, same).find("no help"), std::string::npos);

    RunResult done;
    done.iterations = 100;
    done.end = EndReason::Finished;
    EXPECT_NE(describeEffect(base, done).find("completes"), std::string::npos);
}

TEST_F(HarnessTest, UnknownWorkloadIsFatal)
{
    DriverConfig cfg;
    EXPECT_EXIT(runWorkloadByName("no-such-workload", cfg),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(DecisionDigestTest, CoversTheOffloadBaseline)
{
    RunResult a;
    a.iterations = 3000;
    const std::uint64_t no_offload = a.decisionDigest();
    a.offload.offloadCollections = 4;
    a.offload.objectsOffloaded = 100;
    RunResult b = a;
    b.offload.objectsOffloaded = 101;
    EXPECT_NE(a.decisionDigest(), b.decisionDigest())
        << "runs that offloaded different objects digest differently";
    EXPECT_NE(a.decisionDigest(), no_offload);
    a.offload = DiskOffloadStats{};
    EXPECT_EQ(a.decisionDigest(), no_offload)
        << "the formula for runs without offload is unchanged";
}

// The collector keeps exact pause samples only up to
// GcStats::kMaxPauseSamples; past that, a percentile comes from the
// histogram, which holds every pause. Here the first kMaxPauseSamples
// pauses are short and the three times as many after them long, so
// only the histogram puts the median among the long ones.
TEST(PausePercentileTest, ReadsTheHistogramPastTheSampleCap)
{
    constexpr std::uint64_t kShort = 1000, kLong = 1000000;
    RunResult r;
    EXPECT_EQ(r.pausePercentileNanos(0.5), 0u) << "no collection";
    for (std::size_t i = 0; i < GcStats::kMaxPauseSamples; ++i) {
        r.gc.pauseSamplesNanos.push_back(kShort);
        r.gc.pauseHistogram.add(kShort);
    }
    r.gc.collections = GcStats::kMaxPauseSamples;
    EXPECT_EQ(r.pausePercentileNanos(0.5), kShort) << "exact below the cap";

    for (std::size_t i = 0; i < 3 * GcStats::kMaxPauseSamples; ++i)
        r.gc.pauseHistogram.add(kLong);
    r.gc.collections = 4 * GcStats::kMaxPauseSamples;
    const std::uint64_t p50 = r.pausePercentileNanos(0.5);
    EXPECT_GT(p50, kLong);
    EXPECT_LE(p50, 2 * kLong) << "the bound of the long pauses' bucket";
    EXPECT_EQ(r.pausePercentileNanos(0.1), r.gc.pauseHistogram.percentileBound(0.1));
    EXPECT_LE(r.pausePercentileNanos(0.1), 2 * kShort) << "short pauses still rank first";
}

TEST(ReportTest, TextTableAlignsColumns)
{
    TextTable table({"a", "long header", "c"});
    table.addRow({"1", "2", "3"});
    table.addRow({"wide cell value", "x", ""});
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    // Every rendered line has the same width.
    std::size_t width = 0;
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width) << line;
    }
    EXPECT_NE(out.find("long header"), std::string::npos);
    EXPECT_NE(out.find("wide cell value"), std::string::npos);
}

TEST(ReportTest, FormatRatio)
{
    EXPECT_EQ(formatRatio(4.71), "4.7X");
    EXPECT_EQ(formatRatio(203.3), "203X");
    EXPECT_EQ(formatRatio(12.0, true), ">12X");
    EXPECT_EQ(formatRatio(1.04), "1.0X");
}

} // namespace
} // namespace lp
