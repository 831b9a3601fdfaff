/**
 * @file
 * Unit tests for the utility layer: bits, hashing, RNG determinism,
 * stats, and series recording.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/bits.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/series.h"
#include "util/stats.h"

namespace lp {
namespace {

TEST(BitsTest, PowerOfTwoAndRounding)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(24));

    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(roundUp(1, 8), 8u);
    EXPECT_EQ(roundUp(8, 8), 8u);
    EXPECT_EQ(roundUp(9, 8), 16u);
    EXPECT_EQ(roundDown(15, 8), 8u);
    EXPECT_TRUE(isAligned(64, 8));
    EXPECT_FALSE(isAligned(65, 8));
}

TEST(BitsTest, Log2)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(HashTest, PairHashSpreads)
{
    // Nearby id pairs must not collide in the low bits that index a
    // power-of-two table (the edge table relies on this).
    std::set<std::uint64_t> low_bits;
    for (std::uint32_t a = 0; a < 64; ++a)
        for (std::uint32_t b = 0; b < 8; ++b)
            low_bits.insert(hashPair(a, b) & 0x3fff);
    EXPECT_GT(low_bits.size(), 480u) << "too many low-bit collisions";
}

TEST(HashTest, FnvIsStable)
{
    EXPECT_EQ(hashString("abc"), hashString("abc"));
    EXPECT_NE(hashString("abc"), hashString("abd"));
}

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(RngTest, BoundsRespected)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const auto v = rng.nextRange(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(StatsTest, LogHistogramBuckets)
{
    LogHistogram h;
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(1024);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u); // value 1
    EXPECT_EQ(h.bucket(1), 2u); // values 2 and 3
    EXPECT_EQ(h.bucket(10), 1u); // 1024

    // Percentiles are nearest-rank and report the power of two above
    // the bucket, never a bound below the samples it covers.
    LogHistogram one;
    one.add(5000);
    EXPECT_EQ(one.percentileBound(0.50), 8192u);
    EXPECT_EQ(one.percentileBound(0.95), 8192u);

    LogHistogram same;
    for (int i = 0; i < 100; ++i)
        same.add(3000);
    EXPECT_EQ(same.percentileBound(0.50), 4096u);
    EXPECT_EQ(same.percentileBound(0.95), 4096u);
}

TEST(SeriesTest, RecordsAndSummarizes)
{
    Series s("test");
    for (int i = 1; i <= 100; ++i)
        s.add(i, i * 2.0);
    EXPECT_EQ(s.size(), 100u);
    EXPECT_DOUBLE_EQ(s.minY(), 2.0);
    EXPECT_DOUBLE_EQ(s.maxY(), 200.0);
    EXPECT_DOUBLE_EQ(s.lastY(), 200.0);
    EXPECT_DOUBLE_EQ(s.tailMeanY(2), 199.0);
}

TEST(SeriesTest, ChartPrintsDownsampled)
{
    SeriesChart chart("title", "x", "y");
    Series &s = chart.addSeries("a");
    for (int i = 1; i <= 10000; ++i)
        s.add(i, static_cast<double>(i));
    std::ostringstream oss;
    chart.print(oss, 10, true);
    const std::string out = oss.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("series: a"), std::string::npos);
    // Downsampling: far fewer lines than points.
    EXPECT_LT(std::count(out.begin(), out.end(), '\n'), 30);
}

} // namespace
} // namespace lp
