/**
 * @file
 * Unit tests for the edge table (paper Sections 4.1 and 6.2): closed
 * hashing, maxStaleUse maintenance, bytesUsed charging, selection with
 * reset, saturation behavior, and concurrent updates.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gc/edge_table.h"

namespace lp {
namespace {

TEST(EdgeTableTest, StartsEmpty)
{
    EdgeTable table(64);
    EXPECT_EQ(table.count(), 0u);
    EXPECT_EQ(table.capacity(), 64u);
    EXPECT_FALSE(table.selectMaxBytesAndReset().has_value());
}

TEST(EdgeTableTest, RecordUseIgnoresBarelyStale)
{
    EdgeTable table(64);
    // Stale counter 1 means "stale only since the last collection";
    // the paper's barrier only records values >= 2.
    table.recordUse({1, 2}, 0);
    table.recordUse({1, 2}, 1);
    EXPECT_EQ(table.count(), 0u);
    EXPECT_EQ(table.maxStaleUse({1, 2}), 0u);
    table.recordUse({1, 2}, 2);
    EXPECT_EQ(table.count(), 1u);
    EXPECT_EQ(table.maxStaleUse({1, 2}), 2u);
}

TEST(EdgeTableTest, MaxStaleUseIsAllTimeMaximum)
{
    EdgeTable table(64);
    table.recordUse({1, 2}, 3);
    table.recordUse({1, 2}, 5);
    table.recordUse({1, 2}, 2);
    EXPECT_EQ(table.maxStaleUse({1, 2}), 5u);
}

TEST(EdgeTableTest, DistinctEdgeTypesAreIndependent)
{
    EdgeTable table(64);
    table.recordUse({1, 2}, 3);
    table.recordUse({2, 1}, 4);
    table.recordUse({1, 3}, 2);
    EXPECT_EQ(table.count(), 3u);
    EXPECT_EQ(table.maxStaleUse({1, 2}), 3u);
    EXPECT_EQ(table.maxStaleUse({2, 1}), 4u);
    EXPECT_EQ(table.maxStaleUse({1, 3}), 2u);
    EXPECT_EQ(table.maxStaleUse({3, 1}), 0u);
}

TEST(EdgeTableTest, SelectionPicksGreatestBytesAndResets)
{
    EdgeTable table(64);
    table.chargeBytes({1, 2}, 100);
    table.chargeBytes({3, 4}, 500);
    table.chargeBytes({3, 4}, 100);
    table.chargeBytes({5, 6}, 50);

    auto sel = table.selectMaxBytesAndReset();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->type, (EdgeType{3, 4}));
    EXPECT_EQ(sel->bytesUsed, 600u);

    // All bytesUsed values reset after selection (paper Section 4.2).
    EXPECT_FALSE(table.selectMaxBytesAndReset().has_value());
    table.forEach([](const EdgeEntrySnapshot &e) {
        EXPECT_EQ(e.bytesUsed, 0u);
    });
    // Entries themselves survive (the table never shrinks).
    EXPECT_EQ(table.count(), 3u);
}

TEST(EdgeTableTest, SelectionCarriesMaxStaleUse)
{
    EdgeTable table(64);
    table.recordUse({7, 8}, 4);
    table.chargeBytes({7, 8}, 1000);
    auto sel = table.selectMaxBytesAndReset();
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->maxStaleUse, 4u);
}

TEST(EdgeTableTest, FullTableStopsAcceptingNewTypesButKeepsOld)
{
    EdgeTable table(8);
    for (std::uint32_t i = 0; i < 8; ++i)
        table.chargeBytes({i, i}, 10);
    EXPECT_EQ(table.count(), 8u);
    // A ninth type is dropped silently (safe: it just can't be pruned).
    table.chargeBytes({99, 99}, 1u << 30);
    EXPECT_EQ(table.count(), 8u);
    auto sel = table.selectMaxBytesAndReset();
    ASSERT_TRUE(sel.has_value());
    EXPECT_NE(sel->type, (EdgeType{99, 99}));
}

TEST(EdgeTableTest, CollidingKeysProbeLinearly)
{
    // A tiny table forces probing; all entries must stay retrievable.
    EdgeTable table(16);
    for (std::uint32_t i = 0; i < 12; ++i)
        table.recordUse({i, 1000 + i}, 2 + (i % 4));
    for (std::uint32_t i = 0; i < 12; ++i)
        EXPECT_EQ(table.maxStaleUse({i, 1000 + i}), 2 + (i % 4)) << i;
}

TEST(EdgeTableTest, ConcurrentInsertsAndUpdates)
{
    EdgeTable table(1024);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (std::uint32_t i = 0; i < 200; ++i) {
                table.recordUse({i % 50, i % 40}, 2 + (i + t) % 5);
                table.chargeBytes({i % 50, i % 40}, 8);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Exactly the distinct key set must exist, no duplicates.
    std::size_t seen = 0;
    std::uint64_t bytes = 0;
    table.forEach([&](const EdgeEntrySnapshot &e) {
        ++seen;
        bytes += e.bytesUsed;
    });
    EXPECT_EQ(seen, table.count());
    EXPECT_EQ(bytes, 4u * 200u * 8u) << "charges must not be lost";
    std::size_t distinct = 0;
    for (std::uint32_t i = 0; i < 50; ++i)
        for (std::uint32_t j = 0; j < 40; ++j)
            if ((i % 50) == i && (j % 40) == j &&
                table.maxStaleUse({i, j}) > 0)
                ++distinct;
    EXPECT_EQ(table.count(), 200u); // lcm(50,40)=200 distinct pairs
    (void)distinct;
}

TEST(EdgeTableTest, FourWordsPerSlotAsInThePaper)
{
    // Section 6.2: "Each slot has four words ... for a total of 256K"
    // with 16K slots. Keep the footprint contract.
    EdgeTable table(16 * 1024);
    EXPECT_EQ(table.capacity(), 16u * 1024u);
}

} // namespace
} // namespace lp
