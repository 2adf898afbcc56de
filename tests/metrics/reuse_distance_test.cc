/**
 * @file
 * Tests for the exact reuse-distance analyzer.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "tests/support/reuse_distance.h"

namespace gral
{
namespace
{

TEST(ReuseDistance, RejectsBadLineSize)
{
    EXPECT_THROW(ReuseDistanceAnalyzer{48}, std::invalid_argument);
    EXPECT_THROW(ReuseDistanceAnalyzer{0}, std::invalid_argument);
}

TEST(ReuseDistance, ColdAccessesCounted)
{
    ReuseDistanceAnalyzer analyzer(64);
    analyzer.access(0x0);
    analyzer.access(0x40);
    analyzer.access(0x80);
    EXPECT_EQ(analyzer.coldAccesses(), 3u);
    EXPECT_EQ(analyzer.totalAccesses(), 3u);
}

TEST(ReuseDistance, ImmediateReuseIsDistanceZero)
{
    ReuseDistanceAnalyzer analyzer(64);
    analyzer.access(0x0);
    analyzer.access(0x0);
    ASSERT_FALSE(analyzer.histogram().empty());
    EXPECT_EQ(analyzer.histogram()[0], 1u); // bucket 0: distances 0-1
}

TEST(ReuseDistance, SameLineIsSameAddress)
{
    ReuseDistanceAnalyzer analyzer(64);
    analyzer.access(0x10);
    analyzer.access(0x38); // same 64 B line
    EXPECT_EQ(analyzer.coldAccesses(), 1u);
}

TEST(ReuseDistance, KnownStackDistances)
{
    // Sequence A B C A: the reuse of A skips {B, C} -> distance 2
    // -> bucket 1 ([2,4)).
    ReuseDistanceAnalyzer analyzer(64);
    analyzer.access(0x000);
    analyzer.access(0x040);
    analyzer.access(0x080);
    analyzer.access(0x000);
    const auto &histogram = analyzer.histogram();
    ASSERT_GE(histogram.size(), 2u);
    EXPECT_EQ(histogram[1], 1u);
}

TEST(ReuseDistance, RepeatedReuseNotDoubleCounted)
{
    // A B A B A: A's reuses have distance 1 (bucket 0), B's too.
    ReuseDistanceAnalyzer analyzer(64);
    for (int i = 0; i < 5; ++i)
        analyzer.access(i % 2 == 0 ? 0x0 : 0x40);
    EXPECT_EQ(analyzer.coldAccesses(), 2u);
    EXPECT_EQ(analyzer.histogram()[0], 3u);
}

TEST(ReuseDistance, HitRateAtCapacity)
{
    // Cyclic walk over 4 lines: every reuse has stack distance 3.
    ReuseDistanceAnalyzer analyzer(64);
    for (int pass = 0; pass < 10; ++pass)
        for (std::uint64_t line = 0; line < 4; ++line)
            analyzer.access(line * 64);
    // 36 reuses at distance 3 (bucket 1: [2,4)).
    EXPECT_EQ(analyzer.histogram()[1], 36u);
    // A 4-line LRU cache holds them all; 2 lines would not.
    EXPECT_GT(analyzer.hitRateAtCapacity(4), 0.85);
    EXPECT_DOUBLE_EQ(analyzer.hitRateAtCapacity(2), 0.0);
}

TEST(ReuseDistance, LargeTraceGrowsTree)
{
    ReuseDistanceAnalyzer analyzer(64);
    // 20k accesses force several Fenwick rebuilds.
    for (std::uint64_t i = 0; i < 10000; ++i)
        analyzer.access(i * 64);
    for (std::uint64_t i = 0; i < 10000; ++i)
        analyzer.access(i * 64);
    EXPECT_EQ(analyzer.coldAccesses(), 10000u);
    // Every reuse skipped exactly 9999 other lines -> bucket 13
    // ([8192, 16384)).
    ASSERT_GE(analyzer.histogram().size(), 14u);
    EXPECT_EQ(analyzer.histogram()[13], 10000u);
}

} // namespace
} // namespace gral
