/**
 * @file
 * Tests for round-robin trace interleaving and replay: hand-written
 * per-thread logs streamed through the InterleavingScheduler.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "cachesim/interleave.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

MemoryAccess
at(std::uint64_t addr)
{
    MemoryAccess access;
    access.addr = addr;
    return access;
}

TEST(Interleaver, RoundRobinChunks)
{
    std::vector<ThreadTrace> traces(2);
    traces[0] = {at(0), at(1), at(2), at(3)};
    traces[1] = {at(100), at(101), at(102), at(103)};
    auto merged = scheduledOrder(producersFromTraces(traces), 2);
    ASSERT_EQ(merged.size(), 8u);
    std::vector<std::uint64_t> addrs;
    for (const MemoryAccess &access : merged)
        addrs.push_back(access.addr);
    EXPECT_EQ(addrs, (std::vector<std::uint64_t>{0, 1, 100, 101, 2, 3,
                                                 102, 103}));
}

TEST(Interleaver, UnevenTraceLengths)
{
    std::vector<ThreadTrace> traces(3);
    traces[0] = {at(0), at(1), at(2), at(3), at(4)};
    traces[1] = {at(100)};
    traces[2] = {};
    auto merged = scheduledOrder(producersFromTraces(traces), 2);
    ASSERT_EQ(merged.size(), 6u);
    EXPECT_EQ(merged[0].addr, 0u);
    EXPECT_EQ(merged[1].addr, 1u);
    EXPECT_EQ(merged[2].addr, 100u);
    EXPECT_EQ(merged[3].addr, 2u);
    EXPECT_EQ(merged[4].addr, 3u);
    EXPECT_EQ(merged[5].addr, 4u);
}

TEST(Interleaver, ChunkLargerThanTraces)
{
    std::vector<ThreadTrace> traces(2);
    traces[0] = {at(0), at(1)};
    traces[1] = {at(100)};
    auto merged = scheduledOrder(producersFromTraces(traces), 1000);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].addr, 0u);
    EXPECT_EQ(merged[2].addr, 100u);
}

TEST(Interleaver, ZeroChunkRejected)
{
    std::vector<ThreadTrace> traces(1);
    EXPECT_THROW(InterleavingScheduler(producersFromTraces(traces), 0),
                 std::invalid_argument);
}

TEST(Interleaver, EmptyTraces)
{
    std::vector<ThreadTrace> traces;
    EXPECT_TRUE(scheduledOrder(producersFromTraces(traces), 4).empty());
}

TEST(Replay, CountsAllAccesses)
{
    std::vector<ThreadTrace> traces(2);
    for (std::uint64_t i = 0; i < 10; ++i) {
        traces[0].push_back(at(i * 64));
        traces[1].push_back(at((100 + i) * 64));
    }
    CacheConfig config;
    config.sizeBytes = 4096;
    config.associativity = 4;
    config.lineBytes = 64;
    config.policy = ReplacementPolicy::LRU;
    Cache cache(config);
    InterleavingScheduler scheduler(producersFromTraces(traces), 4);
    ReplayResult result = replayStreamSimple(scheduler, cache);
    EXPECT_EQ(result.accessCount, 20u);
    EXPECT_EQ(result.cache.accesses(), 20u);
    EXPECT_EQ(result.cache.misses, 20u); // all distinct lines
}

TEST(Replay, TlbOptional)
{
    std::vector<ThreadTrace> traces(1);
    traces[0] = {at(0x0), at(0x1000), at(0x0)};
    CacheConfig config;
    config.sizeBytes = 4096;
    config.associativity = 4;
    config.lineBytes = 64;
    Cache cache(config);
    Tlb tlb(stlb4kConfig());
    InterleavingScheduler scheduler(producersFromTraces(traces), 8);
    ReplayResult result = replayStreamSimple(scheduler, cache, &tlb);
    EXPECT_EQ(result.tlb.accesses(), 3u);
    EXPECT_EQ(result.tlb.misses, 2u);
}

TEST(Replay, ScanHookFires)
{
    std::vector<ThreadTrace> traces(1);
    for (std::uint64_t i = 0; i < 100; ++i)
        traces[0].push_back(at(i * 64));
    CacheConfig config;
    config.sizeBytes = 65536;
    config.associativity = 4;
    config.lineBytes = 64;
    Cache cache(config);
    std::uint64_t scans = 0;
    InterleavingScheduler scheduler(producersFromTraces(traces), 8);
    replayStream(
        scheduler, cache, nullptr,
        [](const MemoryAccess &, const AccessOutcome &) {}, 25,
        [&](const Cache &) { ++scans; });
    EXPECT_EQ(scans, 4u);
}

TEST(Replay, AccessHookSeesOutcomes)
{
    std::vector<ThreadTrace> traces(1);
    traces[0] = {at(0x0), at(0x0)};
    CacheConfig config;
    config.sizeBytes = 4096;
    config.associativity = 4;
    config.lineBytes = 64;
    Cache cache(config);
    std::vector<bool> hits;
    InterleavingScheduler scheduler(producersFromTraces(traces), 8);
    replayStream(
        scheduler, cache, nullptr,
        [&](const MemoryAccess &, const AccessOutcome &outcome) {
            hits.push_back(outcome.cacheHit);
        },
        0, [](const Cache &) {});
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_FALSE(hits[0]);
    EXPECT_TRUE(hits[1]);
}

} // namespace
} // namespace gral
