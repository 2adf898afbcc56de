/**
 * @file
 * Tests for the streaming access pipeline: producers, sinks, and the
 * round-robin InterleavingScheduler.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "cachesim/access_stream.h"
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

std::vector<std::uint64_t>
addrsOf(const ThreadTrace &trace)
{
    std::vector<std::uint64_t> addrs;
    for (const MemoryAccess &access : trace)
        addrs.push_back(access.addr);
    return addrs;
}

/** Stream @p traces through a scheduler and collect the result. */
ThreadTrace
streamed(const std::vector<ThreadTrace> &traces,
         std::size_t chunk_size)
{
    return scheduledOrder(producersFromTraces(traces), chunk_size);
}

/** For every chunk size, the scheduler's order equals the plain
 *  round-robin reference order. */
void
expectMatchesMaterialize(const std::vector<ThreadTrace> &traces,
                         std::size_t chunk_size)
{
    EXPECT_EQ(addrsOf(streamed(traces, chunk_size)),
              addrsOf(referenceInterleave(traces, chunk_size)))
        << "chunk size " << chunk_size;
}

TEST(Scheduler, EmptyProducerSet)
{
    InterleavingScheduler scheduler({}, 4);
    ThreadTrace out;
    VectorSink sink(out);
    scheduler.drainTo(sink);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(scheduler.streamed(), 0u);
    EXPECT_EQ(scheduler.peakResidentAccesses(), 0u);
}

TEST(Scheduler, EmptyThreadsAmongNonEmpty)
{
    std::vector<ThreadTrace> traces(4);
    traces[1] = {at(0), at(1), at(2)};
    traces[3] = {at(100)};
    for (std::size_t chunk : {1u, 2u, 8u})
        expectMatchesMaterialize(traces, chunk);
}

TEST(Scheduler, ThreadShorterThanChunk)
{
    std::vector<ThreadTrace> traces(2);
    traces[0] = {at(0), at(1), at(2), at(3), at(4), at(5)};
    traces[1] = {at(100)}; // exhausted inside its first turn
    expectMatchesMaterialize(traces, 4);
    auto merged = streamed(traces, 4);
    ASSERT_EQ(merged.size(), 7u);
    // turn 1: thread 0 contributes 4, thread 1 contributes 1;
    // turn 2: only thread 0 is live.
    EXPECT_EQ(merged[4].addr, 100u);
    EXPECT_EQ(merged[5].addr, 4u);
}

TEST(Scheduler, ChunkSizeOne)
{
    std::vector<ThreadTrace> traces(3);
    traces[0] = {at(0), at(1)};
    traces[1] = {at(100), at(101), at(102)};
    traces[2] = {at(200)};
    expectMatchesMaterialize(traces, 1);
}

TEST(Scheduler, ChunkLargerThanEveryTrace)
{
    std::vector<ThreadTrace> traces(3);
    traces[0] = {at(0), at(1)};
    traces[1] = {at(100)};
    traces[2] = {at(200), at(201), at(202)};
    expectMatchesMaterialize(traces, 1000);
    // Each thread is drained whole in its single turn.
    EXPECT_EQ(addrsOf(streamed(traces, 1000)),
              (std::vector<std::uint64_t>{0, 1, 100, 200, 201, 202}));
}

TEST(Scheduler, ManyShapesMatchMaterialize)
{
    std::vector<ThreadTrace> traces(3);
    for (std::uint64_t i = 0; i < 17; ++i)
        traces[0].push_back(at(i));
    for (std::uint64_t i = 0; i < 5; ++i)
        traces[1].push_back(at(100 + i));
    for (std::uint64_t i = 0; i < 29; ++i)
        traces[2].push_back(at(200 + i));
    for (std::size_t chunk : {1u, 2u, 3u, 5u, 8u, 16u, 64u})
        expectMatchesMaterialize(traces, chunk);
}

TEST(Scheduler, ZeroChunkRejected)
{
    EXPECT_THROW(InterleavingScheduler({}, 0), std::invalid_argument);
}

TEST(Scheduler, SingleUse)
{
    std::vector<ThreadTrace> traces(1);
    traces[0] = {at(0)};
    InterleavingScheduler scheduler(producersFromTraces(traces), 4);
    scheduler.forEach([](const MemoryAccess &) {});
    EXPECT_THROW(scheduler.forEach([](const MemoryAccess &) {}),
                 std::logic_error);
}

TEST(Scheduler, PeakResidentBoundedByChunk)
{
    std::vector<ThreadTrace> traces(2);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        traces[0].push_back(at(i));
        traces[1].push_back(at(10000 + i));
    }
    InterleavingScheduler scheduler(producersFromTraces(traces), 16);
    scheduler.forEach([](const MemoryAccess &) {});
    EXPECT_EQ(scheduler.streamed(), 2000u);
    EXPECT_EQ(scheduler.peakResidentAccesses(), 16u);
    EXPECT_EQ(scheduler.peakResidentBytes(),
              16u * sizeof(MemoryAccess));
}

TEST(VectorAdapters, RoundTrip)
{
    ThreadTrace trace = {at(1), at(2), at(3), at(4), at(5)};
    VectorProducer producer(trace);
    ThreadTrace copy = drainProducer(producer);
    EXPECT_EQ(addrsOf(copy), addrsOf(trace));
    // Exhausted: further fills return 0.
    MemoryAccess spare[2];
    EXPECT_EQ(producer.fill(spare), 0u);
}

TEST(VectorAdapters, ShortFills)
{
    ThreadTrace trace = {at(1), at(2), at(3)};
    VectorProducer producer(trace);
    MemoryAccess two[2];
    EXPECT_EQ(producer.fill(two), 2u);
    EXPECT_EQ(two[0].addr, 1u);
    EXPECT_EQ(producer.fill(two), 1u);
    EXPECT_EQ(two[0].addr, 3u);
    EXPECT_EQ(producer.fill(two), 0u);
}

TEST(StreamedReplay, MatchesVectorReplay)
{
    // Replaying the producers straight through the scheduler and
    // replaying their drained logs hit the cache identically.
    std::vector<ThreadTrace> traces(3);
    for (std::uint64_t i = 0; i < 200; ++i) {
        traces[0].push_back(at((i % 40) * 64));
        traces[1].push_back(at(0x10000 + (i % 7) * 64));
        if (i % 2 == 0)
            traces[2].push_back(at(0x20000 + i * 64));
    }
    CacheConfig config;
    config.sizeBytes = 4096;
    config.associativity = 4;
    config.lineBytes = 64;
    config.policy = ReplacementPolicy::DRRIP;

    Cache reference_cache(config);
    for (const MemoryAccess &access : referenceInterleave(traces, 8))
        reference_cache.accessRange(access.addr, access.size,
                                    access.isWrite);

    Cache stream_cache(config);
    InterleavingScheduler scheduler(producersFromTraces(traces), 8);
    ReplayResult from_stream =
        replayStreamSimple(scheduler, stream_cache);

    EXPECT_EQ(from_stream.accessCount, accessCount(traces));
    EXPECT_EQ(from_stream.cache.hits, reference_cache.stats().hits);
    EXPECT_EQ(from_stream.cache.misses,
              reference_cache.stats().misses);
    EXPECT_LE(from_stream.peakResidentAccesses, 8u);
}

} // namespace
} // namespace gral
