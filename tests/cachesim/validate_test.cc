/**
 * @file
 * Tests for the cachesim-side validator (cachesim/validate.h) and the
 * test-side order check (tests/support/trace_support.h): broken cache
 * geometry and misordered access streams must each be rejected.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cachesim/access_stream.h"
#include "cachesim/validate.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

// ------------------------------------------------------- cache config

TEST(ValidateCacheConfig, AcceptsThePaperConfigs)
{
    EXPECT_NO_THROW(validateCacheConfig(paperL3Config()));
    EXPECT_NO_THROW(validateCacheConfig(paperL2Config()));
    EXPECT_NO_THROW(validateCacheConfig(paperL1Config()));
}

TEST(ValidateCacheConfig, RejectsNonPowerOfTwoLine)
{
    CacheConfig config;
    config.lineBytes = 48;
    EXPECT_THROW(validateCacheConfig(config), ValidationError);
}

TEST(ValidateCacheConfig, RejectsZeroWays)
{
    CacheConfig config;
    config.associativity = 0;
    EXPECT_THROW(validateCacheConfig(config), ValidationError);
}

TEST(ValidateCacheConfig, RejectsNonPowerOfTwoSetCount)
{
    CacheConfig config;
    config.sizeBytes = 3 * 1024; // 3 KB / 1-way / 64 B = 48 sets
    config.associativity = 1;
    EXPECT_THROW(validateCacheConfig(config), ValidationError);
}

TEST(ValidateCacheConfig, RejectsRrpvWidthOutOfRange)
{
    CacheConfig config;
    config.sizeBytes = 64 * 1024;
    config.associativity = 4;
    config.rrpvBits = 0;
    EXPECT_THROW(validateCacheConfig(config), ValidationError);
    config.rrpvBits = 9;
    EXPECT_THROW(validateCacheConfig(config), ValidationError);
}

TEST(ValidateCacheConfig, RejectsZeroBrripEpsilonUnderRrip)
{
    CacheConfig config;
    config.sizeBytes = 64 * 1024;
    config.associativity = 4;
    config.brripEpsilon = 0;
    EXPECT_THROW(validateCacheConfig(config), ValidationError);
    // ...but LRU never draws from the epsilon counter.
    config.policy = ReplacementPolicy::LRU;
    EXPECT_NO_THROW(validateCacheConfig(config));
}

// ------------------------------------------------------- order check

MemoryAccess
accessAt(std::uint64_t addr, VertexId owner = kInvalidVertex)
{
    MemoryAccess access;
    access.addr = addr;
    access.ownerVertex = owner;
    return access;
}

TEST(OrderCheckSink, AcceptsTheReferenceOrder)
{
    std::vector<MemoryAccess> reference{accessAt(0), accessAt(64),
                                        accessAt(128)};
    std::vector<MemoryAccess> collected;
    VectorSink inner(collected);
    OrderCheckSink checker(inner, reference);
    for (const MemoryAccess &access : reference)
        checker.consume(access);
    EXPECT_NO_THROW(checker.finish());
    EXPECT_EQ(collected.size(), reference.size());
}

TEST(OrderCheckSink, RejectsMisorderedStream)
{
    std::vector<MemoryAccess> reference{accessAt(0), accessAt(64)};
    std::vector<MemoryAccess> collected;
    VectorSink inner(collected);
    OrderCheckSink checker(inner, reference);
    checker.consume(reference[0]);
    EXPECT_THROW(checker.consume(accessAt(999)), ValidationError);
    // The bad access must not have leaked downstream.
    EXPECT_EQ(collected.size(), 1u);
}

TEST(OrderCheckSink, RejectsSurplusAccesses)
{
    std::vector<MemoryAccess> reference{accessAt(0)};
    std::vector<MemoryAccess> collected;
    VectorSink inner(collected);
    OrderCheckSink checker(inner, reference);
    checker.consume(reference[0]);
    EXPECT_THROW(checker.consume(accessAt(0)), ValidationError);
}

TEST(OrderCheckSink, RejectsTruncatedStream)
{
    std::vector<MemoryAccess> reference{accessAt(0), accessAt(64)};
    std::vector<MemoryAccess> collected;
    VectorSink inner(collected);
    OrderCheckSink checker(inner, reference);
    checker.consume(reference[0]);
    EXPECT_THROW(checker.finish(), ValidationError);
}

/** End-to-end wiring: the streaming scheduler's interleaving must
 *  reproduce the plain round-robin reference order bit-for-bit when
 *  replayed through an OrderCheckSink. */
TEST(OrderCheckSink, SchedulerInterleavingMatchesReference)
{
    std::vector<ThreadTrace> traces(3);
    for (std::size_t t = 0; t < traces.size(); ++t)
        for (std::size_t i = 0; i < 10 + t * 3; ++i)
            traces[t].push_back(
                accessAt(t * 10000 + i * 64,
                         static_cast<VertexId>(i)));

    std::vector<MemoryAccess> reference =
        referenceInterleave(traces, 4);
    std::vector<MemoryAccess> replayed;
    VectorSink inner(replayed);
    OrderCheckSink checker(inner, reference);
    InterleavingScheduler scheduler(producersFromTraces(traces), 4);
    EXPECT_NO_THROW(scheduler.drainTo(checker));
    EXPECT_NO_THROW(checker.finish());
    EXPECT_EQ(replayed.size(), reference.size());
}

} // namespace
} // namespace gral
