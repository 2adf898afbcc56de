/**
 * @file
 * Differential tests: Cache and Tlb against the per-set-vector
 * reference models of reference_cache.h, over seeded random
 * geometries, policies, traces and mid-trace control calls.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "cachesim/cache.h"
#include "cachesim/tlb.h"
#include "graph/rng.h"
#include "tests/cachesim/reference_cache.h"

namespace gral
{
namespace
{

std::string
describe(const CacheConfig &config)
{
    return std::string(toString(config.policy)) + " " +
           std::to_string(config.numSets()) + " sets x " +
           std::to_string(config.associativity) + " ways x " +
           std::to_string(config.lineBytes) + " B, rrpvBits " +
           std::to_string(config.rrpvBits) + ", epsilon " +
           std::to_string(config.brripEpsilon) + ", leaders " +
           std::to_string(config.duelingLeaderSets);
}

CacheConfig
randomConfig(SplitMix64 &rng)
{
    static constexpr ReplacementPolicy kPolicies[] = {
        ReplacementPolicy::LRU, ReplacementPolicy::SRRIP,
        ReplacementPolicy::BRRIP, ReplacementPolicy::DRRIP};
    static constexpr std::uint32_t kLineBytes[] = {1, 8, 64};
    static constexpr std::uint32_t kEpsilons[] = {1, 2, 32};

    CacheConfig config;
    std::uint64_t sets = 1ULL << rng.nextBounded(10); // 1..512
    config.associativity =
        static_cast<std::uint32_t>(1 + rng.nextBounded(16));
    config.lineBytes = kLineBytes[rng.nextBounded(3)];
    config.sizeBytes = sets * config.associativity * config.lineBytes;
    config.policy = kPolicies[rng.nextBounded(4)];
    config.rrpvBits = static_cast<std::uint32_t>(1 + rng.nextBounded(3));
    config.brripEpsilon = kEpsilons[rng.nextBounded(3)];
    // Few leaders give a leader every few sets; many give a region of
    // one set, where every set leads.
    const std::uint64_t leader_choices[] = {
        1, 2, std::max<std::uint64_t>(1, sets / 4), sets, 3 * sets};
    config.duelingLeaderSets =
        static_cast<std::uint32_t>(leader_choices[rng.nextBounded(5)]);
    return config;
}

/** Address generator over one of three trace shapes. */
class TraceShape
{
  public:
    TraceShape(const CacheConfig &config, SplitMix64 &rng)
        : rng_(rng), lineBytes_(config.lineBytes),
          sets_(config.numSets()), ways_(config.associativity),
          kind_(rng.nextBounded(3)),
          stride_(rng.nextBounded(2) ? config.lineBytes
                                     : config.lineBytes * sets_ + 1)
    {
    }

    std::uint64_t
    next()
    {
        std::uint64_t capacity_lines = sets_ * ways_;
        std::uint64_t line = 0;
        switch (kind_) {
          case 0: // uniform over a few times the capacity
            line = rng_.nextBounded(3 * capacity_lines + 2);
            break;
          case 1: // strided sweep, wrapping, with random restarts
            cursor_ += stride_;
            if (rng_.nextBounded(64) == 0)
                cursor_ = rng_.nextBounded(capacity_lines * lineBytes_);
            return cursor_ % (4 * capacity_lines * lineBytes_ + 1);
          default: // hot sets: lines that map to one or two sets
            line = rng_.nextBounded(2) +
                   sets_ * rng_.nextBounded(2 * ways_ + 1);
            break;
        }
        return line * lineBytes_ + rng_.nextBounded(lineBytes_);
    }

  private:
    SplitMix64 &rng_;
    std::uint64_t lineBytes_;
    std::uint64_t sets_;
    std::uint64_t ways_;
    std::uint64_t kind_;
    std::uint64_t stride_;
    std::uint64_t cursor_ = 0;
};

void
expectSameStats(const CacheStats &actual, const CacheStats &expected,
                const char *what)
{
    EXPECT_EQ(actual.hits, expected.hits) << what;
    EXPECT_EQ(actual.misses, expected.misses) << what;
    EXPECT_EQ(actual.evictions, expected.evictions) << what;
    EXPECT_EQ(actual.writebacks, expected.writebacks) << what;
}

void
expectSameState(const Cache &cache, const ReferenceCache &reference,
                std::span<const std::uint64_t> probes)
{
    expectSameStats(cache.stats(), reference.stats(), "stats");
    for (std::size_t c = 0; c < kNumSetClasses; ++c) {
        SetClass set_class = static_cast<SetClass>(c);
        expectSameStats(cache.classStats(set_class),
                        reference.classStats(set_class),
                        toString(set_class));
    }
    EXPECT_EQ(cache.pselValue(), reference.pselValue());
    ASSERT_EQ(cache.pselSamples().size(),
              reference.pselSamples().size());
    for (std::size_t i = 0; i < cache.pselSamples().size(); ++i) {
        EXPECT_EQ(cache.pselSamples()[i].access,
                  reference.pselSamples()[i].access);
        EXPECT_EQ(cache.pselSamples()[i].psel,
                  reference.pselSamples()[i].psel);
    }
    std::vector<std::uint64_t> lines;
    cache.forEachValidLine(
        [&](std::uint64_t line_addr) { lines.push_back(line_addr); });
    EXPECT_EQ(lines, reference.validLines());
    EXPECT_EQ(cache.numValidLines(), reference.validLines().size());
    for (std::uint64_t probe : probes)
        EXPECT_EQ(cache.contains(probe), reference.contains(probe))
            << "contains(" << probe << ")";
}

TEST(ReferenceCache, MatchesCacheOnRandomConfigurations)
{
    SplitMix64 rng(20240611);
    for (int round = 0; round < 400; ++round) {
        CacheConfig config = randomConfig(rng);
        SCOPED_TRACE("round " + std::to_string(round) + ": " +
                     describe(config));
        Cache cache(config);
        ReferenceCache reference(config);
        if (rng.nextBounded(2)) {
            std::uint64_t every = 1 + rng.nextBounded(9);
            std::size_t cap = 1 + rng.nextBounded(6);
            cache.enablePselSampling(every, cap);
            reference.enablePselSampling(every, cap);
        }

        TraceShape shape(config, rng);
        std::vector<std::uint64_t> probes;
        const int ops = 1500 + static_cast<int>(rng.nextBounded(1500));
        for (int op = 0; op < ops; ++op) {
            std::uint64_t addr = shape.next();
            bool is_write = rng.nextBounded(4) == 0;
            if (probes.size() < 64)
                probes.push_back(addr);
            switch (rng.nextBounded(400)) {
              case 0:
                cache.flush();
                reference.flush();
                break;
              case 1: {
                std::uint64_t every = rng.nextBounded(8);
                std::size_t cap = rng.nextBounded(6);
                cache.enablePselSampling(every, cap);
                reference.enablePselSampling(every, cap);
                break;
              }
              case 2:
                cache.resetStats();
                reference.resetStats();
                break;
              default:
                break;
            }
            bool hit;
            bool expected;
            if (rng.nextBounded(3) == 0) {
                std::uint32_t size =
                    static_cast<std::uint32_t>(rng.nextBounded(130));
                hit = cache.accessRange(addr, size, is_write);
                expected = reference.accessRange(addr, size, is_write);
            } else {
                hit = cache.access(addr, is_write);
                expected = reference.access(addr, is_write);
            }
            ASSERT_EQ(hit, expected) << "access " << op << " at " << addr;
            if (op % 500 == 0)
                expectSameState(cache, reference, probes);
        }
        expectSameState(cache, reference, probes);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(ReferenceCache, MatchesCacheOnFullWidthTags)
{
    // One set of one-byte lines: the tag is the whole 64-bit address.
    CacheConfig config;
    config.lineBytes = 1;
    config.associativity = 4;
    config.sizeBytes = 4;
    config.policy = ReplacementPolicy::SRRIP;
    Cache cache(config);
    ReferenceCache reference(config);
    const std::uint64_t addrs[] = {~0ULL, 0, ~0ULL, 1, ~0ULL - 1, 2, 3,
                                   ~0ULL, 7, 0};
    for (std::uint64_t addr : addrs)
        EXPECT_EQ(cache.access(addr, false), reference.access(addr, false))
            << addr;
    expectSameState(cache, reference, addrs);
}

TEST(ReferenceTlb, MatchesTlbOnRandomConfigurations)
{
    static constexpr std::uint64_t kPageBytes[] = {64, 4096,
                                                   2ULL << 20};
    SplitMix64 rng(77);
    for (int round = 0; round < 200; ++round) {
        TlbConfig config;
        std::uint32_t sets = 1u << rng.nextBounded(7);
        config.associativity =
            static_cast<std::uint32_t>(1 + rng.nextBounded(16));
        config.entries = sets * config.associativity;
        config.pageBytes = kPageBytes[rng.nextBounded(3)];
        SCOPED_TRACE("round " + std::to_string(round));
        Tlb tlb(config);
        ReferenceTlb reference(config);
        Tlb copy = tlb;
        std::uint64_t pages = config.entries * 3 + 1;
        std::uint64_t cursor = 0;
        for (int op = 0; op < 2000; ++op) {
            std::uint64_t page = 0;
            switch (rng.nextBounded(3)) {
              case 0:
                page = rng.nextBounded(pages);
                break;
              case 1:
                page = cursor++ % pages;
                break;
              default:
                page = rng.nextBounded(2) +
                       sets * rng.nextBounded(config.associativity + 2);
                break;
            }
            std::uint64_t addr =
                page * config.pageBytes + rng.nextBounded(config.pageBytes);
            switch (rng.nextBounded(300)) {
              case 0:
                tlb.flush();
                reference.flush();
                break;
              case 1:
                tlb.resetStats();
                reference.resetStats();
                break;
              case 2:
                // A copy carries the whole state, including whatever
                // the model caches about its last translation.
                copy = tlb;
                tlb = copy;
                break;
              default:
                break;
            }
            ASSERT_EQ(tlb.access(addr), reference.access(addr))
                << "access " << op;
        }
        EXPECT_EQ(tlb.stats().hits, reference.stats().hits);
        EXPECT_EQ(tlb.stats().misses, reference.stats().misses);
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace
} // namespace gral
