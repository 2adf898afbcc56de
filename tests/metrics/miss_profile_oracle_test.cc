/**
 * @file
 * Field-by-field equality of simulateMissProfile and
 * effectiveCacheSize with a naive replay: the kernel's producers are
 * drained and interleaved by the plain round-robin reference, every
 * access goes through the per-set-vector reference cache and TLB, and
 * each vertex-data access is binned with logDegreeBin on the spot.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "kernels/kernel.h"
#include "metrics/distribution.h"
#include "metrics/ecs.h"
#include "metrics/miss_rate.h"
#include "tests/cachesim/reference_cache.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

constexpr ReplacementPolicy kPolicies[] = {
    ReplacementPolicy::LRU, ReplacementPolicy::SRRIP,
    ReplacementPolicy::BRRIP, ReplacementPolicy::DRRIP};

Graph
smallWebGraph()
{
    WebGraphParams params;
    params.numVertices = 3000;
    params.meanOutDegree = 8.0;
    params.seed = 11;
    return generateWebGraph(params);
}

TraceOptions
traceOptions()
{
    TraceOptions options;
    options.numThreads = 3;
    return options;
}

/** The merged stream, built without the InterleavingScheduler. */
std::vector<MemoryAccess>
naiveStream(Kernel &kernel, const Graph &graph, std::size_t chunk)
{
    std::vector<ThreadTrace> traces =
        drainAll(kernel.makeProducers(graph, traceOptions()));
    return referenceInterleave(traces, chunk);
}

SimulationOptions
simulationOptions(ReplacementPolicy policy)
{
    SimulationOptions options;
    options.cache.sizeBytes = 16 * 1024;
    options.cache.associativity = 4;
    options.cache.policy = policy;
    options.cache.duelingLeaderSets = 4;
    options.tlb.entries = 16;
    options.tlb.associativity = 4;
    options.tlb.pageBytes = 4096;
    options.chunkSize = 37;
    options.missThresholds = {0, 3, 10, 50};
    // Small enough that the bounded sample buffer decimates.
    options.pselSampleEvery = 7;
    options.hubDegreeThreshold = 12;
    return options;
}

/** simulateMissProfile written out access by access. */
MissProfileResult
naiveMissProfile(std::span<const MemoryAccess> stream,
                 std::span<const EdgeId> owner_degrees,
                 std::span<const EdgeId> accessed_degrees,
                 const SimulationOptions &options)
{
    ReferenceCache cache(options.cache);
    if (options.pselSampleEvery != 0 &&
        options.cache.policy == ReplacementPolicy::DRRIP)
        cache.enablePselSampling(options.pselSampleEvery, 2048);
    ReferenceTlb tlb(options.tlb);

    MissProfileResult result;
    result.missesAboveThreshold.assign(options.missThresholds.size(), 0);
    for (const MemoryAccess &access : stream) {
        bool hit = cache.accessRange(access.addr, access.size,
                                     access.isWrite);
        if (options.simulateTlb)
            tlb.access(access.addr);
        ++result.totalAccesses;
        if (access.dataVertex == kInvalidVertex)
            continue;
        bool miss = !hit;
        result.perDegree.add(owner_degrees[access.ownerVertex],
                             miss ? 1.0 : 0.0);
        ++result.dataAccesses;
        if (miss) {
            ++result.dataMisses;
            for (std::size_t t = 0; t < options.missThresholds.size();
                 ++t)
                if (accessed_degrees[access.dataVertex] >
                    options.missThresholds[t])
                    ++result.missesAboveThreshold[t];
        }
        if (access.phase == AccessPhase::None)
            continue;
        bool push = access.phase == AccessPhase::Push;
        PhaseMissCounters &phase =
            push ? result.pushPhase : result.pullPhase;
        std::span<const EdgeId> hub_view =
            push ? options.pushHubDegrees : options.pullHubDegrees;
        if (hub_view.empty())
            hub_view = accessed_degrees;
        ++phase.dataAccesses;
        phase.dataMisses += miss ? 1 : 0;
        if (options.hubDegreeThreshold != 0 &&
            access.dataVertex < hub_view.size() &&
            hub_view[access.dataVertex] > options.hubDegreeThreshold) {
            ++phase.hubAccesses;
            phase.hubMisses += miss ? 1 : 0;
        }
    }
    result.cache = cache.stats();
    if (options.simulateTlb)
        result.tlb = tlb.stats();
    for (std::size_t c = 0; c < kNumSetClasses; ++c)
        result.classStats[c] = cache.classStats(static_cast<SetClass>(c));
    result.pselSamples = cache.pselSamples();
    return result;
}

void
expectSameCounters(const CacheStats &actual, const CacheStats &expected)
{
    EXPECT_EQ(actual.hits, expected.hits);
    EXPECT_EQ(actual.misses, expected.misses);
    EXPECT_EQ(actual.evictions, expected.evictions);
    EXPECT_EQ(actual.writebacks, expected.writebacks);
}

void
expectSamePhase(const PhaseMissCounters &actual,
                const PhaseMissCounters &expected)
{
    EXPECT_EQ(actual.dataAccesses, expected.dataAccesses);
    EXPECT_EQ(actual.dataMisses, expected.dataMisses);
    EXPECT_EQ(actual.hubAccesses, expected.hubAccesses);
    EXPECT_EQ(actual.hubMisses, expected.hubMisses);
}

void
expectSameProfile(const MissProfileResult &actual,
                  const MissProfileResult &expected)
{
    std::vector<DegreeBinRow> rows = actual.perDegree.rows();
    std::vector<DegreeBinRow> expected_rows = expected.perDegree.rows();
    ASSERT_EQ(rows.size(), expected_rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].degreeLow, expected_rows[i].degreeLow);
        EXPECT_EQ(rows[i].count, expected_rows[i].count);
        EXPECT_EQ(rows[i].sum, expected_rows[i].sum);
    }
    EXPECT_EQ(actual.perDegree.overallMean(),
              expected.perDegree.overallMean());
    expectSameCounters(actual.cache, expected.cache);
    EXPECT_EQ(actual.tlb.hits, expected.tlb.hits);
    EXPECT_EQ(actual.tlb.misses, expected.tlb.misses);
    EXPECT_EQ(actual.dataAccesses, expected.dataAccesses);
    EXPECT_EQ(actual.dataMisses, expected.dataMisses);
    EXPECT_EQ(actual.missesAboveThreshold, expected.missesAboveThreshold);
    EXPECT_EQ(actual.totalAccesses, expected.totalAccesses);
    ASSERT_EQ(actual.pselSamples.size(), expected.pselSamples.size());
    for (std::size_t i = 0; i < actual.pselSamples.size(); ++i) {
        EXPECT_EQ(actual.pselSamples[i].access,
                  expected.pselSamples[i].access);
        EXPECT_EQ(actual.pselSamples[i].psel,
                  expected.pselSamples[i].psel);
    }
    expectSamePhase(actual.pushPhase, expected.pushPhase);
    expectSamePhase(actual.pullPhase, expected.pullPhase);
    for (std::size_t c = 0; c < kNumSetClasses; ++c)
        expectSameCounters(actual.classStats[c], expected.classStats[c]);
}

class MissProfileOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MissProfileOracle, EveryFieldMatchesNaiveReplay)
{
    Graph graph = smallWebGraph();
    KernelPtr kernel = makeKernel(GetParam());
    std::vector<EdgeId> in_degrees = degrees(graph, Direction::In);
    std::vector<EdgeId> out_degrees = degrees(graph, Direction::Out);

    for (ReplacementPolicy policy : kPolicies) {
        SCOPED_TRACE(toString(policy));
        SimulationOptions options = simulationOptions(policy);
        options.pushHubDegrees = in_degrees;
        options.pullHubDegrees = out_degrees;
        std::vector<MemoryAccess> stream =
            naiveStream(*kernel, graph, options.chunkSize);

        MissProfileResult actual = simulateMissProfile(
            kernel->makeProducers(graph, traceOptions()), in_degrees,
            out_degrees, options);
        MissProfileResult expected =
            naiveMissProfile(stream, in_degrees, out_degrees, options);
        expectSameProfile(actual, expected);
        EXPECT_LE(actual.peakResidentAccesses, options.chunkSize);
        if (policy == ReplacementPolicy::DRRIP) {
            // The buffer decimated, and the duel moved.
            EXPECT_GT(actual.pselSamples.size(), 1000u);
            EXPECT_GT(actual.classStats[0].misses, 0u);
            EXPECT_GT(actual.classStats[1].misses, 0u);
        }

        // Without per-phase views and without a TLB, the fallbacks to
        // the accessed-degree view and the empty TLB counters hold.
        SimulationOptions bare = simulationOptions(policy);
        bare.simulateTlb = false;
        bare.pselSampleEvery = 0;
        MissProfileResult bare_actual = simulateMissProfile(
            kernel->makeProducers(graph, traceOptions()), in_degrees,
            out_degrees, bare);
        expectSameProfile(bare_actual, naiveMissProfile(stream, in_degrees,
                                                        out_degrees, bare));
    }
}

TEST_P(MissProfileOracle, EcsMatchesNaiveScan)
{
    Graph graph = smallWebGraph();
    KernelPtr kernel = makeKernel(GetParam());
    const AddressMap map = traceOptions().map;

    for (ReplacementPolicy policy : kPolicies) {
        SCOPED_TRACE(toString(policy));
        EcsOptions options;
        options.cache = simulationOptions(policy).cache;
        options.chunkSize = 29;
        options.scanEvery = 997;

        EcsResult actual = effectiveCacheSize(
            kernel->makeProducers(graph, traceOptions()), map, options);

        ReferenceCache cache(options.cache);
        const double total_lines = static_cast<double>(
            options.cache.numSets() * options.cache.associativity);
        double ecs_sum = 0.0;
        double topology_sum = 0.0;
        std::uint64_t scans = 0;
        std::uint64_t replayed = 0;
        for (const MemoryAccess &access :
             naiveStream(*kernel, graph, options.chunkSize)) {
            cache.accessRange(access.addr, access.size, access.isWrite);
            if (++replayed % options.scanEvery != 0)
                continue;
            std::uint64_t data = 0;
            std::uint64_t topology = 0;
            for (std::uint64_t line : cache.validLines()) {
                AccessRegion region = map.regionOf(line);
                data += region == AccessRegion::DataOld ||
                        region == AccessRegion::DataNew;
                topology += region == AccessRegion::Offsets ||
                            region == AccessRegion::EdgesArr;
            }
            ecs_sum += 100.0 * static_cast<double>(data) / total_lines;
            topology_sum +=
                100.0 * static_cast<double>(topology) / total_lines;
            ++scans;
        }
        ASSERT_GT(scans, 0u);
        EXPECT_EQ(actual.scans, scans);
        EXPECT_EQ(actual.totalAccesses, replayed);
        EXPECT_EQ(actual.avgEcsPercent,
                  ecs_sum / static_cast<double>(scans));
        EXPECT_EQ(actual.avgTopologyPercent,
                  topology_sum / static_cast<double>(scans));
        expectSameCounters(actual.cache, cache.stats());
        EXPECT_LE(actual.peakResidentAccesses, options.chunkSize);
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, MissProfileOracle,
                         ::testing::Values("cc", "spmv"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace gral
