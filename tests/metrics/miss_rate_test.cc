/**
 * @file
 * Tests for the simulated miss-rate degree distribution (Figure 1)
 * and threshold miss counting (Table III).
 */

#include <gtest/gtest.h>

#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "kernels/spmv_kernel.h"
#include "tests/support/trace_support.h"
#include "metrics/miss_rate.h"

namespace gral
{
namespace
{

SimulationOptions
smallSim()
{
    SimulationOptions options;
    options.cache.sizeBytes = 64 * 1024; // 64 KB keeps tests honest
    options.cache.associativity = 8;
    options.chunkSize = 64;
    return options;
}

TEST(MissProfile, CountsOnlyDataAccesses)
{
    Graph graph = generateErdosRenyi(500, 4000, 3);
    auto reuse = degrees(graph, Direction::Out);
    auto result = simulateMissProfile(makePullProducers(graph, {}),
                                      reuse, smallSim());
    // Data accesses = |E| loads + |V| stores.
    EXPECT_EQ(result.dataAccesses,
              graph.numEdges() + graph.numVertices());
    // Aggregate cache counters include topology accesses too.
    EXPECT_GT(result.cache.accesses(), result.dataAccesses);
    EXPECT_LE(result.dataMisses, result.dataAccesses);
    EXPECT_GT(result.perDegree.totalCount(), 0u);
}

TEST(MissProfile, TinyGraphFitsInCacheAfterColdMisses)
{
    Graph graph = makeGrid(8, 8); // 64 vertices: data fits anywhere
    auto reuse = degrees(graph, Direction::Out);
    SimulationOptions options = smallSim();
    auto result = simulateMissProfile(makePullProducers(graph, {}),
                                      reuse, options);
    // Vertex data spans 8 lines; every miss beyond compulsory would
    // signal a simulator bug.
    EXPECT_LE(result.dataMisses, 8u + graph.numVertices() / 8 + 2);
}

TEST(MissProfile, RandomOrderWorseThanIdentityOnClusteredGraph)
{
    // A grid in row-major order has excellent neighbour locality;
    // shuffling IDs must raise the simulated miss rate (the premise
    // of the whole paper).
    Graph graph = makeGrid(150, 150);
    auto reuse = degrees(graph, Direction::Out);
    auto base = simulateMissProfile(makePullProducers(graph, {}),
                                    reuse, smallSim());

    Graph shuffled = applyPermutation(
        graph, randomPermutation(graph.numVertices(), 99));
    auto shuffled_reuse = degrees(shuffled, Direction::Out);
    auto worse =
        simulateMissProfile(makePullProducers(shuffled, {}),
                            shuffled_reuse, smallSim());

    EXPECT_GT(worse.dataMissRate(), 2.0 * base.dataMissRate());
}

TEST(MissProfile, ThresholdCountsAreMonotone)
{
    SocialNetworkParams params;
    params.numVertices = 3000;
    params.edgesPerVertex = 8;
    Graph graph = generateSocialNetwork(params);
    auto reuse = degrees(graph, Direction::Out);
    SimulationOptions options = smallSim();
    options.missThresholds = {0, 20, 100, 2000};
    auto result = simulateMissProfile(makePullProducers(graph, {}),
                                      reuse, options);
    ASSERT_EQ(result.missesAboveThreshold.size(), 4u);
    // Higher thresholds can only reduce the count.
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_LE(result.missesAboveThreshold[i],
                  result.missesAboveThreshold[i - 1]);
    // Threshold 0 counts every data miss of vertices with degree > 0.
    EXPECT_LE(result.missesAboveThreshold[0], result.dataMisses);
}

TEST(MissProfile, PerDegreeMeansAreRates)
{
    Graph graph = generateErdosRenyi(2000, 20000, 8);
    auto reuse = degrees(graph, Direction::Out);
    auto result = simulateMissProfile(makePullProducers(graph, {}),
                                      reuse, smallSim());
    for (const DegreeBinRow &row : result.perDegree.rows()) {
        EXPECT_GE(row.mean(), 0.0);
        EXPECT_LE(row.mean(), 1.0);
    }
}

TEST(MissProfile, StreamingOverloadMatchesVectorOverload)
{
    SocialNetworkParams params;
    params.numVertices = 2000;
    params.edgesPerVertex = 6;
    Graph graph = generateSocialNetwork(params);
    auto in_deg = degrees(graph, Direction::In);
    auto out_deg = degrees(graph, Direction::Out);
    SimulationOptions options = smallSim();
    options.missThresholds = {0, 10, 100};

    // Drained producers replayed as logs ≡ the producers streamed.
    auto traces = drainAll(makePullProducers(graph, {}));
    auto from_vectors = simulateMissProfile(
        producersFromTraces(traces), in_deg, out_deg, options);
    auto from_stream = simulateMissProfile(
        makePullProducers(graph, {}), in_deg, out_deg, options);

    EXPECT_EQ(from_stream.cache.hits, from_vectors.cache.hits);
    EXPECT_EQ(from_stream.cache.misses, from_vectors.cache.misses);
    EXPECT_EQ(from_stream.tlb.hits, from_vectors.tlb.hits);
    EXPECT_EQ(from_stream.tlb.misses, from_vectors.tlb.misses);
    EXPECT_EQ(from_stream.dataMisses, from_vectors.dataMisses);
    EXPECT_EQ(from_stream.dataAccesses, from_vectors.dataAccesses);
    EXPECT_EQ(from_stream.missesAboveThreshold,
              from_vectors.missesAboveThreshold);
    EXPECT_EQ(from_stream.totalAccesses, from_vectors.totalAccesses);
}

TEST(MissProfile, StreamingPeakMemoryBoundedByChunk)
{
    Graph graph = generateErdosRenyi(2000, 30000, 5);
    auto reuse = degrees(graph, Direction::Out);
    SimulationOptions options = smallSim();
    auto result = simulateMissProfile(makePullProducers(graph, {}),
                                      reuse, options);
    EXPECT_GT(result.totalAccesses, 10u * options.chunkSize);
    EXPECT_LE(result.peakResidentAccesses, options.chunkSize);
}

// --------------------------------------------- per-phase counters

/** A vertex-data access with an explicit direction tag. */
MemoryAccess
taggedAccess(std::uint64_t addr, VertexId vertex, AccessPhase phase)
{
    MemoryAccess access;
    access.addr = addr;
    access.dataVertex = vertex;
    access.ownerVertex = vertex;
    access.region = AccessRegion::DataOld;
    access.phase = phase;
    return access;
}

TEST(MissProfile, PhaseCountersSplitByTagAndDegreeView)
{
    // v0 is a hub under the push view only, v1 under the pull view
    // only (threshold 3, strictly exceeded).
    std::vector<EdgeId> push_deg = {9, 1};
    std::vector<EdgeId> pull_deg = {1, 9};
    std::vector<EdgeId> plain_deg = {1, 1};

    std::vector<ThreadTrace> traces(1);
    traces[0] = {
        taggedAccess(0, 0, AccessPhase::Push),
        taggedAccess(64, 1, AccessPhase::Push),
        taggedAccess(128, 0, AccessPhase::Pull),
        taggedAccess(192, 1, AccessPhase::Pull),
        taggedAccess(256, 0, AccessPhase::None),
    };

    SimulationOptions options = smallSim();
    options.simulateTlb = false;
    options.hubDegreeThreshold = 3;
    options.pushHubDegrees = push_deg;
    options.pullHubDegrees = pull_deg;
    auto result = simulateMissProfile(producersFromTraces(traces),
                                      plain_deg, plain_deg, options);

    // Untagged accesses count toward the aggregate but to neither
    // phase.
    EXPECT_EQ(result.dataAccesses, 5u);
    EXPECT_EQ(result.pushPhase.dataAccesses, 2u);
    EXPECT_EQ(result.pullPhase.dataAccesses, 2u);

    // Hub classification follows the per-phase degree view.
    EXPECT_EQ(result.pushPhase.hubAccesses, 1u); // v0: push_deg 9
    EXPECT_EQ(result.pullPhase.hubAccesses, 1u); // v1: pull_deg 9

    // Distinct cache lines: every access is a compulsory miss, so
    // the phase miss counters are exact.
    EXPECT_EQ(result.pushPhase.dataMisses, 2u);
    EXPECT_EQ(result.pullPhase.dataMisses, 2u);
    EXPECT_EQ(result.pushPhase.hubMisses, 1u);
    EXPECT_EQ(result.pullPhase.hubMisses, 1u);
    EXPECT_DOUBLE_EQ(result.pushPhase.missRate(), 1.0);
    EXPECT_DOUBLE_EQ(result.pushPhase.hubMissRate(), 1.0);

    // Empty phase views fall back to accessed_degrees: under
    // plain_deg (all 1) nothing is a hub, but phase totals remain.
    SimulationOptions fallback = smallSim();
    fallback.simulateTlb = false;
    fallback.hubDegreeThreshold = 3;
    auto no_hubs = simulateMissProfile(producersFromTraces(traces),
                                       plain_deg, plain_deg, fallback);
    EXPECT_EQ(no_hubs.pushPhase.dataAccesses, 2u);
    EXPECT_EQ(no_hubs.pushPhase.hubAccesses, 0u);
    EXPECT_EQ(no_hubs.pullPhase.hubAccesses, 0u);

    // Threshold 0 disables hub accounting entirely.
    SimulationOptions disabled = smallSim();
    disabled.simulateTlb = false;
    disabled.pushHubDegrees = push_deg;
    disabled.pullHubDegrees = pull_deg;
    auto off = simulateMissProfile(producersFromTraces(traces),
                                   plain_deg, plain_deg, disabled);
    EXPECT_EQ(off.pushPhase.dataAccesses, 2u);
    EXPECT_EQ(off.pushPhase.hubAccesses, 0u);
    EXPECT_EQ(off.pullPhase.hubAccesses, 0u);
}

TEST(MissProfile, TlbCanBeDisabled)
{
    Graph graph = makeGrid(10, 10);
    auto reuse = degrees(graph, Direction::Out);
    SimulationOptions options = smallSim();
    options.simulateTlb = false;
    auto result = simulateMissProfile(makePullProducers(graph, {}),
                                      reuse, options);
    EXPECT_EQ(result.tlb.accesses(), 0u);
    options.simulateTlb = true;
    auto with_tlb = simulateMissProfile(makePullProducers(graph, {}),
                                        reuse, options);
    EXPECT_GT(with_tlb.tlb.accesses(), 0u);
}

} // namespace
} // namespace gral
