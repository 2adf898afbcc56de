/**
 * @file
 * Tests for effective cache size measurement (paper Table V).
 */

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "kernels/spmv_kernel.h"
#include "tests/support/trace_support.h"
#include "metrics/ecs.h"

namespace gral
{
namespace
{

EcsOptions
smallEcs()
{
    EcsOptions options;
    options.cache.sizeBytes = 64 * 1024;
    options.cache.associativity = 8;
    options.scanEvery = 1000;
    options.chunkSize = 64;
    return options;
}

TEST(Ecs, ScansHappen)
{
    Graph graph = generateErdosRenyi(1000, 10000, 4);
    TraceOptions trace_options;
    auto result = effectiveCacheSize(
        makePullProducers(graph, trace_options), trace_options.map,
        smallEcs());
    EXPECT_GT(result.scans, 0u);
    EXPECT_GE(result.avgEcsPercent, 0.0);
    EXPECT_LE(result.avgEcsPercent, 100.0);
}

TEST(Ecs, DataOnlyTraceGivesHighEcs)
{
    Graph graph = generateErdosRenyi(5000, 50000, 5);
    TraceOptions trace_options;
    trace_options.traceOffsets = false;
    trace_options.traceEdges = false;
    auto result = effectiveCacheSize(
        makePullProducers(graph, trace_options), trace_options.map,
        smallEcs());
    // Only vertex-data lines enter the cache (a few sets stay cold,
    // so the share is high but not exactly 100).
    EXPECT_GT(result.avgEcsPercent, 80.0);
    EXPECT_DOUBLE_EQ(result.avgTopologyPercent, 0.0);
}

TEST(Ecs, TopologySharePlusDataShareSane)
{
    Graph graph = generateErdosRenyi(3000, 40000, 6);
    TraceOptions trace_options;
    auto result = effectiveCacheSize(
        makePullProducers(graph, trace_options), trace_options.map,
        smallEcs());
    EXPECT_GT(result.avgTopologyPercent, 0.0);
    EXPECT_LE(result.avgEcsPercent + result.avgTopologyPercent,
              100.0 + 1e-9);
    // The topology stream is large, so the cache is shared.
    EXPECT_LT(result.avgEcsPercent, 100.0);
}

TEST(Ecs, NoScanWhenTraceShorterThanInterval)
{
    Graph graph = makeGrid(4, 4);
    TraceOptions trace_options;
    EcsOptions options = smallEcs();
    options.scanEvery = 1u << 30;
    auto result = effectiveCacheSize(
        makePullProducers(graph, trace_options), trace_options.map,
        options);
    EXPECT_EQ(result.scans, 0u);
    EXPECT_DOUBLE_EQ(result.avgEcsPercent, 0.0);
}

TEST(Ecs, CacheStatsAccumulated)
{
    Graph graph = makeGrid(20, 20);
    TraceOptions trace_options;
    auto result = effectiveCacheSize(
        makePullProducers(graph, trace_options), trace_options.map,
        smallEcs());
    EXPECT_GT(result.cache.accesses(), 0u);
}

TEST(Ecs, StreamingOverloadMatchesVectorOverload)
{
    Graph graph = generateErdosRenyi(1500, 20000, 7);
    TraceOptions trace_options;
    // Drained producers replayed as logs ≡ the producers streamed.
    auto traces = drainAll(makePullProducers(graph, trace_options));
    auto from_vectors = effectiveCacheSize(
        producersFromTraces(traces), trace_options.map, smallEcs());
    auto from_stream = effectiveCacheSize(
        makePullProducers(graph, trace_options), trace_options.map,
        smallEcs());
    EXPECT_EQ(from_stream.scans, from_vectors.scans);
    EXPECT_DOUBLE_EQ(from_stream.avgEcsPercent,
                     from_vectors.avgEcsPercent);
    EXPECT_DOUBLE_EQ(from_stream.avgTopologyPercent,
                     from_vectors.avgTopologyPercent);
    EXPECT_EQ(from_stream.cache.hits, from_vectors.cache.hits);
    EXPECT_EQ(from_stream.cache.misses, from_vectors.cache.misses);
    EXPECT_EQ(from_stream.totalAccesses, from_vectors.totalAccesses);
    EXPECT_LE(from_stream.peakResidentAccesses,
              smallEcs().chunkSize);
}

} // namespace
} // namespace gral
