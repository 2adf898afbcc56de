/**
 * @file
 * Tests for the iHTL flipped-block traversal (paper Section VIII-A).
 */

#include <gtest/gtest.h>

#include "graph/degree.h"
#include "graph/generators.h"
#include "kernels/ihtl.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

TEST(Ihtl, SpmvMatchesPullExactly)
{
    Graph graph = generateErdosRenyi(400, 4000, 7);
    IhtlConfig config;
    config.numHubs = 20;
    IhtlGraph ihtl(graph, config);

    std::vector<double> src(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        src[v] = static_cast<double>(v % 11) + 0.25;
    std::vector<double> expected(graph.numVertices());
    std::vector<double> actual(graph.numVertices(), -1.0);
    spmvPull(graph, src, expected);
    ihtl.spmv(src, actual);
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(expected[v], actual[v]) << "vertex " << v;
}

TEST(Ihtl, EdgePartitionIsComplete)
{
    WebGraphParams params;
    params.numVertices = 3000;
    Graph graph = generateWebGraph(params);
    IhtlConfig config;
    config.numHubs = 100;
    IhtlGraph ihtl(graph, config);
    EXPECT_EQ(ihtl.flippedEdges() + ihtl.sparseEdges(),
              graph.numEdges());
    EXPECT_EQ(ihtl.numHubs(), 100u);
}

TEST(Ihtl, HubsAreTopInDegree)
{
    Graph graph = makeStar(100);
    IhtlConfig config;
    config.numHubs = 1;
    IhtlGraph ihtl(graph, config);
    ASSERT_EQ(ihtl.hubs().size(), 1u);
    EXPECT_EQ(ihtl.hubs()[0], 0u); // the star centre
    EXPECT_TRUE(ihtl.isHub(0));
    EXPECT_FALSE(ihtl.isHub(1));
}

TEST(Ihtl, AutoHubCountFromCacheSize)
{
    Graph graph = generateErdosRenyi(5000, 40000, 3);
    IhtlConfig config;
    config.cacheBytes = 16 * 1024;
    config.cacheFraction = 0.5;
    IhtlGraph ihtl(graph, config);
    // 16 KB * 0.5 / 8 B = 1024 hub accumulators.
    EXPECT_EQ(ihtl.numHubs(), 1024u);
}

TEST(Ihtl, HubCountClampedToGraph)
{
    Graph graph = makePath(10);
    IhtlConfig config;
    config.numHubs = 1000;
    IhtlGraph ihtl(graph, config);
    EXPECT_EQ(ihtl.numHubs(), 10u);
}

TEST(Ihtl, TraceCoversEveryEdgeOnce)
{
    Graph graph = generateErdosRenyi(500, 5000, 5);
    IhtlConfig config;
    config.numHubs = 50;
    IhtlGraph ihtl(graph, config);
    TraceOptions options;
    options.numThreads = 4;
    options.traceEdges = false;
    options.traceOffsets = false;
    auto traces = drainAll(ihtl.makeTraceProducers(options));
    // Per edge exactly one data access (hub write or neighbour read),
    // plus per vertex one own-data load (push pass) and one non-hub
    // result store.
    std::size_t expected = graph.numEdges() + graph.numVertices() +
                           (graph.numVertices() - ihtl.numHubs());
    EXPECT_EQ(accessCount(traces), expected);
}

TEST(Ihtl, ReducesHubMissesOnWebGraph)
{
    // The paper's motivation: RAs cannot improve hub locality, iHTL
    // can. Compare simulated misses to hub data between plain pull
    // SpMV and the iHTL traversal.
    WebGraphParams params;
    params.numVertices = 30000;
    params.meanOutDegree = 16.0;
    Graph graph = generateWebGraph(params);

    SimulationOptions sim;
    sim.cache.sizeBytes = 64 * 1024;
    sim.cache.associativity = 8;
    sim.simulateTlb = false;
    sim.missThresholds = {
        static_cast<EdgeId>(hubThreshold(graph))};

    auto in_deg = degrees(graph, Direction::In);

    // Threshold by *in*-degree: misses when accessing in-hub data.
    auto pull = simulateMissProfile(makePullProducers(graph, {}),
                                    in_deg, in_deg, sim);

    IhtlConfig config;
    config.cacheBytes = sim.cache.sizeBytes;
    IhtlGraph ihtl(graph, config);
    auto flipped = simulateMissProfile(ihtl.makeTraceProducers({}),
                                       in_deg, in_deg, sim);

    EXPECT_LT(flipped.missesAboveThreshold[0],
              pull.missesAboveThreshold[0] / 2);
    // And the total data misses should not regress.
    EXPECT_LT(flipped.dataMisses, pull.dataMisses * 11 / 10);
}

} // namespace
} // namespace gral
