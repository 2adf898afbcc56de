/**
 * @file
 * Tests for SpMV: the pull and read-sum compute against a dense
 * matrix-vector oracle, and the shape of the instrumented producers'
 * streams.
 */

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "kernels/spmv_kernel.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

std::vector<double>
denseOracle(const Graph &graph, const std::vector<double> &src)
{
    // dst[v] = sum over edges (u -> v) of src[u].
    std::vector<double> dst(graph.numVertices(), 0.0);
    for (VertexId u = 0; u < graph.numVertices(); ++u)
        for (VertexId v : graph.outNeighbours(u))
            dst[v] += src[u];
    return dst;
}

TEST(Spmv, PullMatchesHandComputed)
{
    // 0 -> 1, 0 -> 2, 1 -> 2.
    std::vector<Edge> edges = {{0, 1}, {0, 2}, {1, 2}};
    Graph graph(3, edges);
    std::vector<double> src = {1.0, 2.0, 4.0};
    std::vector<double> dst(3, -1.0);
    spmvPull(graph, src, dst);
    EXPECT_DOUBLE_EQ(dst[0], 0.0);
    EXPECT_DOUBLE_EQ(dst[1], 1.0);
    EXPECT_DOUBLE_EQ(dst[2], 3.0);
}

TEST(Spmv, PullMatchesDenseOracle)
{
    Graph graph = generateErdosRenyi(200, 2000, 5);
    std::vector<double> src(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        src[v] = 1.0 / (1.0 + v);
    std::vector<double> dst(graph.numVertices());
    spmvPull(graph, src, dst);
    std::vector<double> oracle = denseOracle(graph, src);
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        EXPECT_NEAR(dst[v], oracle[v], 1e-9);
}

TEST(Spmv, ReadSumDirections)
{
    // In a symmetric graph CSC and CSR read-sums agree.
    Graph graph = makeGrid(6, 6);
    std::vector<double> src(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        src[v] = static_cast<double>(v);
    std::vector<double> in_sum(graph.numVertices());
    std::vector<double> out_sum(graph.numVertices());
    readSum(graph, Direction::In, src, in_sum);
    readSum(graph, Direction::Out, src, out_sum);
    EXPECT_EQ(in_sum, out_sum);
}

TEST(Spmv, ReadSumAsymmetric)
{
    std::vector<Edge> edges = {{0, 1}};
    Graph graph(2, edges);
    std::vector<double> src = {5.0, 7.0};
    std::vector<double> in_sum(2);
    std::vector<double> out_sum(2);
    readSum(graph, Direction::In, src, in_sum);  // in-nbrs: 1 <- 0
    readSum(graph, Direction::Out, src, out_sum); // out-nbrs: 0 -> 1
    EXPECT_DOUBLE_EQ(in_sum[1], 5.0);
    EXPECT_DOUBLE_EQ(in_sum[0], 0.0);
    EXPECT_DOUBLE_EQ(out_sum[0], 7.0);
    EXPECT_DOUBLE_EQ(out_sum[1], 0.0);
}

// ------------------------------------------------ instrumented stream

TEST(PullTrace, AccessCountFormula)
{
    Graph graph = generateErdosRenyi(200, 1500, 6);
    TraceOptions options;
    options.numThreads = 4;
    auto traces = drainAll(makePullProducers(graph, options));
    EXPECT_EQ(traces.size(), 4u);
    // Per vertex: 1 offsets load + 1 result store; per edge: 1 edges
    // load + 1 data load.
    std::size_t expected = 2ull * graph.numVertices() +
                           2ull * graph.numEdges();
    EXPECT_EQ(accessCount(traces), expected);
}

TEST(PullTrace, WithoutTopology)
{
    Graph graph = makeGrid(5, 5);
    TraceOptions options;
    options.numThreads = 1;
    options.traceOffsets = false;
    options.traceEdges = false;
    auto traces = drainAll(makePullProducers(graph, options));
    EXPECT_EQ(accessCount(traces),
              graph.numVertices() + graph.numEdges());
    for (const MemoryAccess &access : traces[0]) {
        EXPECT_TRUE(access.region == AccessRegion::DataOld ||
                    access.region == AccessRegion::DataNew);
    }
}

TEST(PullTrace, DataVertexTagsMatchNeighbours)
{
    std::vector<Edge> edges = {{0, 1}, {2, 1}};
    Graph graph(3, edges);
    TraceOptions options;
    options.numThreads = 1;
    options.traceOffsets = false;
    options.traceEdges = false;
    auto traces = drainAll(makePullProducers(graph, options));
    // Vertex 1's in-neighbours are {0, 2}: its two data loads must be
    // tagged with 0 and 2; each store is tagged with its own vertex.
    std::vector<VertexId> loads;
    std::vector<VertexId> stores;
    for (const MemoryAccess &access : traces[0]) {
        if (access.isWrite)
            stores.push_back(access.dataVertex);
        else
            loads.push_back(access.dataVertex);
    }
    EXPECT_EQ(loads, (std::vector<VertexId>{0, 2}));
    EXPECT_EQ(stores, (std::vector<VertexId>{0, 1, 2}));
}

TEST(PullTrace, LoadsAreReadsStoresAreWrites)
{
    Graph graph = makeStar(20);
    auto traces = drainAll(makePullProducers(graph, {}));
    for (const ThreadTrace &trace : traces) {
        for (const MemoryAccess &access : trace) {
            if (access.region == AccessRegion::DataNew)
                EXPECT_TRUE(access.isWrite);
            else
                EXPECT_FALSE(access.isWrite);
        }
    }
}

TEST(ReadSumTrace, DirectionSelectsAdjacency)
{
    std::vector<Edge> edges = {{0, 1}}; // out-deg(0)=1, in-deg(1)=1
    Graph graph(2, edges);
    TraceOptions options;
    options.numThreads = 1;
    options.traceOffsets = false;
    options.traceEdges = false;

    auto in_traces =
        drainAll(makeReadSumProducers(graph, Direction::In, options));
    auto out_traces =
        drainAll(makeReadSumProducers(graph, Direction::Out, options));

    // CSC traversal: vertex 1 loads data of 0.
    // CSR traversal: vertex 0 loads data of 1.
    auto first_load = [](const std::vector<ThreadTrace> &traces) {
        for (const MemoryAccess &access : traces[0])
            if (!access.isWrite)
                return access.dataVertex;
        return kInvalidVertex;
    };
    EXPECT_EQ(first_load(in_traces), 0u);
    EXPECT_EQ(first_load(out_traces), 1u);
}

TEST(Producers, ResumableAtAnyCutPoint)
{
    // Resumability must not depend on where the stream is cut, over
    // the CSC (pull) and the CSR (read-sum) alike.
    Graph graph = generateErdosRenyi(120, 700, 11);
    TraceOptions options;
    options.numThreads = 3;
    for (Direction direction : {Direction::In, Direction::Out}) {
        auto reference =
            drainAll(makeReadSumProducers(graph, direction, options));
        for (std::size_t step : {1u, 2u, 5u, 7u, 64u}) {
            auto producers =
                makeReadSumProducers(graph, direction, options);
            ASSERT_EQ(producers.size(), reference.size());
            for (std::size_t t = 0; t < producers.size(); ++t)
                EXPECT_EQ(drainProducer(*producers[t], step),
                          reference[t])
                    << "thread " << t << " step " << step;
        }
    }
}

TEST(Trace, SequentialAddressesAreMonotone)
{
    Graph graph = makePath(50);
    TraceOptions options;
    options.numThreads = 1;
    auto traces = drainAll(makePullProducers(graph, options));
    std::uint64_t last_offset = 0;
    std::uint64_t last_edge = 0;
    for (const MemoryAccess &access : traces[0]) {
        if (access.region == AccessRegion::Offsets) {
            EXPECT_GE(access.addr, last_offset);
            last_offset = access.addr;
        } else if (access.region == AccessRegion::EdgesArr) {
            EXPECT_GE(access.addr, last_edge);
            last_edge = access.addr;
        }
    }
}

} // namespace
} // namespace gral
