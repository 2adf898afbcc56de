/**
 * @file
 * Tests for the parallel SpMV and read-sum runners.
 */

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "kernels/parallel.h"
#include "kernels/spmv_kernel.h"

namespace gral
{
namespace
{

TEST(ParallelSpmv, MatchesSequential)
{
    Graph graph = generateErdosRenyi(2000, 20000, 33);
    std::vector<double> src(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        src[v] = static_cast<double>(v % 13);
    std::vector<double> sequential(graph.numVertices());
    std::vector<double> parallel(graph.numVertices(), -1.0);
    spmvPull(graph, src, sequential);

    ParallelOptions options;
    options.numThreads = 4;
    ParallelResult result =
        spmvPullParallel(graph, src, parallel, options);
    EXPECT_EQ(sequential, parallel);
    EXPECT_GE(result.wallMs, 0.0);
    EXPECT_GE(result.idlePercent, 0.0);
    EXPECT_LE(result.idlePercent, 100.0);
}

TEST(ParallelSpmv, ReadSumBothDirections)
{
    Graph graph = generateErdosRenyi(1000, 8000, 44);
    std::vector<double> src(graph.numVertices(), 1.0);
    std::vector<double> expected(graph.numVertices());
    std::vector<double> actual(graph.numVertices());

    for (Direction direction : {Direction::In, Direction::Out}) {
        readSum(graph, direction, src, expected);
        readSumParallel(graph, direction, src, actual);
        EXPECT_EQ(expected, actual);
    }
}

TEST(ParallelSpmv, SingleThreadDegenerate)
{
    Graph graph = makeGrid(8, 8);
    std::vector<double> src(graph.numVertices(), 3.0);
    std::vector<double> sequential(graph.numVertices());
    std::vector<double> parallel(graph.numVertices());
    spmvPull(graph, src, sequential);
    ParallelOptions options;
    options.numThreads = 1;
    options.partitionsPerThread = 1;
    spmvPullParallel(graph, src, parallel, options);
    EXPECT_EQ(sequential, parallel);
}

TEST(ParallelSpmv, ManyPartitions)
{
    Graph graph = makeStar(500);
    std::vector<double> src(graph.numVertices(), 1.0);
    std::vector<double> sequential(graph.numVertices());
    std::vector<double> parallel(graph.numVertices());
    spmvPull(graph, src, sequential);
    ParallelOptions options;
    options.numThreads = 3;
    options.partitionsPerThread = 32;
    spmvPullParallel(graph, src, parallel, options);
    EXPECT_EQ(sequential, parallel);
}

} // namespace
} // namespace gral
