/**
 * @file
 * Tests for the direction-optimizing BFS the BFS kernel runs.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/builder.h"
#include "graph/generators.h"
#include "kernels/bfs_kernel.h"

namespace gral
{
namespace
{

TEST(Bfs, PathDistances)
{
    Graph graph = makePath(6);
    BfsResult result = bfs(graph, 0);
    for (VertexId v = 0; v < 6; ++v)
        EXPECT_EQ(result.distance[v], v);
    EXPECT_EQ(result.reached, 6u);
    EXPECT_EQ(result.parent[0], kInvalidVertex);
    EXPECT_EQ(result.parent[3], 2u);
}

TEST(Bfs, UnreachableVertices)
{
    std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
    BuildOptions options;
    options.removeZeroDegree = false;
    Graph graph = buildGraph(4, edges, options);
    BfsResult result = bfs(graph, 0);
    EXPECT_EQ(result.reached, 2u);
    EXPECT_EQ(result.distance[2], kUnreached);
    EXPECT_EQ(result.distance[3], kUnreached);
}

TEST(Bfs, OutOfRangeSourceThrows)
{
    Graph graph = makePath(3);
    EXPECT_THROW((void)bfs(graph, 5), std::invalid_argument);
}

TEST(Bfs, DirectedEdgesRespected)
{
    std::vector<Edge> edges = {{0, 1}, {2, 1}};
    Graph graph(3, edges);
    BfsResult result = bfs(graph, 0);
    EXPECT_EQ(result.distance[1], 1u);
    EXPECT_EQ(result.distance[2], kUnreached); // 2 -> 1, not 1 -> 2
}

TEST(Bfs, DenseRoundsOnExpanderGraph)
{
    // A social-network graph reaches almost everything by hop 2-3;
    // direction optimization must kick into dense (pull) rounds —
    // the paper's "dense phases" claim for frontier analytics.
    SocialNetworkParams params;
    params.numVertices = 5000;
    params.edgesPerVertex = 8;
    Graph graph = generateSocialNetwork(params);
    BfsResult result = bfs(graph, 0);
    EXPECT_GT(result.reached, graph.numVertices() * 9 / 10);
    EXPECT_GT(result.denseRounds, 0u);
    EXPECT_GT(result.denseEdges, result.sparseEdges);
}

TEST(Bfs, ParentsFormValidTree)
{
    Graph graph = makeGrid(7, 7);
    BfsResult result = bfs(graph, 24); // centre
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        if (v == 24 || result.distance[v] == kUnreached)
            continue;
        VertexId parent = result.parent[v];
        ASSERT_NE(parent, kInvalidVertex);
        EXPECT_EQ(result.distance[v], result.distance[parent] + 1);
    }
}

} // namespace
} // namespace gral
