/**
 * @file
 * Tests for the PageRank solver the PageRank kernel runs.
 */

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "kernels/pagerank_kernel.h"

namespace gral
{
namespace
{

TEST(PageRank, EmptyGraph)
{
    Graph graph;
    PageRankResult result = pageRank(graph);
    EXPECT_TRUE(result.scores.empty());
}

TEST(PageRank, ScoresFormDistribution)
{
    Graph graph = generateErdosRenyi(500, 4000, 9);
    PageRankResult result = pageRank(graph);
    double sum = 0.0;
    for (double score : result.scores) {
        EXPECT_GT(score, 0.0);
        sum += score;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRank, Converges)
{
    Graph graph = makeGrid(10, 10);
    PageRankOptions options;
    options.tolerance = 1e-10;
    PageRankResult result = pageRank(graph, options);
    EXPECT_LT(result.iterations, options.maxIterations);
    EXPECT_LT(result.lastDelta, options.tolerance);
}

TEST(PageRank, SymmetricRegularGraphIsUniform)
{
    // On a cycle (2-regular, symmetric) every vertex has the same
    // score.
    Graph graph = makeCycle(20);
    PageRankResult result = pageRank(graph);
    for (double score : result.scores)
        EXPECT_NEAR(score, 1.0 / 20.0, 1e-9);
}

TEST(PageRank, HubOutranksLeaves)
{
    Graph graph = makeStar(50);
    PageRankResult result = pageRank(graph);
    for (VertexId leaf = 1; leaf < 50; ++leaf)
        EXPECT_GT(result.scores[0], result.scores[leaf]);
}

TEST(PageRank, DanglingMassRedistributed)
{
    // 0 -> 1, 1 dangles: scores must still sum to 1.
    std::vector<Edge> edges = {{0, 1}};
    BuildOptions options;
    options.removeZeroDegree = false;
    Graph graph = buildGraph(2, edges, options);
    PageRankResult result = pageRank(graph);
    EXPECT_NEAR(result.scores[0] + result.scores[1], 1.0, 1e-9);
    EXPECT_GT(result.scores[1], result.scores[0]);
}

TEST(PageRank, InvariantUnderRelabeling)
{
    // PageRank is a graph property: relabeling must permute the
    // scores, not change them.
    Graph graph = generateErdosRenyi(300, 2500, 17);
    Permutation p = randomPermutation(graph.numVertices(), 5);
    Graph relabeled = applyPermutation(graph, p);

    PageRankOptions options;
    options.tolerance = 1e-13;
    auto base = pageRank(graph, options);
    auto moved = pageRank(relabeled, options);
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        EXPECT_NEAR(base.scores[v], moved.scores[p.newId(v)], 1e-8);
}

} // namespace
} // namespace gral
