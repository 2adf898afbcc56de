/**
 * @file
 * Tests for Rabbit-Order and its EDR-restricted variant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "graph/builder.h"
#include "graph/generators.h"
#include "reorder/rabbit_order.h"

namespace gral
{
namespace
{

/** k disjoint cliques of the given size, IDs interleaved so the
 *  initial ordering scatters every community. */
Graph
scatteredCliques(VertexId cliques, VertexId size)
{
    VertexId n = cliques * size;
    std::vector<Edge> edges;
    // Vertex v belongs to clique (v % cliques).
    for (VertexId a = 0; a < n; ++a)
        for (VertexId b = a + 1; b < n; ++b)
            if (a % cliques == b % cliques) {
                edges.push_back({a, b});
                edges.push_back({b, a});
            }
    BuildOptions options;
    options.removeZeroDegree = false;
    return buildGraph(n, edges, options);
}

TEST(RabbitOrder, ValidPermutationOnSmallGraphs)
{
    for (const Graph &graph :
         {makePath(20), makeStar(20), makeGrid(5, 5), makeCycle(9)}) {
        RabbitOrder ra;
        Permutation p = ra.reorder(graph);
        EXPECT_TRUE(p.isValid());
    }
}

TEST(RabbitOrder, EmptyGraph)
{
    Graph graph;
    RabbitOrder ra;
    EXPECT_EQ(ra.reorder(graph).size(), 0u);
}

TEST(RabbitOrder, CliquesBecomeContiguousBlocks)
{
    Graph graph = scatteredCliques(4, 8);
    RabbitOrder ra;
    Permutation p = ra.reorder(graph);
    ASSERT_TRUE(p.isValid());

    // All members of one clique must receive a contiguous ID range.
    for (VertexId c = 0; c < 4; ++c) {
        std::vector<VertexId> ids;
        for (VertexId v = 0; v < graph.numVertices(); ++v)
            if (v % 4 == c)
                ids.push_back(p.newId(v));
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(ids.back() - ids.front() + 1, ids.size())
            << "clique " << c << " not contiguous";
    }
}

TEST(RabbitOrder, DisjointCliquesYieldOneCommunityEach)
{
    Graph graph = scatteredCliques(5, 6);
    RabbitOrder ra;
    ra.reorder(graph);
    EXPECT_EQ(ra.numCommunities(), 5u);
}

TEST(RabbitOrder, Deterministic)
{
    SocialNetworkParams params;
    params.numVertices = 1500;
    params.edgesPerVertex = 6;
    Graph graph = generateSocialNetwork(params);
    RabbitOrder a;
    RabbitOrder b;
    EXPECT_EQ(a.reorder(graph), b.reorder(graph));
}

TEST(RabbitOrder, IsolatedVerticesBecomeSingletons)
{
    std::vector<Edge> edges = {{0, 1}, {1, 0}};
    BuildOptions options;
    options.removeZeroDegree = false;
    Graph graph = buildGraph(4, edges, options); // 2, 3 isolated
    RabbitOrder ra;
    Permutation p = ra.reorder(graph);
    EXPECT_TRUE(p.isValid());
    EXPECT_EQ(ra.numCommunities(), 3u); // {0,1}, {2}, {3}
}

TEST(RabbitOrder, MaxCommunitySizeRespected)
{
    Graph graph = scatteredCliques(2, 10);
    RabbitOrderConfig config;
    config.maxCommunitySize = 5;
    RabbitOrder ra(config);
    Permutation p = ra.reorder(graph);
    EXPECT_TRUE(p.isValid());
    // Communities are capped, so there must be more than 2 of them.
    EXPECT_GT(ra.numCommunities(), 2u);
}

TEST(RabbitOrderEdr, ExcludedVerticesKeepTailOrder)
{
    Graph graph = makeStar(40); // centre degree 39, leaves 1
    RabbitOrderConfig config;
    config.edrLow = 0;
    config.edrHigh = 10; // exclude the hub centre
    RabbitOrder ra(config);
    Permutation p = ra.reorder(graph);
    ASSERT_TRUE(p.isValid());
    EXPECT_EQ(ra.name(), "RabbitOrder-EDR");
    // The excluded centre is appended at the very end.
    EXPECT_EQ(p.newId(0), graph.numVertices() - 1);
}

TEST(RabbitOrderEdr, LowCutExcludesLeaves)
{
    Graph graph = makeStar(10);
    RabbitOrderConfig config;
    config.edrLow = 5; // leaves (degree 1) excluded
    RabbitOrder ra(config);
    Permutation p = ra.reorder(graph);
    ASSERT_TRUE(p.isValid());
    // Only the centre participates: it gets ID 0, leaves keep
    // relative order after it.
    EXPECT_EQ(p.newId(0), 0u);
    for (VertexId leaf = 1; leaf + 1 < 10; ++leaf)
        EXPECT_LT(p.newId(leaf), p.newId(leaf + 1));
}

TEST(RabbitOrderEdr, MatchesFullRunWhenRangeCoversAll)
{
    SocialNetworkParams params;
    params.numVertices = 800;
    params.edgesPerVertex = 5;
    Graph graph = generateSocialNetwork(params);

    RabbitOrder full;
    RabbitOrderConfig config;
    config.edrLow = 0;
    config.edrHigh = 1u << 30;
    RabbitOrder restricted(config);
    EXPECT_EQ(full.reorder(graph), restricted.reorder(graph));
}

TEST(RabbitOrder, StatsPopulated)
{
    Graph graph = makeGrid(8, 8);
    RabbitOrder ra;
    ra.reorder(graph);
    EXPECT_GT(ra.stats().peakFootprintBytes, 0u);
}

TEST(RabbitOrder, StarMergeIsNotQuadratic)
{
    // Every leaf merges into the centre, whose list starts with all
    // 50,000 leaves. Re-canonicalizing that list after each merge is
    // quadratic and takes seconds; amortized canonicalization takes
    // milliseconds.
    Graph graph = makeStar(50'001);
    RabbitOrder ra;
    auto start = std::chrono::steady_clock::now();
    Permutation p = ra.reorder(graph);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(p.isValid());
    EXPECT_EQ(ra.numCommunities(), 1u);
    EXPECT_LT(elapsed.count(), 1.0);
}

} // namespace
} // namespace gral
