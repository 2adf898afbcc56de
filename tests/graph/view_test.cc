/**
 * @file
 * Tests for the storage-agnostic AdjacencyView/GraphView layer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/view.h"

namespace gral
{
namespace
{

TEST(AdjacencyView, DefaultIsEmpty)
{
    AdjacencyView view;
    EXPECT_EQ(view.numVertices(), 0u);
    EXPECT_EQ(view.numEdges(), 0u);
    EXPECT_TRUE(view.offsets().empty());
    EXPECT_TRUE(view.edges().empty());
}

TEST(AdjacencyView, MirrorsAdjacency)
{
    Graph graph = makeGrid(3, 4);
    AdjacencyView view = graph.out(); // implicit conversion
    ASSERT_EQ(view.numVertices(), graph.numVertices());
    ASSERT_EQ(view.numEdges(), graph.numEdges());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        EXPECT_EQ(view.degree(v), graph.outDegree(v));
        EXPECT_EQ(view.beginEdge(v), graph.out().offsets()[v]);
        EXPECT_EQ(view.endEdge(v), graph.out().offsets()[v + 1]);
        // Zero-copy: the span aliases the Adjacency's storage.
        EXPECT_EQ(view.neighbours(v).data(),
                  graph.out().neighbours(v).data());
    }
}

TEST(AdjacencyView, HasNeighbourBinarySearch)
{
    Graph graph = makeCycle(10);
    AdjacencyView view = graph.out();
    for (VertexId v = 0; v < 10; ++v) {
        EXPECT_TRUE(view.hasNeighbour(v, (v + 1) % 10));
        EXPECT_FALSE(view.hasNeighbour(v, (v + 5) % 10));
    }
}

TEST(AdjacencyView, RawSpanConstructor)
{
    std::vector<EdgeId> offsets = {0, 2, 3, 3};
    std::vector<VertexId> edges = {1, 2, 0};
    AdjacencyView view{std::span<const EdgeId>(offsets),
                       std::span<const VertexId>(edges)};
    EXPECT_EQ(view.numVertices(), 3u);
    EXPECT_EQ(view.numEdges(), 3u);
    EXPECT_EQ(view.degree(0), 2u);
    EXPECT_EQ(view.degree(2), 0u);
}

TEST(GraphView, MirrorsGraph)
{
    Graph graph = generateErdosRenyi(100, 600, 2);
    GraphView view = graph;
    EXPECT_EQ(view.numVertices(), graph.numVertices());
    EXPECT_EQ(view.numEdges(), graph.numEdges());
    EXPECT_DOUBLE_EQ(view.averageDegree(), graph.averageDegree());
    EXPECT_EQ(view.footprintBytes(), graph.footprintBytes());
    EXPECT_EQ(view.edgeList(), graph.edgeList());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        EXPECT_EQ(view.outDegree(v), graph.outDegree(v));
        EXPECT_EQ(view.inDegree(v), graph.inDegree(v));
    }
}

TEST(GraphView, KeyIdentifiesStorageNotViewObject)
{
    Graph a = makeCycle(8);
    Graph b = makeCycle(8);
    GraphView view_a1 = a;
    GraphView view_a2 = a; // distinct view object, same storage
    GraphView view_b = b;  // equal topology, different storage
    EXPECT_EQ(view_a1.key(), view_a2.key());
    EXPECT_FALSE(view_a1.key() == view_b.key());
}

TEST(GraphView, KeyChangesWhenStorageMoves)
{
    Graph a = makeCycle(8);
    GraphViewKey before = GraphView(a).key();
    Graph b = std::move(a);
    // The heap buffers moved wholesale, so the key follows them.
    EXPECT_EQ(GraphView(b).key(), before);
}

TEST(GraphView, MaterializeDeepCopies)
{
    Graph graph = generateErdosRenyi(80, 400, 31);
    GraphView view = graph;
    Graph copy = materializeGraph(view);
    EXPECT_EQ(copy, graph);
    // Deep copy: distinct storage.
    EXPECT_FALSE(GraphView(copy).key() == view.key());
}

TEST(GraphView, EmptyViewIsSafe)
{
    GraphView view;
    EXPECT_EQ(view.numVertices(), 0u);
    EXPECT_EQ(view.numEdges(), 0u);
    EXPECT_DOUBLE_EQ(view.averageDegree(), 0.0);
    EXPECT_TRUE(view.edgeList().empty());
}

} // namespace
} // namespace gral
