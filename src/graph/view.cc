#include "graph/view.h"

namespace gral
{

std::vector<Edge>
GraphView::edgeList() const
{
    std::vector<Edge> edges;
    edges.reserve(numEdges());
    for (VertexId v = 0; v < numVertices(); ++v)
        for (VertexId u : outNeighbours(v))
            edges.push_back({v, u});
    return edges;
}

Graph
materializeGraph(const GraphView &view)
{
    auto copyDirection = [](const AdjacencyView &adj) {
        return Adjacency(
            std::vector<EdgeId>(adj.offsets().begin(),
                                adj.offsets().end()),
            std::vector<VertexId>(adj.edges().begin(),
                                  adj.edges().end()));
    };
    return Graph(copyDirection(view.out()), copyDirection(view.in()));
}

} // namespace gral
