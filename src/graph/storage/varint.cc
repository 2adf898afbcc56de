#include "graph/storage/varint.h"

#include <string>

#include "common/check.h"
#include "graph/validate.h"

namespace gral
{

CompressedAdjacency
compressAdjacency(const AdjacencyView &adjacency)
{
    GRAL_CHECK(!adjacency.isCompressed())
        << "compressAdjacency: input is already compressed";
    CompressedAdjacency result;
    result.byteIndex.reserve(adjacency.numVertices() + 1);
    result.byteIndex.push_back(0);
    // Sorted lists encode to ~1-2 bytes/edge; reserve for the common
    // case to avoid repeated regrowth over 100M+ edges.
    result.blob.reserve(adjacency.numEdges() * 2);
    for (VertexId v = 0; v < adjacency.numVertices(); ++v) {
        encodeNeighbourList(adjacency.neighbours(v), result.blob);
        result.byteIndex.push_back(result.blob.size());
    }
    return result;
}

double
compressedBytesPerEdge(const CompressedAdjacency &compressed,
                       EdgeId num_edges)
{
    if (num_edges == 0)
        return 0.0;
    return static_cast<double>(compressed.blob.size()) /
           static_cast<double>(num_edges);
}

namespace
{

Adjacency
decodeDirection(const AdjacencyView &adjacency, const char *direction)
{
    std::vector<EdgeId> offsets(adjacency.offsets().begin(),
                                adjacency.offsets().end());
    if (!adjacency.isCompressed())
        return Adjacency(std::move(offsets),
                         std::vector<VertexId>(adjacency.edges().begin(),
                                               adjacency.edges().end()));
    std::vector<VertexId> edges(adjacency.numEdges());
    auto index = adjacency.compressedIndex();
    auto blob = adjacency.compressedBlob();
    for (VertexId v = 0; v < adjacency.numVertices(); ++v) {
        std::span<VertexId> list(edges.data() + offsets[v],
                                 offsets[v + 1] - offsets[v]);
        if (!decodeNeighbourList(
                blob.subspan(index[v], index[v + 1] - index[v]), list))
            throw ValidationError(
                std::string(direction) +
                ": corrupt compressed neighbour list at vertex " +
                std::to_string(v));
    }
    return Adjacency(std::move(offsets), std::move(edges));
}

} // namespace

Graph
decodeGraph(const GraphView &view)
{
    return Graph(decodeDirection(view.out(), "out-adjacency"),
                 decodeDirection(view.in(), "in-adjacency"));
}

} // namespace gral
