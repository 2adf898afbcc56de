#include "graph/storage/varint.h"

namespace gral
{

namespace
{

/** Bytes encodeNeighbourList appends for every list of @p adjacency. */
std::uint64_t
encodedBytes(const AdjacencyView &adjacency)
{
    std::uint64_t bytes = 0;
    for (VertexId v = 0; v < adjacency.numVertices(); ++v) {
        std::span<const VertexId> list = adjacency.neighbours(v);
        if (list.empty())
            continue;
        bytes += varintBytes(list[0]);
        for (std::size_t i = 1; i < list.size(); ++i) {
            auto delta = static_cast<std::int64_t>(list[i]) -
                         static_cast<std::int64_t>(list[i - 1]);
            bytes += varintBytes(zigzagEncode(delta));
        }
    }
    return bytes;
}

} // namespace

CompressedAdjacency
compressAdjacency(const AdjacencyView &adjacency)
{
    CompressedAdjacency result;
    // Sorted lists encode to ~1-2 bytes/edge; reserve for the common
    // case to avoid repeated regrowth over 100M+ edges.
    result.blob.reserve(adjacency.numEdges() * 2);
    for (VertexId v = 0; v < adjacency.numVertices(); ++v)
        encodeNeighbourList(adjacency.neighbours(v), result.blob);
    return result;
}

double
compressedBytesPerEdge(const GraphView &graph)
{
    if (graph.numEdges() == 0)
        return 0.0;
    std::uint64_t bytes =
        encodedBytes(graph.out()) + encodedBytes(graph.in());
    return static_cast<double>(bytes) /
           (2.0 * static_cast<double>(graph.numEdges()));
}

} // namespace gral
