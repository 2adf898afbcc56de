#include "graph/storage/varint.h"

#include <utility>

#include "graph/validate.h"

namespace gral
{

CompressedAdjacency
compressAdjacency(const AdjacencyView &adjacency)
{
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
compressedBytesPerEdge(const GraphView &graph)
{
    if (graph.numEdges() == 0)
        return 0.0;
    // One direction's encoding at a time: each is freed before the
    // next is built, so the pass holds at most one blob.
    std::size_t blob_bytes = compressAdjacency(graph.out()).blob.size();
    blob_bytes += compressAdjacency(graph.in()).blob.size();
    return static_cast<double>(blob_bytes) /
           (2.0 * static_cast<double>(graph.numEdges()));
}

Adjacency
decodeAdjacency(std::span<const EdgeId> offsets,
                std::span<const std::uint64_t> byte_index,
                std::span<const std::uint8_t> blob, const std::string &what)
{
    auto fail = [&](const std::string &detail) {
        throw ValidationError(what + ": " + detail);
    };
    auto str = [](std::uint64_t value) { return std::to_string(value); };
    if (offsets.empty())
        fail("offsets array is empty (need |V|+1 entries)");
    if (byte_index.size() != offsets.size())
        fail("byte index has " + str(byte_index.size()) +
             " entries for " + str(offsets.size()) + " offsets");
    if (offsets.front() != 0)
        fail("offsets[0] is " + str(offsets.front()) + ", expected 0");
    if (byte_index.front() != 0)
        fail("byte index starts at " + str(byte_index.front()) +
             ", expected 0");
    for (std::size_t v = 1; v < offsets.size(); ++v) {
        if (offsets[v] < offsets[v - 1])
            fail("offsets not monotone at vertex " + str(v - 1));
        if (byte_index[v] < byte_index[v - 1])
            fail("byte index not monotone at vertex " + str(v - 1));
        // Every encoded neighbour takes at least one byte, which also
        // bounds the edges array allocated below by the blob size.
        if (offsets[v] - offsets[v - 1] > byte_index[v] - byte_index[v - 1])
            fail("vertex " + str(v - 1) +
                 " has more neighbours than encoded bytes");
    }
    if (byte_index.back() != blob.size())
        fail("byte index ends at " + str(byte_index.back()) +
             " but the blob has " + str(blob.size()) + " bytes");

    std::vector<VertexId> edges(offsets.back());
    for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
        std::span<VertexId> list(edges.data() + offsets[v],
                                 offsets[v + 1] - offsets[v]);
        auto bytes = blob.subspan(byte_index[v],
                                  byte_index[v + 1] - byte_index[v]);
        if (!decodeNeighbourList(bytes, list))
            fail("corrupt compressed neighbour list at vertex " + str(v));
    }
    validateCsr(offsets, edges, what);
    return Adjacency(std::vector<EdgeId>(offsets.begin(), offsets.end()),
                     std::move(edges));
}

} // namespace gral
