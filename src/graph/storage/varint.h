/**
 * @file
 * Delta + varint code for adjacency neighbour lists, kept as a
 * locality metric.
 *
 * Encoding (per neighbour list): the first vertex ID as a plain
 * LEB128 varint, then each successive element as the zigzag-encoded
 * signed delta to its predecessor. Sorted lists (the CSR invariant)
 * yield small non-negative deltas — one byte per edge for
 * locality-friendly orderings — which is exactly why compressed
 * bytes/edge works as a locality metric ("Algebraic Vertex Ordering",
 * PAPERS.md): the better the RA clusters neighbour IDs, the smaller
 * the deltas. Zigzag keeps the code total: non-monotone lists (the
 * unsorted intermediates of builders and tests) encode too, just
 * with a sign bit spent.
 *
 * Nothing stores or reads this encoding: compressedBytesPerEdge
 * measures its length without building it. The decoder lives in the
 * test tree (tests/support/varint_decode.h), where it proves the code
 * lossless.
 */

#ifndef GRAL_GRAPH_STORAGE_VARINT_H
#define GRAL_GRAPH_STORAGE_VARINT_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "graph/view.h"

namespace gral
{

/** Append @p value LEB128-encoded to @p out. */
inline void
appendVarint(std::uint64_t value, std::vector<std::uint8_t> &out)
{
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

/** Bytes appendVarint spends on @p value: one per started 7 bits. */
inline std::size_t
varintBytes(std::uint64_t value)
{
    return (static_cast<std::size_t>(std::bit_width(value | 1)) + 6) / 7;
}

/** Map a signed delta onto an unsigned varint payload (zigzag). */
inline std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Append one neighbour list (first absolute, then zigzag deltas). */
inline void
encodeNeighbourList(std::span<const VertexId> neighbours,
                    std::vector<std::uint8_t> &out)
{
    if (neighbours.empty())
        return;
    appendVarint(neighbours[0], out);
    for (std::size_t i = 1; i < neighbours.size(); ++i) {
        auto delta = static_cast<std::int64_t>(neighbours[i]) -
                     static_cast<std::int64_t>(neighbours[i - 1]);
        appendVarint(zigzagEncode(delta), out);
    }
}

/** The concatenated encoding of every neighbour list of a direction. */
struct CompressedAdjacency
{
    std::vector<std::uint8_t> blob;
};

/** Compress every neighbour list of @p adjacency. */
CompressedAdjacency compressAdjacency(const AdjacencyView &adjacency);

/**
 * Compressed topology bytes per edge of @p graph: the encoded bytes
 * of both directions over 2|E|, bit-identical to
 * (compressAdjacency(out).blob.size() +
 *  compressAdjacency(in).blob.size()) / (2.0 * |E|).
 * 0 for an edgeless graph. One O(|E|) pass that sums varint lengths
 * and allocates nothing.
 */
double compressedBytesPerEdge(const GraphView &graph);

} // namespace gral

#endif // GRAL_GRAPH_STORAGE_VARINT_H
