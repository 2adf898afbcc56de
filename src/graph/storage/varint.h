/**
 * @file
 * Delta + varint codec for adjacency neighbour lists.
 *
 * Encoding (per neighbour list): the first vertex ID as a plain
 * LEB128 varint, then each successive element as the zigzag-encoded
 * signed delta to its predecessor. Sorted lists (the CSR invariant)
 * yield small non-negative deltas — one byte per edge for
 * locality-friendly orderings — which is exactly why compressed
 * bytes/edge works as a locality metric ("Algebraic Vertex Ordering",
 * PAPERS.md): the better the RA clusters neighbour IDs, the smaller
 * the deltas. Zigzag keeps the codec total: non-monotone lists (the
 * unsorted intermediates of builders and tests) round-trip too, just
 * with a sign bit spent.
 *
 * Compression is a storage encoding only. MappedGraph::open decodes
 * a compressed `.gralb` direction whole (decodeAdjacency), checking
 * it as untrusted input, before anything traverses it; every kernel,
 * reorderer and trace producer walks raw neighbour spans.
 */

#ifndef GRAL_GRAPH_STORAGE_VARINT_H
#define GRAL_GRAPH_STORAGE_VARINT_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "graph/view.h"

namespace gral
{

/** Maximum encoded size of one 64-bit varint. */
inline constexpr std::size_t kMaxVarintBytes = 10;

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

/**
 * Decode one LEB128 varint from [@p p, @p end).
 * @return bytes consumed, or 0 when the buffer is truncated or the
 *         encoding exceeds 64 bits (malformed input).
 */
inline std::size_t
decodeVarint(const std::uint8_t *p, const std::uint8_t *end,
             std::uint64_t &value)
{
    std::uint64_t result = 0;
    unsigned shift = 0;
    for (const std::uint8_t *q = p; q != end && shift < 64; ++q) {
        result |= static_cast<std::uint64_t>(*q & 0x7F) << shift;
        if ((*q & 0x80) == 0) {
            value = result;
            return static_cast<std::size_t>(q - p) + 1;
        }
        shift += 7;
    }
    return 0;
}

/** Map a signed delta onto an unsigned varint payload (zigzag). */
inline std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
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

/**
 * Decode exactly @p out.size() vertex IDs from @p bytes into @p out,
 * consuming the whole buffer.
 *
 * @return false on truncated input, varint overflow, leftover bytes,
 *         or a decoded ID outside [0, 2^32-1) — i.e. any buffer that
 *         encodeNeighbourList could not have produced for this count.
 */
inline bool
decodeNeighbourList(std::span<const std::uint8_t> bytes,
                    std::span<VertexId> out)
{
    const std::uint8_t *p = bytes.data();
    const std::uint8_t *end = p + bytes.size();
    std::int64_t previous = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::uint64_t raw = 0;
        std::size_t used = decodeVarint(p, end, raw);
        if (used == 0)
            return false;
        p += used;
        std::int64_t value =
            i == 0 ? static_cast<std::int64_t>(raw)
                   : previous + zigzagDecode(raw);
        if (value < 0 || value >= static_cast<std::int64_t>(
                                      kInvalidVertex))
            return false;
        out[i] = static_cast<VertexId>(value);
        previous = value;
    }
    return p == end;
}

/**
 * Owning result of compressing one adjacency direction: a per-vertex
 * byte index (|V|+1 entries; list v occupies blob bytes
 * [byteIndex[v], byteIndex[v+1])) plus the concatenated blob.
 */
struct CompressedAdjacency
{
    std::vector<std::uint64_t> byteIndex;
    std::vector<std::uint8_t> blob;
};

/** Compress every neighbour list of @p adjacency. */
CompressedAdjacency compressAdjacency(const AdjacencyView &adjacency);

/**
 * Compressed topology bytes per edge of @p graph: the blob bytes of
 * both directions over 2|E| (the byte index is excluded: it plays the
 * role the offsets array plays uncompressed). 0 for an edgeless
 * graph. One O(|E|) encoding pass; the same figure writeGralbFile
 * reports for a compressed `.gralb`.
 */
double compressedBytesPerEdge(const GraphView &graph);

/**
 * Decode one compressed direction into an owning Adjacency, treating
 * every input as untrusted. Checks, before allocating anything, that
 * @p offsets runs monotone from 0, that @p byte_index has one entry
 * per offsets entry and runs monotone from 0 to the blob size, and
 * that each vertex has at least one encoded byte per neighbour (so
 * the decoded edges array is bounded by the blob); then decodes every
 * list and checks the result with validateCsr.
 *
 * @throws ValidationError "<what>: <first violation>", e.g.
 *         "in-adjacency: corrupt compressed neighbour list at vertex 2".
 */
Adjacency decodeAdjacency(std::span<const EdgeId> offsets,
                          std::span<const std::uint64_t> byte_index,
                          std::span<const std::uint8_t> blob,
                          const std::string &what);

} // namespace gral

#endif // GRAL_GRAPH_STORAGE_VARINT_H
