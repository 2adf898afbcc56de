/**
 * @file
 * Tests for the delta+varint neighbour-list code: round trips through
 * the test-only decoder, and compressed bytes/edge against the size
 * of the actual encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/storage/varint.h"
#include "tests/support/varint_decode.h"

namespace gral
{
namespace
{

std::vector<VertexId>
roundTrip(const std::vector<VertexId> &list, bool &ok)
{
    std::vector<std::uint8_t> bytes;
    encodeNeighbourList(list, bytes);
    std::vector<VertexId> decoded(list.size());
    ok = decodeNeighbourList(bytes, decoded);
    return decoded;
}

TEST(Varint, SingleByteValuesRoundTrip)
{
    for (std::uint64_t value : {0ull, 1ull, 127ull}) {
        std::vector<std::uint8_t> bytes;
        appendVarint(value, bytes);
        EXPECT_EQ(bytes.size(), 1u);
        EXPECT_EQ(varintBytes(value), 1u);
        std::uint64_t back = 0;
        EXPECT_EQ(decodeVarint(bytes.data(),
                               bytes.data() + bytes.size(), back),
                  bytes.size());
        EXPECT_EQ(back, value);
    }
}

TEST(Varint, MultiByteValuesRoundTrip)
{
    for (std::uint64_t value :
         {std::uint64_t{128}, std::uint64_t{300},
          std::uint64_t{16383}, std::uint64_t{16384},
          (std::uint64_t{1} << 21) - 1, std::uint64_t{1} << 21,
          (std::uint64_t{1} << 28) - 1, std::uint64_t{1} << 28,
          std::uint64_t{kInvalidVertex},
          std::numeric_limits<std::uint64_t>::max()}) {
        std::vector<std::uint8_t> bytes;
        appendVarint(value, bytes);
        EXPECT_EQ(varintBytes(value), bytes.size()) << value;
        std::uint64_t back = 0;
        EXPECT_EQ(decodeVarint(bytes.data(),
                               bytes.data() + bytes.size(), back),
                  bytes.size());
        EXPECT_EQ(back, value);
        EXPECT_LE(bytes.size(), kMaxVarintBytes);
    }
}

TEST(Varint, TruncatedVarintReportsZero)
{
    std::vector<std::uint8_t> bytes;
    appendVarint(300, bytes); // two bytes
    std::uint64_t back = 0;
    EXPECT_EQ(decodeVarint(bytes.data(), bytes.data() + 1, back), 0u);
    EXPECT_EQ(decodeVarint(bytes.data(), bytes.data(), back), 0u);
}

TEST(Varint, OverlongEncodingRejected)
{
    // Eleven continuation bytes can never be a 64-bit varint.
    std::vector<std::uint8_t> bytes(11, 0x80);
    std::uint64_t back = 0;
    EXPECT_EQ(decodeVarint(bytes.data(),
                           bytes.data() + bytes.size(), back),
              0u);
}

TEST(Zigzag, RoundTripsSignedDeltas)
{
    for (std::int64_t value :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{63}, std::int64_t{-64},
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(value)), value);
    }
    // Small magnitudes — the common CSR deltas — stay small encoded.
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
}

TEST(NeighbourList, EmptyListEncodesToNothing)
{
    std::vector<std::uint8_t> bytes;
    encodeNeighbourList(std::vector<VertexId>{}, bytes);
    EXPECT_TRUE(bytes.empty());
    std::vector<VertexId> decoded;
    EXPECT_TRUE(decodeNeighbourList(bytes, decoded));
}

TEST(NeighbourList, SingleVertexRoundTrips)
{
    bool ok = false;
    for (VertexId v : {VertexId{0}, VertexId{7},
                       VertexId{kInvalidVertex - 1}}) {
        std::vector<VertexId> list = {v};
        EXPECT_EQ(roundTrip(list, ok), list);
        EXPECT_TRUE(ok);
    }
}

TEST(NeighbourList, SortedListRoundTripsCompactly)
{
    std::vector<VertexId> list = {10, 11, 12, 13, 20, 21, 84};
    std::vector<std::uint8_t> bytes;
    encodeNeighbourList(list, bytes);
    // First element one byte, then one byte per delta up to 63
    // (zigzag spends one bit on the sign).
    EXPECT_EQ(bytes.size(), list.size());
    std::vector<VertexId> decoded(list.size());
    EXPECT_TRUE(decodeNeighbourList(bytes, decoded));
    EXPECT_EQ(decoded, list);
}

TEST(NeighbourList, NonMonotoneListRoundTrips)
{
    bool ok = false;
    std::vector<VertexId> list = {500, 3, 1000000, 3, 0,
                                  kInvalidVertex - 1, 42};
    EXPECT_EQ(roundTrip(list, ok), list);
    EXPECT_TRUE(ok);
}

TEST(NeighbourList, MaxDegreeHubRoundTrips)
{
    // A star hub's list: every other vertex, in order — the
    // worst-case degree a .gralb can hold per vertex.
    std::vector<VertexId> list(100000);
    for (VertexId i = 0; i < list.size(); ++i)
        list[i] = i * 3 + 1;
    bool ok = false;
    EXPECT_EQ(roundTrip(list, ok), list);
    EXPECT_TRUE(ok);
}

TEST(NeighbourList, TruncatedBufferRejected)
{
    std::vector<VertexId> list = {10, 200, 3000, 40000};
    std::vector<std::uint8_t> bytes;
    encodeNeighbourList(list, bytes);
    std::vector<VertexId> decoded(list.size());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_FALSE(decodeNeighbourList(
            std::span<const std::uint8_t>(bytes.data(), cut),
            decoded))
            << "cut at " << cut;
    }
}

TEST(NeighbourList, LeftoverBytesRejected)
{
    std::vector<VertexId> list = {1, 2, 3};
    std::vector<std::uint8_t> bytes;
    encodeNeighbourList(list, bytes);
    bytes.push_back(0); // one spare varint
    std::vector<VertexId> decoded(list.size());
    EXPECT_FALSE(decodeNeighbourList(bytes, decoded));
}

TEST(NeighbourList, DeltaBelowZeroRejected)
{
    // First element 5, delta -6 → decoded ID -1: invalid.
    std::vector<std::uint8_t> bytes;
    appendVarint(5, bytes);
    appendVarint(zigzagEncode(-6), bytes);
    std::vector<VertexId> decoded(2);
    EXPECT_FALSE(decodeNeighbourList(bytes, decoded));
}

TEST(NeighbourList, IdAtInvalidVertexRejected)
{
    // kInvalidVertex is the sentinel, never a valid neighbour.
    std::vector<std::uint8_t> bytes;
    appendVarint(kInvalidVertex, bytes);
    std::vector<VertexId> decoded(1);
    EXPECT_FALSE(decodeNeighbourList(bytes, decoded));
}

TEST(CompressAdjacency, IndexBracketsEveryList)
{
    // The blob is every list's encoding back to back: a byte index
    // built from each list encoded alone brackets the lists in it.
    Graph graph = generateErdosRenyi(200, 1500, 11);
    CompressedAdjacency compressed = compressAdjacency(graph.out());
    std::vector<std::size_t> index = {0};
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        std::vector<std::uint8_t> alone;
        encodeNeighbourList(graph.out().neighbours(v), alone);
        index.push_back(index.back() + alone.size());
    }
    ASSERT_EQ(index.back(), compressed.blob.size());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        std::span<const VertexId> expected =
            graph.out().neighbours(v);
        std::vector<VertexId> decoded(expected.size());
        ASSERT_TRUE(decodeNeighbourList(
            std::span<const std::uint8_t>(compressed.blob)
                .subspan(index[v], index[v + 1] - index[v]),
            decoded));
        EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                               expected.begin(), expected.end()));
    }
}

/** The encoded bytes of both directions of @p graph over 2|E|, in
 *  the expression perfbench's traced cell uses. */
double
blobBytesPerEdge(const GraphView &graph)
{
    std::size_t blob_bytes = compressAdjacency(graph.out()).blob.size() +
                             compressAdjacency(graph.in()).blob.size();
    return static_cast<double>(blob_bytes) /
           (2.0 * static_cast<double>(graph.numEdges()));
}

TEST(CompressAdjacency, BytesPerEdgeDefinition)
{
    // The length-only pass must equal the blob sizes exactly: the
    // experiment runner's figure and perfbench's traced one are
    // compared bit for bit.
    Graph graph = generateErdosRenyi(150, 900, 5);
    EXPECT_EQ(compressedBytesPerEdge(graph), blobBytesPerEdge(graph));

    // Sparse enough to leave rows empty.
    BuildOptions keep_isolated;
    keep_isolated.removeZeroDegree = false;
    std::vector<Edge> sparse_edges = {{0, 7}, {7, 0}, {3, 9}, {9, 9}};
    Graph sparse = buildGraph(12, sparse_edges, keep_isolated);
    EXPECT_EQ(compressedBytesPerEdge(sparse), blobBytesPerEdge(sparse));

    // Hand-built rows whose IDs and deltas sit on every varint byte
    // boundary, of the raw value and of its zigzag (2|d| or 2|d|-1),
    // up to IDs near 2^32-2. No Graph of that many vertices fits in a
    // test, so the rows are spans: neither pass reads |V|.
    const VertexId top = kInvalidVertex - 1;
    std::vector<std::vector<VertexId>> rows = {{}, {top, 0, top}, {}};
    for (std::uint64_t bits : {7u, 14u, 21u, 28u}) {
        const std::uint64_t edge = std::uint64_t{1} << bits;
        for (std::uint64_t delta :
             {edge - 1, edge, edge / 2 - 1, edge / 2}) {
            auto at = static_cast<VertexId>(delta);
            rows.push_back({at});                      // absolute ID
            rows.push_back({0, at});                   // + delta
            rows.push_back({at, 0});                   // - delta
            rows.push_back({top - at, top, top - at}); // near 2^32-2
        }
    }
    std::vector<EdgeId> offsets = {0};
    std::vector<VertexId> out_edges;
    std::vector<VertexId> in_edges;
    for (const std::vector<VertexId> &row : rows) {
        out_edges.insert(out_edges.end(), row.begin(), row.end());
        in_edges.insert(in_edges.end(), row.rbegin(), row.rend());
        offsets.push_back(out_edges.size());
    }
    GraphView boundaries(AdjacencyView(offsets, out_edges),
                         AdjacencyView(offsets, in_edges));
    EXPECT_EQ(compressedBytesPerEdge(boundaries),
              blobBytesPerEdge(boundaries));

    std::vector<Edge> no_edges;
    EXPECT_EQ(compressedBytesPerEdge(Graph(4, no_edges)), 0.0);
}

} // namespace
} // namespace gral
