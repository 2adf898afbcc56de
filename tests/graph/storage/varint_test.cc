/**
 * @file
 * Tests for the delta+varint neighbour-list codec.
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
#include "graph/validate.h"

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
          std::uint64_t{kInvalidVertex},
          std::numeric_limits<std::uint64_t>::max()}) {
        std::vector<std::uint8_t> bytes;
        appendVarint(value, bytes);
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
    Graph graph = generateErdosRenyi(200, 1500, 11);
    CompressedAdjacency compressed = compressAdjacency(graph.out());
    ASSERT_EQ(compressed.byteIndex.size(), graph.numVertices() + 1u);
    EXPECT_EQ(compressed.byteIndex.front(), 0u);
    EXPECT_EQ(compressed.byteIndex.back(), compressed.blob.size());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        std::size_t begin = compressed.byteIndex[v];
        std::size_t end = compressed.byteIndex[v + 1];
        ASSERT_LE(begin, end);
        std::span<const VertexId> expected =
            graph.out().neighbours(v);
        std::vector<VertexId> decoded(expected.size());
        ASSERT_TRUE(decodeNeighbourList(
            std::span<const std::uint8_t>(compressed.blob.data() +
                                              begin,
                                          end - begin),
            decoded));
        EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                               expected.begin(), expected.end()));
    }
}

TEST(CompressAdjacency, BytesPerEdgeDefinition)
{
    // Blob bytes over both directions divided by 2|E|.
    Graph graph = generateErdosRenyi(150, 900, 5);
    CompressedAdjacency out_c = compressAdjacency(graph.out());
    CompressedAdjacency in_c = compressAdjacency(graph.in());
    EXPECT_EQ(compressedBytesPerEdge(graph),
              static_cast<double>(out_c.blob.size() + in_c.blob.size()) /
                  (2.0 * static_cast<double>(graph.numEdges())));
    std::vector<Edge> no_edges;
    EXPECT_EQ(compressedBytesPerEdge(Graph(4, no_edges)), 0.0);
}

TEST(DecodeGraph, RoundTripsCompressedBothDirections)
{
    Graph graph = generateErdosRenyi(120, 700, 23);
    CompressedAdjacency out_c = compressAdjacency(graph.out());
    CompressedAdjacency in_c = compressAdjacency(graph.in());
    EXPECT_EQ(decodeAdjacency(graph.out().offsets(), out_c.byteIndex,
                              out_c.blob, "out-adjacency"),
              graph.out());
    EXPECT_EQ(decodeAdjacency(graph.in().offsets(), in_c.byteIndex,
                              in_c.blob, "in-adjacency"),
              graph.in());
}

TEST(DecodeGraph, CorruptListNamesDirectionAndVertex)
{
    Graph graph = makePath(6);
    CompressedAdjacency in_c = compressAdjacency(graph.in());
    // Vertex 2's first in-neighbour byte loses its varint terminator.
    in_c.blob[in_c.byteIndex[2]] |= 0x80;
    try {
        (void)decodeAdjacency(graph.in().offsets(), in_c.byteIndex,
                              in_c.blob, "in-adjacency");
        FAIL() << "corrupt blob decoded";
    } catch (const ValidationError &error) {
        EXPECT_STREQ(error.what(), "in-adjacency: corrupt compressed "
                                   "neighbour list at vertex 2");
    }
}

} // namespace
} // namespace gral
