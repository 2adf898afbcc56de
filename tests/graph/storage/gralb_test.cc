/**
 * @file
 * Tests for the `.gralb` memory-mapped binary CSR format: write/open
 * round-trips, the malformed-header regression suite, and the checks
 * open runs while decoding a compressed direction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/degree.h"
#include "graph/storage/gralb.h"
#include "graph/storage/varint.h"
#include "graph/validate.h"

namespace gral
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::vector<char>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Overwrite sizeof(T) bytes at @p offset of the file at @p path. */
template <typename T>
void
corrupt(const std::string &path, std::size_t offset, T value)
{
    std::vector<char> bytes = readFileBytes(path);
    ASSERT_GE(bytes.size(), offset + sizeof(T));
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
    writeFileBytes(path, bytes);
}

/** The header of the `.gralb` at @p path. */
GralbHeader
readHeader(const std::string &path)
{
    std::vector<char> bytes = readFileBytes(path);
    GralbHeader header;
    EXPECT_GE(bytes.size(), sizeof(header));
    std::memcpy(&header, bytes.data(), sizeof(header));
    return header;
}

/** Write @p graph compressed to @p name; return the path. */
std::string
writeCompressed(const Graph &graph, const std::string &name)
{
    std::string path = tempPath(name);
    GralbWriteOptions options;
    options.compressed = true;
    writeGralbFile(graph, path, options);
    return path;
}

/** What MappedGraph::open(@p path) throws; empty when it opens. */
std::string
openError(const std::string &path)
{
    try {
        (void)MappedGraph::open(path);
    } catch (const ValidationError &error) {
        return error.what();
    }
    return "";
}

/** Expect open(@p path) to throw a ValidationError that names the
 *  file, @p direction and @p detail. */
void
expectOpenRejects(const std::string &path, const std::string &direction,
                  const std::string &detail)
{
    std::string message = openError(path);
    EXPECT_EQ(message.rfind(path + ": " + direction + ": ", 0), 0u)
        << message;
    EXPECT_NE(message.find(detail), std::string::npos) << message;
}

TEST(Gralb, UncompressedRoundTrip)
{
    Graph graph = generateErdosRenyi(400, 3000, 9);
    std::string path = tempPath("round.gralb");
    GralbWriteResult written = writeGralbFile(graph, path);
    EXPECT_GT(written.fileBytes, sizeof(GralbHeader));
    EXPECT_DOUBLE_EQ(written.compressedBytesPerEdge, 0.0);

    MappedGraph mapped = MappedGraph::open(path);
    EXPECT_EQ(mapped.numVertices(), graph.numVertices());
    EXPECT_EQ(mapped.numEdges(), graph.numEdges());
    EXPECT_FALSE(mapped.isCompressed());
    EXPECT_EQ(mapped.fileBytes(), written.fileBytes);
    EXPECT_EQ(mapped.header().maxOutDegree,
              maxDegree(graph, Direction::Out));
    EXPECT_EQ(mapped.header().maxInDegree,
              maxDegree(graph, Direction::In));
    EXPECT_EQ(materializeGraph(mapped.view()), graph);
}

TEST(Gralb, CompressedRoundTrip)
{
    Graph graph = generateErdosRenyi(300, 2400, 13);
    std::string path = tempPath("round_comp.gralb");
    GralbWriteOptions options;
    options.compressed = true;
    GralbWriteResult written = writeGralbFile(graph, path, options);
    EXPECT_GT(written.compressedBytesPerEdge, 0.0);
    // Sorted neighbour lists encode to a few bytes per edge — far
    // below the 4 raw bytes.
    EXPECT_LT(written.compressedBytesPerEdge, 4.0);

    MappedGraph mapped = MappedGraph::open(path);
    EXPECT_TRUE(mapped.isCompressed());
    EXPECT_EQ(materializeGraph(mapped.view()), graph);
    // One definition of compressed bytes/edge, bit for bit.
    EXPECT_EQ(written.compressedBytesPerEdge,
              compressedBytesPerEdge(graph));
    EXPECT_LT(mapped.fileBytes(), writeGralbFile(
        graph, tempPath("round_raw.gralb")).fileBytes);
}

TEST(Gralb, EmptyGraphRoundTrips)
{
    std::vector<Edge> no_edges;
    Graph graph(5, no_edges);
    std::string path = tempPath("empty.gralb");
    writeGralbFile(graph, path);
    MappedGraph mapped = MappedGraph::open(path);
    EXPECT_EQ(mapped.numVertices(), 5u);
    EXPECT_EQ(mapped.numEdges(), 0u);
    EXPECT_EQ(materializeGraph(mapped.view()), graph);
}

TEST(Gralb, BothDirectionsStoredNoRebuild)
{
    // The CSC is stored, not rebuilt: the in-direction spans come
    // straight from the mapping and match the original.
    Graph graph = makeCycle(32);
    std::string path = tempPath("zerocopy.gralb");
    writeGralbFile(graph, path);
    MappedGraph mapped = MappedGraph::open(path);
    EXPECT_EQ(mapped.view().out().edges().size(), graph.numEdges());
    EXPECT_EQ(mapped.view().in().edges().size(), graph.numEdges());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        std::span<const VertexId> got =
            mapped.view().inNeighbours(v);
        std::span<const VertexId> expected = graph.inNeighbours(v);
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               expected.begin(), expected.end()));
    }
}

TEST(Gralb, MissingFileThrows)
{
    EXPECT_THROW((void)MappedGraph::open("/nonexistent/g.gralb"),
                 std::runtime_error);
}

TEST(Gralb, FileSmallerThanHeaderRejected)
{
    std::string path = tempPath("tiny.gralb");
    writeFileBytes(path, std::vector<char>(64, '\0'));
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, BadMagicRejected)
{
    Graph graph = makePath(10);
    std::string path = tempPath("magic.gralb");
    writeGralbFile(graph, path);
    corrupt<char>(path, 0, 'X');
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, FutureVersionRejectedWithHint)
{
    Graph graph = makePath(10);
    std::string path = tempPath("version.gralb");
    writeGralbFile(graph, path);
    corrupt<std::uint32_t>(path, 8, kGralbVersion + 1);
    try {
        (void)MappedGraph::open(path);
        FAIL() << "version mismatch not diagnosed";
    } catch (const ValidationError &error) {
        // The message must tell the user how to recover.
        EXPECT_NE(std::string(error.what()).find("gral convert"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Gralb, ByteSwappedEndianProbeRejected)
{
    Graph graph = makePath(10);
    std::string path = tempPath("endian.gralb");
    writeGralbFile(graph, path);
    corrupt<std::uint32_t>(path, 12, 0x04030201);
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, UnknownFlagBitsRejected)
{
    Graph graph = makePath(10);
    std::string path = tempPath("flags.gralb");
    writeGralbFile(graph, path);
    corrupt<std::uint64_t>(path, 16, std::uint64_t{1} << 17);
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, TruncatedFileRejected)
{
    Graph graph = generateErdosRenyi(100, 800, 3);
    std::string path = tempPath("trunc.gralb");
    writeGralbFile(graph, path);
    std::vector<char> bytes = readFileBytes(path);
    bytes.resize(bytes.size() - 1);
    writeFileBytes(path, bytes);
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, SectionBeyondFileRejected)
{
    Graph graph = makePath(10);
    std::string path = tempPath("section.gralb");
    writeGralbFile(graph, path);
    // Point the out-offsets section past the end of the file
    // (descriptor block starts at byte 64).
    corrupt<std::uint64_t>(path, 64, std::uint64_t{1} << 40);
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, VertexCountOverflowRejected)
{
    Graph graph = makePath(10);
    std::string path = tempPath("count.gralb");
    writeGralbFile(graph, path);
    corrupt<std::uint64_t>(path, 24,
                           std::uint64_t{kInvalidVertex} + 1);
    EXPECT_THROW((void)MappedGraph::open(path), ValidationError);
}

TEST(Gralb, EdgeCountBeyondFileRejected)
{
    // |E| = 2^62 makes the expected edges-section size 4|E| wrap to
    // 0, which an emptied edges section and matching offsets would
    // otherwise satisfy.
    Graph graph = makePath(10);
    std::string path = tempPath("edges.gralb");
    writeGralbFile(graph, path);
    GralbHeader header = readHeader(path);
    const std::uint64_t huge = std::uint64_t{1} << 62;
    corrupt<std::uint64_t>(path, offsetof(GralbHeader, numEdges), huge);
    for (std::size_t edges : {offsetof(GralbHeader, outEdges),
                              offsetof(GralbHeader, inEdges)})
        corrupt<std::uint64_t>(path, edges + offsetof(GralbSection, bytes),
                               0);
    for (const GralbSection &offsets :
         {header.outOffsets, header.inOffsets})
        corrupt<std::uint64_t>(
            path, offsets.offset + offsets.bytes - sizeof(EdgeId), huge);
    std::string message = openError(path);
    EXPECT_NE(message.find("edge count"), std::string::npos) << message;
}

TEST(Gralb, MisalignedSectionRejected)
{
    // Sections are read in place as u64/u32 arrays.
    Graph graph = makePath(10);
    std::string path = tempPath("align.gralb");
    writeGralbFile(graph, path);
    GralbHeader header = readHeader(path);
    corrupt<std::uint64_t>(path, offsetof(GralbHeader, outOffsets),
                           header.outOffsets.offset + 4);
    std::string message = openError(path);
    EXPECT_NE(message.find("aligned"), std::string::npos) << message;
}

TEST(Gralb, CompressedIndexPastBlobRejected)
{
    // The first byte-index entry points past the blob: open must
    // refuse it before any list is sliced out of the blob.
    std::string path = writeCompressed(generateErdosRenyi(200, 1500, 3),
                                       "comp_past.gralb");
    GralbHeader header = readHeader(path);
    corrupt<std::uint64_t>(path, header.outCompIndex.offset,
                           header.outCompBlob.bytes + 4096);
    expectOpenRejects(path, "out-adjacency", "byte index starts at");
}

TEST(Gralb, CompressedIndexNotMonotoneRejected)
{
    Graph graph = generateErdosRenyi(200, 1500, 3);
    std::string path = writeCompressed(graph, "comp_mono.gralb");
    GralbHeader header = readHeader(path);
    VertexId v = graph.numVertices() / 2;
    ASSERT_GT(graph.out().offsets()[v - 1], 0u);
    corrupt<std::uint64_t>(
        path, header.outCompIndex.offset + v * sizeof(std::uint64_t), 0);
    expectOpenRejects(path, "out-adjacency",
                      "byte index not monotone at vertex " +
                          std::to_string(v - 1));
}

TEST(Gralb, CompressedIndexEndNotBlobSizeRejected)
{
    Graph graph = generateErdosRenyi(200, 1500, 3);
    std::string path = writeCompressed(graph, "comp_end.gralb");
    GralbHeader header = readHeader(path);
    corrupt<std::uint64_t>(path,
                           header.inCompIndex.offset +
                               graph.numVertices() * sizeof(std::uint64_t),
                           header.inCompBlob.bytes + 1);
    expectOpenRejects(path, "in-adjacency", "byte index ends at");
}

TEST(Gralb, CompressedOffsetsNotMonotoneRejected)
{
    Graph graph = generateErdosRenyi(200, 1500, 3);
    std::string path = writeCompressed(graph, "comp_offsets.gralb");
    GralbHeader header = readHeader(path);
    VertexId v = graph.numVertices() / 2;
    ASSERT_GT(graph.in().offsets()[v - 1], 0u);
    corrupt<EdgeId>(path, header.inOffsets.offset + v * sizeof(EdgeId),
                    0);
    expectOpenRejects(path, "in-adjacency",
                      "offsets not monotone at vertex " +
                          std::to_string(v - 1));
}

TEST(Gralb, CompressedCorruptListRejected)
{
    Graph graph = makePath(6);
    std::string path = writeCompressed(graph, "comp_list.gralb");
    GralbHeader header = readHeader(path);
    CompressedAdjacency in_c = compressAdjacency(graph.in());
    // Vertex 2's first in-neighbour byte loses its varint terminator.
    std::size_t at = header.inCompBlob.offset + in_c.byteIndex[2];
    corrupt<std::uint8_t>(path, at,
                          static_cast<std::uint8_t>(
                              readFileBytes(path)[at] | 0x80));
    EXPECT_EQ(openError(path),
              path + ": in-adjacency: corrupt compressed neighbour list "
                     "at vertex 2");
}

TEST(Gralb, CompressedNeighbourOutOfRangeRejected)
{
    // A list that decodes but names a vertex >= |V| fails the CSR
    // check open runs on every decoded direction.
    Graph graph = makePath(6);
    std::string path = writeCompressed(graph, "comp_range.gralb");
    GralbHeader header = readHeader(path);
    ASSERT_EQ(graph.outDegree(0), 1u);
    corrupt<std::uint8_t>(path, header.outCompBlob.offset, 0x7F);
    expectOpenRejects(path, "out-adjacency", "points to vertex 127");
}

TEST(Gralb, CompressedViewSurvivesMove)
{
    Graph graph = generateErdosRenyi(300, 2400, 17);
    std::string path = writeCompressed(graph, "comp_move.gralb");
    MappedGraph opened = MappedGraph::open(path);
    MappedGraph moved(std::move(opened));
    MappedGraph assigned;
    assigned = std::move(moved);
    const GraphView &view = assigned.view();
    ASSERT_EQ(view.numVertices(), graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        std::span<const VertexId> out = view.outNeighbours(v);
        std::span<const VertexId> in = view.inNeighbours(v);
        ASSERT_TRUE(std::ranges::equal(out, graph.outNeighbours(v))) << v;
        ASSERT_TRUE(std::ranges::equal(in, graph.inNeighbours(v))) << v;
    }
}

TEST(Gralb, ValidateHeaderNamesTheFile)
{
    GralbHeader header; // defaults: valid magic/version/probe
    try {
        validateGralbHeader(header, 0, "some.gralb");
        FAIL() << "zero-byte file accepted";
    } catch (const ValidationError &error) {
        EXPECT_NE(std::string(error.what()).find("some.gralb"),
                  std::string::npos)
            << error.what();
    }
}

} // namespace
} // namespace gral
