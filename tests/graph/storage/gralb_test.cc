/**
 * @file
 * Tests for the `.gralb` memory-mapped binary CSR format: write/open
 * round-trips and the malformed-header regression suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
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
    EXPECT_TRUE(mapped.view().isCompressed());
    EXPECT_EQ(decodeGraph(mapped.view()), graph);
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
