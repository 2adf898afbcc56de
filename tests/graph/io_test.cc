/**
 * @file
 * Tests for text edge-list and permutation serialization.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "graph/generators.h"
#include "graph/io.h"

namespace gral
{
namespace
{

TEST(TextIo, ParsesEdgeList)
{
    std::istringstream in("# comment\n0 1\n% other comment\n2 3\n\n1 2\n");
    std::vector<Edge> edges = readEdgeListText(in);
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0], (Edge{0, 1}));
    EXPECT_EQ(edges[1], (Edge{2, 3}));
    EXPECT_EQ(edges[2], (Edge{1, 2}));
}

TEST(TextIo, RejectsGarbage)
{
    std::istringstream in("0 not-a-number\n");
    EXPECT_THROW((void)readEdgeListText(in), std::runtime_error);
}

TEST(TextIo, RejectsHugeIds)
{
    std::istringstream in("0 99999999999\n");
    EXPECT_THROW((void)readEdgeListText(in), std::runtime_error);
}

TEST(TextIo, RoundTrip)
{
    Graph graph = makeCycle(6);
    std::ostringstream out;
    writeEdgeListText(graph, out);
    std::istringstream in(out.str());
    std::vector<Edge> edges = readEdgeListText(in);
    Graph back(graph.numVertices(), edges);
    EXPECT_EQ(back, graph);
}

TEST(TextIo, MissingFileThrows)
{
    EXPECT_THROW((void)readEdgeListTextFile("/nonexistent/file.txt"),
                 std::runtime_error);
}

TEST(PermutationIo, RoundTrip)
{
    Permutation p = randomPermutation(40, 7);
    std::stringstream buffer;
    writePermutationText(p, buffer);
    Permutation back = readPermutationText(buffer);
    ASSERT_EQ(back.size(), p.size());
    for (VertexId v = 0; v < p.size(); ++v)
        EXPECT_EQ(back.newId(v), p.newId(v));
}

TEST(PermutationIo, SkipsCommentsAndBlankLines)
{
    std::istringstream in("# header\n2\n\n% other comment\n0\n1\n");
    Permutation p = readPermutationText(in);
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.newId(0), 2u);
    EXPECT_EQ(p.newId(1), 0u);
    EXPECT_EQ(p.newId(2), 1u);
}

TEST(PermutationIo, RejectsGarbageLine)
{
    std::istringstream in("0\nbanana\n2\n");
    EXPECT_THROW((void)readPermutationText(in), std::runtime_error);
}

TEST(PermutationIo, RejectsHugeId)
{
    std::istringstream in("0\n4294967295\n");
    EXPECT_THROW((void)readPermutationText(in), std::runtime_error);
}

TEST(PermutationIo, NotBijectivityCheckedByDesign)
{
    // Parsing accepts a non-bijective array; callers run
    // validatePermutation() on untrusted input (the CLI does).
    std::istringstream in("0\n0\n0\n");
    Permutation p = readPermutationText(in);
    EXPECT_EQ(p.size(), 3u);
    EXPECT_FALSE(p.isValid());
}

TEST(PermutationIo, FileRoundTripAndMissingFile)
{
    Permutation p = randomPermutation(16, 3);
    std::string path = testing::TempDir() + "/gral_perm_test.txt";
    writePermutationTextFile(p, path);
    Permutation back = readPermutationTextFile(path);
    ASSERT_EQ(back.size(), p.size());
    EXPECT_TRUE(back.isValid());
    EXPECT_THROW((void)readPermutationTextFile("/nonexistent/p.txt"),
                 std::runtime_error);
}

} // namespace
} // namespace gral
