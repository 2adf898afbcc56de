#include "graph/io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace gral
{

namespace
{

/** Block size for the streaming text parser's read(2) granularity. */
constexpr std::size_t kReadBlockBytes = std::size_t{1} << 20;

/** Chunk size readEdgeListText uses when delegating to the
 *  streaming parser. */
constexpr std::size_t kDefaultChunkEdges = std::size_t{1} << 20;

enum class LineKind
{
    Skip,    ///< blank or '#'/'%' comment line
    HasEdge, ///< a "src dst" pair was parsed
    Bad,     ///< not a pair of unsigned integers
    Overflow ///< an endpoint does not fit a 32-bit VertexId
};

/**
 * Parse one line [p, end). Matches the historical istringstream
 * semantics: comments are recognized only at column 0, whitespace
 * separates the two unsigned fields, and anything after the second
 * field (weights, timestamps, '\r') is ignored.
 */
LineKind
parseEdgeLine(const char *p, const char *end, Edge &edge)
{
    if (p == end)
        return LineKind::Skip;
    if (*p == '#' || *p == '%')
        return LineKind::Skip;
    std::uint64_t ids[2] = {0, 0};
    for (int field = 0; field < 2; ++field) {
        while (p != end &&
               (*p == ' ' || *p == '\t' || *p == '\r'))
            ++p;
        if (p == end || *p < '0' || *p > '9')
            return LineKind::Bad;
        std::uint64_t value = 0;
        while (p != end && *p >= '0' && *p <= '9') {
            value = value * 10 +
                    static_cast<std::uint64_t>(*p - '0');
            if (value > kInvalidVertex)
                return LineKind::Overflow;
            ++p;
        }
        ids[field] = value;
    }
    if (ids[0] > kInvalidVertex - 1 || ids[1] > kInvalidVertex - 1)
        return LineKind::Overflow;
    edge = {static_cast<VertexId>(ids[0]),
            static_cast<VertexId>(ids[1])};
    return LineKind::HasEdge;
}

} // namespace

std::size_t
readEdgeListTextChunked(
    std::istream &in, std::size_t chunk_edges,
    const std::function<void(std::span<const Edge>)> &sink)
{
    GRAL_CHECK(chunk_edges > 0)
        << "readEdgeListTextChunked: chunk_edges must be > 0";
    std::vector<Edge> chunk;
    chunk.reserve(chunk_edges);
    std::vector<char> block(kReadBlockBytes);
    std::string carry; // partial last line of the previous block
    std::size_t total = 0;
    std::size_t line_number = 0;

    auto flush = [&] {
        if (chunk.empty())
            return;
        sink(std::span<const Edge>(chunk));
        total += chunk.size();
        chunk.clear();
    };
    auto handleLine = [&](const char *begin, const char *end) {
        ++line_number;
        Edge edge;
        switch (parseEdgeLine(begin, end, edge)) {
        case LineKind::Skip:
            return;
        case LineKind::HasEdge:
            chunk.push_back(edge);
            if (chunk.size() == chunk_edges)
                flush();
            return;
        case LineKind::Bad:
            throw std::runtime_error(
                "readEdgeListText: bad line: " +
                std::string(begin, end));
        case LineKind::Overflow:
            throw std::runtime_error(
                "readEdgeListText: vertex ID exceeds 32 bits "
                "(line " +
                std::to_string(line_number) + ")");
        }
    };

    while (in) {
        in.read(block.data(),
                static_cast<std::streamsize>(block.size()));
        std::size_t got = static_cast<std::size_t>(in.gcount());
        if (got == 0)
            break;
        const char *p = block.data();
        const char *end = p + got;
        while (p != end) {
            const char *nl = static_cast<const char *>(
                std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
            if (nl == nullptr)
                break;
            if (!carry.empty()) {
                carry.append(p, nl);
                handleLine(carry.data(),
                           carry.data() + carry.size());
                carry.clear();
            } else {
                handleLine(p, nl);
            }
            p = nl + 1;
        }
        carry.append(p, end);
    }
    if (!carry.empty()) {
        handleLine(carry.data(), carry.data() + carry.size());
        carry.clear();
    }
    flush();
    return total;
}

std::size_t
readEdgeListTextChunkedFile(
    const std::string &path, std::size_t chunk_edges,
    const std::function<void(std::span<const Edge>)> &sink)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    return readEdgeListTextChunked(in, chunk_edges, sink);
}

std::vector<Edge>
readEdgeListText(std::istream &in)
{
    std::vector<Edge> edges;
    readEdgeListTextChunked(
        in, kDefaultChunkEdges, [&](std::span<const Edge> chunk) {
            edges.insert(edges.end(), chunk.begin(), chunk.end());
        });
    return edges;
}

std::vector<Edge>
readEdgeListTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    return readEdgeListText(in);
}

void
writeEdgeListText(const GraphView &graph, std::ostream &out)
{
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        for (VertexId u : graph.outNeighbours(v))
            out << v << ' ' << u << '\n';
}

Permutation
readPermutationText(std::istream &in)
{
    std::vector<VertexId> new_ids;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' || line[0] == '%')
            continue;
        std::istringstream fields(line);
        std::uint64_t new_id = 0;
        if (!(fields >> new_id))
            throw std::runtime_error(
                "readPermutationText: bad line: " + line);
        if (new_id >= kInvalidVertex)
            throw std::runtime_error(
                "readPermutationText: new ID exceeds 32 bits: " + line);
        new_ids.push_back(static_cast<VertexId>(new_id));
    }
    return Permutation(std::move(new_ids));
}

Permutation
readPermutationTextFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    return readPermutationText(in);
}

void
writePermutationText(const Permutation &permutation, std::ostream &out)
{
    for (VertexId old_id = 0; old_id < permutation.size(); ++old_id)
        out << permutation.newId(old_id) << '\n';
}

void
writePermutationTextFile(const Permutation &permutation,
                         const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open " + path);
    writePermutationText(permutation, out);
}

} // namespace gral
