#include "graph/storage/gralb.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/check.h"
#include "graph/degree.h"
#include "graph/validate.h"

namespace gral
{

namespace
{

std::uint64_t
alignUp(std::uint64_t offset)
{
    return (offset + kGralbAlignment - 1) & ~(kGralbAlignment - 1);
}

std::string
str(std::uint64_t value)
{
    return std::to_string(value);
}

[[noreturn]] void
failHeader(const std::string &what, const std::string &detail)
{
    throw ValidationError(what + ": " + detail);
}

void
writeZeroPad(std::ostream &out, std::uint64_t from, std::uint64_t to)
{
    GRAL_DCHECK(to >= from) << "gralb: negative padding";
    static constexpr char zeros[kGralbAlignment] = {};
    for (std::uint64_t n = to - from; n > 0;) {
        auto chunk = std::min<std::uint64_t>(n, sizeof(zeros));
        out.write(zeros, static_cast<std::streamsize>(chunk));
        n -= chunk;
    }
}

/** Lay out one section of @p bytes at the next aligned offset. */
GralbSection
placeSection(std::uint64_t &cursor, std::uint64_t bytes)
{
    GralbSection section;
    section.offset = alignUp(cursor);
    section.bytes = bytes;
    cursor = section.offset + bytes;
    return section;
}

void
writeSection(std::ostream &out, std::uint64_t &written,
             const GralbSection &section, const void *data)
{
    writeZeroPad(out, written, section.offset);
    if (section.bytes > 0)
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(section.bytes));
    written = section.offset + section.bytes;
}

void
checkSectionInside(const GralbSection &section, std::uint64_t file_bytes,
                   const std::string &what, const char *name)
{
    if (section.offset > file_bytes ||
        section.bytes > file_bytes - section.offset)
        failHeader(what, std::string(name) + " section [" +
                             str(section.offset) + ", +" +
                             str(section.bytes) +
                             ") exceeds file size " + str(file_bytes));
    // Sections are read in place as u64/u32 arrays.
    if (section.offset % kGralbAlignment != 0)
        failHeader(what, std::string(name) + " section offset " +
                             str(section.offset) + " is not " +
                             str(kGralbAlignment) + "-byte aligned");
}

void
checkDirectionSections(const GralbHeader &header,
                       const GralbSection &offsets,
                       const GralbSection &edges,
                       const std::string &what, const char *direction)
{
    std::uint64_t offsets_bytes =
        (header.numVertices + 1) * sizeof(EdgeId);
    if (offsets.bytes != offsets_bytes)
        failHeader(what, std::string(direction) + " offsets section is " +
                             str(offsets.bytes) + " bytes, expected " +
                             str(offsets_bytes) + " for |V| = " +
                             str(header.numVertices));
    std::uint64_t edges_bytes = header.numEdges * sizeof(VertexId);
    if (edges.bytes != edges_bytes)
        failHeader(what, std::string(direction) + " edges section is " +
                             str(edges.bytes) + " bytes, expected " +
                             str(edges_bytes) + " for |E| = " +
                             str(header.numEdges));
}

template <typename T>
std::span<const T>
sectionSpan(std::span<const std::uint8_t> file,
            const GralbSection &section)
{
    return {reinterpret_cast<const T *>(file.data() + section.offset),
            static_cast<std::size_t>(section.bytes / sizeof(T))};
}

} // namespace

GralbWriteResult
writeGralbFile(const GraphView &graph, const std::string &path)
{
    GralbHeader header;
    header.numVertices = graph.numVertices();
    header.numEdges = graph.numEdges();
    header.maxOutDegree = maxDegree(graph, Direction::Out);
    header.maxInDegree = maxDegree(graph, Direction::In);

    std::uint64_t cursor = sizeof(GralbHeader);
    auto placeDirection = [&](const AdjacencyView &adjacency,
                              GralbSection &offsets,
                              GralbSection &edges) {
        offsets = placeSection(
            cursor, adjacency.offsets().size() * sizeof(EdgeId));
        edges = placeSection(cursor,
                             adjacency.edges().size() * sizeof(VertexId));
    };
    placeDirection(graph.out(), header.outOffsets, header.outEdges);
    placeDirection(graph.in(), header.inOffsets, header.inEdges);
    header.fileBytes = cursor;

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open " + path);
    out.write(reinterpret_cast<const char *>(&header),
              sizeof(header));
    std::uint64_t written = sizeof(header);
    auto writeDirection = [&](const AdjacencyView &adjacency,
                              const GralbSection &offsets,
                              const GralbSection &edges) {
        writeSection(out, written, offsets, adjacency.offsets().data());
        writeSection(out, written, edges, adjacency.edges().data());
    };
    writeDirection(graph.out(), header.outOffsets, header.outEdges);
    writeDirection(graph.in(), header.inOffsets, header.inEdges);
    out.flush();
    if (!out)
        throw std::runtime_error("write failed for " + path);
    GRAL_CHECK(written == header.fileBytes)
        << "gralb writer layout mismatch";

    GralbWriteResult result;
    result.fileBytes = header.fileBytes;
    return result;
}

void
validateGralbHeader(const GralbHeader &header,
                    std::uint64_t actual_file_bytes,
                    const std::string &what)
{
    if (std::memcmp(header.magic.data(), kGralbMagic.data(),
                    kGralbMagic.size()) != 0)
        failHeader(what,
                   "bad magic (not a .gralb file, or truncated "
                   "before the header)");
    if (header.version != kGralbVersion)
        failHeader(what, "format version " + str(header.version) +
                             " unsupported (this build reads version " +
                             str(kGralbVersion) +
                             "); re-create it from the source graph "
                             "with `gral convert`");
    if (header.endianProbe != kGralbEndianProbe)
        failHeader(what,
                   "endianness mismatch: file was written on a "
                   "machine of different byte order");
    if (header.numVertices > kInvalidVertex)
        failHeader(what, "vertex count " + str(header.numVertices) +
                             " overflows 32-bit vertex IDs");
    // Every stored edge takes four bytes, so |E| can be no larger
    // than the file; this also keeps the edges-section size below
    // from wrapping.
    if (header.numEdges > actual_file_bytes)
        failHeader(what, "edge count " + str(header.numEdges) +
                             " exceeds the file's " +
                             str(actual_file_bytes) + " bytes");
    if (header.fileBytes != actual_file_bytes)
        failHeader(what, "header says " + str(header.fileBytes) +
                             " bytes but the file has " +
                             str(actual_file_bytes) +
                             " (truncated or corrupt)");

    checkSectionInside(header.outOffsets, actual_file_bytes, what,
                       "out-offsets");
    checkSectionInside(header.outEdges, actual_file_bytes, what,
                       "out-edges");
    checkSectionInside(header.inOffsets, actual_file_bytes, what,
                       "in-offsets");
    checkSectionInside(header.inEdges, actual_file_bytes, what,
                       "in-edges");

    checkDirectionSections(header, header.outOffsets, header.outEdges,
                           what, "out");
    checkDirectionSections(header, header.inOffsets, header.inEdges,
                           what, "in");
}

MappedGraph
MappedGraph::open(const std::string &path)
{
    MappedGraph mapped;
    mapped.file_ = MmapFile::open(path);
    auto bytes = mapped.file_.bytes();
    if (bytes.size() < sizeof(GralbHeader))
        failHeader(path, "file is " + str(bytes.size()) +
                             " bytes, smaller than the " +
                             str(sizeof(GralbHeader)) +
                             "-byte header");
    // Copy the header out of the mapping: validated once, and any
    // later truncation of the file can't yank it out from under us.
    std::memcpy(&mapped.header_, bytes.data(), sizeof(GralbHeader));
    validateGralbHeader(mapped.header_, bytes.size(), path);

    // Cheap structural cross-check the section-size validation can't
    // see: the offsets arrays must agree with the header counts.
    const GralbHeader &h = mapped.header_;
    if (sectionSpan<EdgeId>(bytes, h.outOffsets).back() != h.numEdges ||
        sectionSpan<EdgeId>(bytes, h.inOffsets).back() != h.numEdges)
        failHeader(path, "offsets arrays disagree with header edge "
                         "count " +
                             str(h.numEdges));

    mapped.view_ = GraphView(
        AdjacencyView(sectionSpan<EdgeId>(bytes, h.outOffsets),
                      sectionSpan<VertexId>(bytes, h.outEdges)),
        AdjacencyView(sectionSpan<EdgeId>(bytes, h.inOffsets),
                      sectionSpan<VertexId>(bytes, h.inEdges)));
    return mapped;
}

} // namespace gral
