#include "graph/storage/gralb.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "graph/degree.h"
#include "graph/storage/varint.h"
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

/** Per-direction section payloads staged before the header is known. */
struct DirectionPayload
{
    std::span<const EdgeId> offsets;
    std::span<const VertexId> edges;   // empty when compressed
    CompressedAdjacency compressed;    // empty when uncompressed
};

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
checkDirectionSections(const GralbHeader &header, bool compressed,
                       const GralbSection &offsets,
                       const GralbSection &edges,
                       const GralbSection &comp_index,
                       const GralbSection &comp_blob,
                       const std::string &what, const char *direction)
{
    std::uint64_t offsets_bytes =
        (header.numVertices + 1) * sizeof(EdgeId);
    if (offsets.bytes != offsets_bytes)
        failHeader(what, std::string(direction) + " offsets section is " +
                             str(offsets.bytes) + " bytes, expected " +
                             str(offsets_bytes) + " for |V| = " +
                             str(header.numVertices));
    if (compressed) {
        if (edges.bytes != 0)
            failHeader(what,
                       std::string(direction) +
                           " is flagged compressed but has a raw "
                           "edges section");
        std::uint64_t index_bytes =
            (header.numVertices + 1) * sizeof(std::uint64_t);
        if (comp_index.bytes != index_bytes)
            failHeader(what, std::string(direction) +
                                 " compressed index is " +
                                 str(comp_index.bytes) +
                                 " bytes, expected " + str(index_bytes));
    } else {
        std::uint64_t edges_bytes = header.numEdges * sizeof(VertexId);
        if (edges.bytes != edges_bytes)
            failHeader(what, std::string(direction) +
                                 " edges section is " + str(edges.bytes) +
                                 " bytes, expected " + str(edges_bytes) +
                                 " for |E| = " + str(header.numEdges));
        if (comp_index.bytes != 0 || comp_blob.bytes != 0)
            failHeader(what, std::string(direction) +
                                 " is not flagged compressed but has "
                                 "compressed sections");
    }
}

template <typename T>
std::span<const T>
sectionSpan(std::span<const std::uint8_t> file,
            const GralbSection &section)
{
    return {reinterpret_cast<const T *>(file.data() + section.offset),
            static_cast<std::size_t>(section.bytes / sizeof(T))};
}

/** The raw view of one direction: the mapped sections, or, when the
 *  direction is compressed, @p decoded after decoding into it. */
AdjacencyView
directionView(std::span<const std::uint8_t> file, bool compressed,
              const GralbSection &offsets, const GralbSection &edges,
              const GralbSection &comp_index,
              const GralbSection &comp_blob, Adjacency &decoded,
              const std::string &what)
{
    auto offset_span = sectionSpan<EdgeId>(file, offsets);
    if (!compressed)
        return AdjacencyView(offset_span,
                             sectionSpan<VertexId>(file, edges));
    decoded = decodeAdjacency(offset_span,
                              sectionSpan<std::uint64_t>(file, comp_index),
                              sectionSpan<std::uint8_t>(file, comp_blob),
                              what);
    return decoded;
}

} // namespace

GralbWriteResult
writeGralbFile(const GraphView &graph, const std::string &path,
               const GralbWriteOptions &options)
{
    DirectionPayload out_payload{graph.out().offsets(),
                                 graph.out().edges(),
                                 {}};
    DirectionPayload in_payload{graph.in().offsets(),
                                graph.in().edges(),
                                {}};
    if (options.compressed) {
        out_payload.compressed = compressAdjacency(graph.out());
        in_payload.compressed = compressAdjacency(graph.in());
        out_payload.edges = {};
        in_payload.edges = {};
    }

    GralbHeader header;
    header.flags = options.compressed
                       ? (kGralbOutCompressed | kGralbInCompressed)
                       : 0;
    header.numVertices = graph.numVertices();
    header.numEdges = graph.numEdges();
    header.maxOutDegree = maxDegree(graph, Direction::Out);
    header.maxInDegree = maxDegree(graph, Direction::In);

    std::uint64_t cursor = sizeof(GralbHeader);
    auto placeDirection = [&](const DirectionPayload &payload,
                              GralbSection &offsets,
                              GralbSection &edges,
                              GralbSection &comp_index,
                              GralbSection &comp_blob) {
        offsets = placeSection(
            cursor, payload.offsets.size() * sizeof(EdgeId));
        edges = placeSection(cursor,
                             payload.edges.size() * sizeof(VertexId));
        comp_index = placeSection(cursor,
                                  payload.compressed.byteIndex.size() *
                                      sizeof(std::uint64_t));
        comp_blob = placeSection(cursor,
                                 payload.compressed.blob.size());
    };
    placeDirection(out_payload, header.outOffsets, header.outEdges,
                   header.outCompIndex, header.outCompBlob);
    placeDirection(in_payload, header.inOffsets, header.inEdges,
                   header.inCompIndex, header.inCompBlob);
    header.fileBytes = cursor;

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open " + path);
    out.write(reinterpret_cast<const char *>(&header),
              sizeof(header));
    std::uint64_t written = sizeof(header);
    auto writeDirection = [&](const DirectionPayload &payload,
                              const GralbSection &offsets,
                              const GralbSection &edges,
                              const GralbSection &comp_index,
                              const GralbSection &comp_blob) {
        writeSection(out, written, offsets, payload.offsets.data());
        writeSection(out, written, edges, payload.edges.data());
        writeSection(out, written, comp_index,
                     payload.compressed.byteIndex.data());
        writeSection(out, written, comp_blob,
                     payload.compressed.blob.data());
    };
    writeDirection(out_payload, header.outOffsets, header.outEdges,
                   header.outCompIndex, header.outCompBlob);
    writeDirection(in_payload, header.inOffsets, header.inEdges,
                   header.inCompIndex, header.inCompBlob);
    out.flush();
    if (!out)
        throw std::runtime_error("write failed for " + path);
    GRAL_CHECK(written == header.fileBytes)
        << "gralb writer layout mismatch";

    GralbWriteResult result;
    result.fileBytes = header.fileBytes;
    if (options.compressed && graph.numEdges() > 0) {
        auto blob_bytes = out_payload.compressed.blob.size() +
                          in_payload.compressed.blob.size();
        result.compressedBytesPerEdge =
            static_cast<double>(blob_bytes) /
            static_cast<double>(2 * graph.numEdges());
    }
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
                             "); re-run `gral convert`");
    if (header.endianProbe != kGralbEndianProbe)
        failHeader(what,
                   "endianness mismatch: file was written on a "
                   "machine of different byte order");
    if (header.flags &
        ~(kGralbOutCompressed | kGralbInCompressed))
        failHeader(what, "unknown flag bits " + str(header.flags));
    if (header.numVertices > kInvalidVertex)
        failHeader(what, "vertex count " + str(header.numVertices) +
                             " overflows 32-bit vertex IDs");
    // Every stored edge takes at least one byte (4 raw, >= 1 encoded),
    // which also keeps the edges-section size below from wrapping.
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
    checkSectionInside(header.outCompIndex, actual_file_bytes, what,
                       "out-compressed-index");
    checkSectionInside(header.outCompBlob, actual_file_bytes, what,
                       "out-compressed-blob");
    checkSectionInside(header.inOffsets, actual_file_bytes, what,
                       "in-offsets");
    checkSectionInside(header.inEdges, actual_file_bytes, what,
                       "in-edges");
    checkSectionInside(header.inCompIndex, actual_file_bytes, what,
                       "in-compressed-index");
    checkSectionInside(header.inCompBlob, actual_file_bytes, what,
                       "in-compressed-blob");

    checkDirectionSections(header,
                           (header.flags & kGralbOutCompressed) != 0,
                           header.outOffsets, header.outEdges,
                           header.outCompIndex, header.outCompBlob,
                           what, "out");
    checkDirectionSections(header,
                           (header.flags & kGralbInCompressed) != 0,
                           header.inOffsets, header.inEdges,
                           header.inCompIndex, header.inCompBlob, what,
                           "in");
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

    AdjacencyView out = directionView(
        bytes, (h.flags & kGralbOutCompressed) != 0, h.outOffsets,
        h.outEdges, h.outCompIndex, h.outCompBlob, mapped.decodedOut_,
        path + ": out-adjacency");
    AdjacencyView in = directionView(
        bytes, (h.flags & kGralbInCompressed) != 0, h.inOffsets,
        h.inEdges, h.inCompIndex, h.inCompBlob, mapped.decodedIn_,
        path + ": in-adjacency");
    mapped.view_ = GraphView(out, in);
    return mapped;
}

} // namespace gral
