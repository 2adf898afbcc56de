/**
 * @file
 * `.gralb` — the versioned memory-mapped binary CSR format.
 *
 * Layout (all integers little-endian, header validated on load):
 *
 *     [0..8)    magic "GRALBIN1"
 *     [8..12)   format version (u32, currently 2)
 *     [12..16)  endianness probe 0x01020304 (u32) — a byte-swapped
 *               reader sees 0x04030201 and refuses the file
 *     [16..24)  |V| (u64)      [24..32)  |E| (u64)
 *     [32..40)  max out-degree [40..48)  max in-degree
 *     [48..56)  total file bytes (truncation check)
 *     [56..120) four section descriptors {u64 byte offset, u64 byte
 *               length}: out offsets, out edges, in offsets, in edges
 *     [128..)   section payloads, each 64-byte aligned
 *
 * Both directions are stored as raw arrays (offsets u64[|V|+1], edges
 * u32[|E|]), so nothing is rebuilt or decoded on load: opening is
 * O(1) — map the file, validate the header, point spans at the
 * sections. The section bodies are not checked at open. Version 1
 * files (which could also hold delta+varint directions) are refused
 * with the version error, which says to re-create them from the
 * source graph with `gral convert`.
 *
 * Lifetime: the GraphView returned by MappedGraph::view() points into
 * the mapping, and is valid only while the MappedGraph (or the
 * MappedGraph it was moved into) is alive.
 */

#ifndef GRAL_GRAPH_STORAGE_GRALB_H
#define GRAL_GRAPH_STORAGE_GRALB_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/annotations.h"
#include "graph/storage/mmap_file.h"
#include "graph/types.h"
#include "graph/view.h"

namespace gral
{

/** File magic, first 8 bytes of every `.gralb`. */
inline constexpr std::array<char, 8> kGralbMagic = {'G', 'R', 'A', 'L',
                                                    'B', 'I', 'N', '1'};

/** Current format version. */
inline constexpr std::uint32_t kGralbVersion = 2;

/** Value of the endianness probe when written and read by machines of
 *  the same byte order. */
inline constexpr std::uint32_t kGralbEndianProbe = 0x01020304;

/** Section payload alignment (cache-line friendly, mmap-safe). */
inline constexpr std::size_t kGralbAlignment = 64;

/** Byte range of one section inside the file. */
struct GralbSection
{
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
};

/** On-disk header, mapped 1:1 (fixed-width, little-endian). */
struct GralbHeader
{
    std::array<char, 8> magic = kGralbMagic;
    std::uint32_t version = kGralbVersion;
    std::uint32_t endianProbe = kGralbEndianProbe;
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    std::uint64_t maxOutDegree = 0;
    std::uint64_t maxInDegree = 0;
    std::uint64_t fileBytes = 0;
    GralbSection outOffsets;
    GralbSection outEdges;
    GralbSection inOffsets;
    GralbSection inEdges;
};

static_assert(sizeof(GralbHeader) == 120,
              "GralbHeader layout is the on-disk format; adding a "
              "field means bumping kGralbVersion");

/** What writeGralbFile produced (feeds the scale bench). */
struct GralbWriteResult
{
    std::uint64_t fileBytes = 0;
};

/**
 * Serialize @p graph to @p path.
 * @throws std::runtime_error on I/O failure.
 */
GralbWriteResult writeGralbFile(const GraphView &graph,
                                const std::string &path);

/**
 * Validate an untrusted header against the actual file size: magic,
 * version, endianness, header/section bounds, count consistency.
 * @throws ValidationError naming the file and the first violation.
 */
void validateGralbHeader(const GralbHeader &header,
                         std::uint64_t actual_file_bytes,
                         const std::string &what);

/**
 * A `.gralb` file mapped into memory: the owner of the mapping and
 * of the (cheap) view into it. Moving a MappedGraph keeps its view
 * valid: the mapping moves with it.
 */
class MappedGraph
{
  public:
    /** Map @p path and validate its header and section geometry.
     *  @throws std::runtime_error when the file cannot be mapped,
     *  ValidationError naming @p path when its header or sections
     *  are malformed. */
    static MappedGraph open(const std::string &path);

    /** Topology view (valid while *this lives). */
    const GraphView &view() const GRAL_LIFETIMEBOUND { return view_; }

    /** Parsed header (counts, degrees, sections). */
    const GralbHeader &header() const { return header_; }

    /** Number of vertices |V|. */
    VertexId
    numVertices() const
    {
        return static_cast<VertexId>(header_.numVertices);
    }

    /** Number of directed edges |E|. */
    EdgeId numEdges() const { return header_.numEdges; }

    /** Bytes of the backing file. */
    std::size_t fileBytes() const { return file_.size(); }

  private:
    MmapFile file_;
    GralbHeader header_;
    GraphView view_;
};

} // namespace gral

#endif // GRAL_GRAPH_STORAGE_GRALB_H
