/**
 * @file
 * `.gralb` — the versioned memory-mapped binary CSR format.
 *
 * Layout (all integers little-endian, header validated on load):
 *
 *     [0..8)    magic "GRALBIN1"
 *     [8..12)   format version (u32, currently 1)
 *     [12..16)  endianness probe 0x01020304 (u32) — a byte-swapped
 *               reader sees 0x04030201 and refuses the file
 *     [16..24)  flags (u64): bit 0 = out-adjacency compressed,
 *               bit 1 = in-adjacency compressed
 *     [24..32)  |V| (u64)      [32..40)  |E| (u64)
 *     [40..48)  max out-degree [48..56)  max in-degree
 *     [56..64)  total file bytes (truncation check)
 *     [64..192) eight section descriptors {u64 byte offset, u64 byte
 *               length}: out offsets / out edges / out compressed
 *               index / out compressed blob, then the same four for
 *               the in direction
 *     [192..)   section payloads, each 64-byte aligned
 *
 * Both directions are stored, so nothing is rebuilt on load.
 * Uncompressed sections are raw arrays (offsets u64[|V|+1], edges
 * u32[|E|]); opening them is O(1) — map the file, validate the
 * header, point spans at the sections. Their bodies are not checked
 * at open. Compressed directions store the offsets array *plus* a
 * byte index and varint blob (varint.h) and leave the edges section
 * empty; open checks and decodes each one into an owned Adjacency
 * (O(|V|+|E|)), so MappedGraph::view() is always raw.
 *
 * Lifetime: the GraphView returned by MappedGraph::view() points into
 * the mapping and the decoded arrays, and is valid only while the
 * MappedGraph (or the MappedGraph it was moved into) is alive.
 */

#ifndef GRAL_GRAPH_STORAGE_GRALB_H
#define GRAL_GRAPH_STORAGE_GRALB_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/annotations.h"
#include "graph/csr.h"
#include "graph/storage/mmap_file.h"
#include "graph/types.h"
#include "graph/view.h"

namespace gral
{

/** File magic, first 8 bytes of every `.gralb`. */
inline constexpr std::array<char, 8> kGralbMagic = {'G', 'R', 'A', 'L',
                                                    'B', 'I', 'N', '1'};

/** Current format version. */
inline constexpr std::uint32_t kGralbVersion = 1;

/** Value of the endianness probe when written and read by machines of
 *  the same byte order. */
inline constexpr std::uint32_t kGralbEndianProbe = 0x01020304;

/** Section payload alignment (cache-line friendly, mmap-safe). */
inline constexpr std::size_t kGralbAlignment = 64;

/** Flag bits in GralbHeader::flags. */
inline constexpr std::uint64_t kGralbOutCompressed = 1ULL << 0;
inline constexpr std::uint64_t kGralbInCompressed = 1ULL << 1;

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
    std::uint64_t flags = 0;
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    std::uint64_t maxOutDegree = 0;
    std::uint64_t maxInDegree = 0;
    std::uint64_t fileBytes = 0;
    GralbSection outOffsets;
    GralbSection outEdges;
    GralbSection outCompIndex;
    GralbSection outCompBlob;
    GralbSection inOffsets;
    GralbSection inEdges;
    GralbSection inCompIndex;
    GralbSection inCompBlob;
};

static_assert(sizeof(GralbHeader) == 192,
              "GralbHeader layout is the on-disk format; adding a "
              "field means bumping kGralbVersion");

/** Writer knobs. */
struct GralbWriteOptions
{
    /** Store both adjacencies delta+varint-compressed. */
    bool compressed = false;
};

/** What writeGralbFile produced (feeds the scale bench / metrics). */
struct GralbWriteResult
{
    std::uint64_t fileBytes = 0;
    /** Compressed topology bytes per edge over both directions; 0
     *  when writing uncompressed. */
    double compressedBytesPerEdge = 0.0;
};

/**
 * Serialize @p graph (any uncompressed view) to @p path.
 * @throws std::runtime_error on I/O failure.
 */
GralbWriteResult writeGralbFile(const GraphView &graph,
                                const std::string &path,
                                const GralbWriteOptions &options = {});

/**
 * Validate an untrusted header against the actual file size: magic,
 * version, endianness, header/section bounds, count consistency.
 * @throws ValidationError naming the file and the first violation.
 */
void validateGralbHeader(const GralbHeader &header,
                         std::uint64_t actual_file_bytes,
                         const std::string &what);

/**
 * A `.gralb` file mapped into memory. The owner of the mapping, of
 * the decoded arrays of any compressed direction, and of the (cheap)
 * raw view into them. Moving a MappedGraph keeps its view valid: the
 * mapping and the decoded arrays' heap buffers move with it.
 */
class MappedGraph
{
  public:
    /** Map and validate @p path; decode compressed directions.
     *  @throws std::runtime_error when the file cannot be mapped,
     *  ValidationError naming @p path (and the direction) when its
     *  header, sections or a compressed direction are malformed. */
    static MappedGraph open(const std::string &path);

    /** Raw topology view (valid while *this lives). */
    const GraphView &view() const GRAL_LIFETIMEBOUND { return view_; }

    /** Parsed header (counts, flags, degrees). */
    const GralbHeader &header() const { return header_; }

    /** Number of vertices |V|. */
    VertexId
    numVertices() const
    {
        return static_cast<VertexId>(header_.numVertices);
    }

    /** Number of directed edges |E|. */
    EdgeId numEdges() const { return header_.numEdges; }

    /** True when the file stores either direction varint-compressed
     *  (the header flag; view() is raw either way). */
    bool
    isCompressed() const
    {
        return (header_.flags &
                (kGralbOutCompressed | kGralbInCompressed)) != 0;
    }

    /** Bytes of the backing file. */
    std::size_t fileBytes() const { return file_.size(); }

  private:
    MmapFile file_;
    GralbHeader header_;
    /** Decoded compressed directions (default-empty when raw). */
    Adjacency decodedOut_;
    Adjacency decodedIn_;
    GraphView view_;
};

} // namespace gral

#endif // GRAL_GRAPH_STORAGE_GRALB_H
