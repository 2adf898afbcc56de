/**
 * @file
 * Memory-access trace records.
 *
 * The paper's simulator (Section V-B) is trace-based: the SpMV kernel
 * is instrumented at source level to emit every load/store, which the
 * cache model then replays. Each record carries the vertex whose data
 * the access touches (when any) so misses can be binned by degree.
 */

#ifndef GRAL_CACHESIM_TRACE_H
#define GRAL_CACHESIM_TRACE_H

#include <cstdint>

#include "graph/types.h"

namespace gral
{

/** Which logical array an access touches. */
enum class AccessRegion : std::uint8_t
{
    Offsets,   ///< CSC/CSR offsets array (sequential)
    EdgesArr,  ///< CSC/CSR edges array (sequential, streamed once)
    DataOld,   ///< vertex data read in pull / old data in push
    DataNew,   ///< vertex data written
    Other,     ///< anything else
};

/**
 * Traversal direction an access was issued under. Pull phases gather
 * over in-edges (CSC), push phases scatter over out-edges (CSR); the
 * paper's hub analysis (Section VII) contrasts the two, so producers
 * tag every access and the miss profiler keeps per-phase counters.
 * None marks accesses with no traversal direction (e.g. synthetic
 * test records).
 */
enum class AccessPhase : std::uint8_t
{
    None, ///< no direction attributed
    Pull, ///< in-edge gather (CSC walk)
    Push, ///< out-edge scatter (CSR walk)
};

/** One load or store. */
struct MemoryAccess
{
    /** Virtual byte address. */
    std::uint64_t addr = 0;
    /** Vertex whose data this access reads/writes; kInvalidVertex for
     *  topology accesses. Table III counts misses by this vertex's
     *  degree ("misses for accessing data of vertices with
     *  degree > M"). */
    VertexId dataVertex = kInvalidVertex;
    /** Vertex being *processed* when the access was issued (the
     *  destination v of the paper's Algorithm 1 loop). Figure 1 bins
     *  miss rates by this vertex's degree. */
    VertexId ownerVertex = kInvalidVertex;
    /** Access width in bytes. */
    std::uint8_t size = 8;
    /** True for stores. */
    bool isWrite = false;
    /** Logical array classification (drives the ECS scanner). */
    AccessRegion region = AccessRegion::Other;
    /** Traversal direction the access was issued under (drives the
     *  per-phase hub miss counters). */
    AccessPhase phase = AccessPhase::None;

    friend bool operator==(const MemoryAccess &,
                           const MemoryAccess &) = default;
};

} // namespace gral

#endif // GRAL_CACHESIM_TRACE_H
