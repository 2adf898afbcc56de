/**
 * @file
 * Effective Cache Size (ECS) — paper Section VI-F, Table V.
 *
 * ECS is "the percentage of cache capacity dedicated to caching
 * randomly accessed data": in SpMV, the share of cache lines holding
 * vertex data (Di) rather than sequentially-streamed topology data.
 * It is measured by functional simulation, periodically scanning the
 * cache contents during the traversal and classifying each valid line
 * by the region its address belongs to.
 */

#ifndef GRAL_METRICS_ECS_H
#define GRAL_METRICS_ECS_H

#include "cachesim/access_stream.h"
#include "cachesim/address_map.h"
#include "cachesim/cache.h"
#include "cachesim/trace.h"

namespace gral
{

/** Knobs of an ECS measurement. */
struct EcsOptions
{
    /** Cache model to scan. */
    CacheConfig cache = paperL3Config();
    /** Round-robin interleave chunk. */
    std::size_t chunkSize = 1024;
    /** Scan the cache every this many accesses. */
    std::uint64_t scanEvery = 1 << 20;
};

/** Output of effectiveCacheSize. */
struct EcsResult
{
    /** Average over scans of (vertex-data lines / total lines) x 100
     *  — the Table V number. */
    double avgEcsPercent = 0.0;
    /** Average percentage of lines holding topology data. */
    double avgTopologyPercent = 0.0;
    /** Number of scans performed. */
    std::uint64_t scans = 0;
    /** Aggregate cache counters for the run. */
    CacheStats cache;
    /** Accesses replayed. */
    std::uint64_t totalAccesses = 0;
    /** Peak MemoryAccess records resident during the replay: the
     *  scheduler's chunk buffer, at most EcsOptions::chunkSize. */
    std::uint64_t peakResidentAccesses = 0;

    /** peakResidentAccesses in bytes. */
    std::uint64_t
    peakResidentBytes() const
    {
        return peakResidentAccesses * sizeof(MemoryAccess);
    }
};

/**
 * Replay @p producers and measure the effective cache size. The
 * stream goes through replayStream with a periodic scan hook and is
 * never materialized.
 *
 * @param producers instrumented traversal streams (consumed).
 * @param map       the address layout the producers emit in
 *                  (classifies scanned lines into data vs topology).
 * @param options   measurement knobs.
 */
EcsResult effectiveCacheSize(ProducerSet producers,
                             const AddressMap &map,
                             const EcsOptions &options = {});

} // namespace gral

#endif // GRAL_METRICS_ECS_H
