/**
 * @file
 * Simulated cache-miss-rate degree distribution (paper Section V-B,
 * Figure 1) and hub miss counting (Table III).
 *
 * The instrumented traversal's traces are replayed through the L3
 * model with round-robin interleaving; every random vertex-data
 * access is then attributed to the *reuse degree* of the vertex whose
 * data it touches (out-degree in a pull traversal: data of u is read
 * once per out-neighbour of u), yielding the per-degree miss rate the
 * paper uses to compare how RAs treat LDV, HDV and hubs.
 */

#ifndef GRAL_METRICS_MISS_RATE_H
#define GRAL_METRICS_MISS_RATE_H

#include <span>
#include <vector>

#include "cachesim/access_stream.h"
#include "cachesim/cache.h"
#include "cachesim/tlb.h"
#include "cachesim/trace.h"
#include "metrics/distribution.h"

namespace gral
{

/** Knobs of a miss-profile simulation. */
struct SimulationOptions
{
    /** Cache model (the paper's shared-L3 DRRIP config by default). */
    CacheConfig cache = paperL3Config();
    /** TLB model; set simulateTlb = false to skip. */
    TlbConfig tlb = tlb2mConfig();
    bool simulateTlb = true;
    /** Round-robin interleave chunk (accesses per thread turn). */
    std::size_t chunkSize = 1024;
    /** Degree thresholds for Table-III-style "misses to data of
     *  vertices with degree > M" counters. */
    std::vector<EdgeId> missThresholds;
    /** Sample the DRRIP PSEL counter every this many accesses
     *  (0 disables). Bounded via Cache::enablePselSampling, so long
     *  replays decimate rather than grow. */
    std::uint64_t pselSampleEvery = 4096;
    /** Hub threshold for the per-phase (push/pull) counters: a data
     *  access whose hub-view degree strictly exceeds this counts as a
     *  hub access. 0 disables per-phase hub accounting (the phase
     *  access/miss totals are still kept). The paper's convention is
     *  sqrt(|V|) (Section II-A). */
    EdgeId hubDegreeThreshold = 0;
    /** Degree view classifying push-phase hub accesses: a push phase
     *  scatters to its target's accumulator, whose reuse count is the
     *  *in*-degree, so pass in-degrees here. Empty falls back to the
     *  accessed_degrees argument. Must outlive the simulation call. */
    std::span<const EdgeId> pushHubDegrees;
    /** Degree view classifying pull-phase hub accesses: a pull phase
     *  reads neighbour data reused once per *out*-edge, so pass
     *  out-degrees here. Empty falls back to accessed_degrees. */
    std::span<const EdgeId> pullHubDegrees;
};

/**
 * Vertex-data counters of one traversal direction (paper Section VII:
 * hubs behave differently under push and pull). Filled per
 * AccessPhase tag; untagged (None) accesses are counted in neither.
 */
struct PhaseMissCounters
{
    /** Vertex-data accesses issued under this phase. */
    std::uint64_t dataAccesses = 0;
    /** Misses among them. */
    std::uint64_t dataMisses = 0;
    /** Accesses whose hub-view degree exceeds the threshold. */
    std::uint64_t hubAccesses = 0;
    /** Misses among the hub accesses. */
    std::uint64_t hubMisses = 0;

    /** Miss rate of this phase's vertex-data accesses. */
    double
    missRate() const
    {
        return dataAccesses == 0
                   ? 0.0
                   : static_cast<double>(dataMisses) /
                         static_cast<double>(dataAccesses);
    }

    /** Miss rate of this phase's hub accesses. */
    double
    hubMissRate() const
    {
        return hubAccesses == 0
                   ? 0.0
                   : static_cast<double>(hubMisses) /
                         static_cast<double>(hubAccesses);
    }
};

/** Output of simulateMissProfile. */
struct MissProfileResult
{
    /** Per-degree-bin distribution of vertex-data accesses, binned by
     *  the degree of the vertex being *processed* (Figure 1's x
     *  axis); each sample value is 1 for a miss and 0 for a hit, so a
     *  bin's mean() is its miss rate. */
    DegreeBinnedAccumulator perDegree;
    /** Aggregate cache counters (all regions). */
    CacheStats cache;
    /** Aggregate TLB counters (when enabled). */
    TlbStats tlb;
    /** Misses on vertex-data accesses only. */
    std::uint64_t dataMisses = 0;
    /** Vertex-data accesses observed. */
    std::uint64_t dataAccesses = 0;
    /** missThresholds-aligned counts of data misses to vertices whose
     *  *accessed-vertex* degree strictly exceeds the threshold (the
     *  paper's Table III: "misses for accessing data of vertices with
     *  degree > Min. Degree"). */
    std::vector<std::uint64_t> missesAboveThreshold;
    /** Accesses replayed (all regions). */
    std::uint64_t totalAccesses = 0;
    /** Sampled DRRIP PSEL trajectory (empty when sampling disabled or
     *  the policy is not DRRIP). */
    std::vector<PselSample> pselSamples;
    /** Push-phase (out-edge scatter) vertex-data counters. */
    PhaseMissCounters pushPhase;
    /** Pull-phase (in-edge gather) vertex-data counters. */
    PhaseMissCounters pullPhase;
    /** Per-set-dueling-class counters, indexed by SetClass. */
    CacheStats classStats[kNumSetClasses];
    /** Peak MemoryAccess records resident during the replay: the
     *  scheduler's chunk buffer, at most SimulationOptions::chunkSize. */
    std::uint64_t peakResidentAccesses = 0;

    /** peakResidentAccesses in bytes. */
    std::uint64_t
    peakResidentBytes() const
    {
        return peakResidentAccesses * sizeof(MemoryAccess);
    }

    /** Overall miss rate of vertex-data accesses. */
    double
    dataMissRate() const
    {
        return dataAccesses == 0
                   ? 0.0
                   : static_cast<double>(dataMisses) /
                         static_cast<double>(dataAccesses);
    }
};

/**
 * Stream per-thread @p producers through the round-robin scheduler
 * into a fresh cache (and TLB) and profile misses by degree. The
 * trace is never materialized: peak resident trace memory is
 * O(options.chunkSize) instead of O(total accesses).
 *
 * Two degree views are used, matching how the paper reads its two
 * artefacts: Figure 1 bins each access by the degree of the vertex
 * being *processed* (ownerVertex — in-degree of v in a pull
 * traversal), while Table III counts misses by the degree of the
 * vertex whose data was *accessed* (dataVertex — out-degree of u in a
 * pull traversal, its reuse count).
 *
 * @param producers        one instrumented stream per simulated
 *                         thread (consumed).
 * @param owner_degrees    degree per vertex for the Figure-1 binning,
 *                         indexed by MemoryAccess::ownerVertex.
 * @param accessed_degrees degree per vertex for the Table-III
 *                         thresholds, indexed by
 *                         MemoryAccess::dataVertex.
 * @param options          simulation knobs.
 */
MissProfileResult simulateMissProfile(
    ProducerSet producers, std::span<const EdgeId> owner_degrees,
    std::span<const EdgeId> accessed_degrees,
    const SimulationOptions &options = {});

/** Convenience overload: one degree view for both purposes. */
MissProfileResult simulateMissProfile(
    ProducerSet producers, std::span<const EdgeId> degrees,
    const SimulationOptions &options = {});

} // namespace gral

#endif // GRAL_METRICS_MISS_RATE_H
