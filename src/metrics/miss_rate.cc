#include "metrics/miss_rate.h"

#include "cachesim/interleave.h"

namespace gral
{

MissProfileResult
simulateMissProfile(ProducerSet producers,
                    std::span<const EdgeId> owner_degrees,
                    std::span<const EdgeId> accessed_degrees,
                    const SimulationOptions &options)
{
    Cache cache(options.cache);
    if (options.pselSampleEvery != 0 &&
        options.cache.policy == ReplacementPolicy::DRRIP)
        cache.enablePselSampling(options.pselSampleEvery);
    Tlb tlb(options.tlb);
    Tlb *tlb_ptr = options.simulateTlb ? &tlb : nullptr;

    MissProfileResult result;
    result.missesAboveThreshold.assign(options.missThresholds.size(),
                                       0);

    // Per-phase hub views: in-degrees for push targets, out-degrees
    // for pull reads; either falls back to the accessed view.
    std::span<const EdgeId> push_hub_degrees =
        options.pushHubDegrees.empty() ? accessed_degrees
                                       : options.pushHubDegrees;
    std::span<const EdgeId> pull_hub_degrees =
        options.pullHubDegrees.empty() ? accessed_degrees
                                       : options.pullHubDegrees;

    InterleavingScheduler scheduler(std::move(producers),
                                    options.chunkSize);
    ReplayResult replayed = replayStream(
        scheduler, cache, tlb_ptr,
        [&](const MemoryAccess &access, const AccessOutcome &outcome) {
            if (access.dataVertex == kInvalidVertex)
                return; // topology access: not a vertex-data sample
            bool miss = !outcome.cacheHit;
            result.perDegree.add(owner_degrees[access.ownerVertex],
                                 miss ? 1.0 : 0.0);
            ++result.dataAccesses;
            if (miss) {
                ++result.dataMisses;
                EdgeId accessed = accessed_degrees[access.dataVertex];
                for (std::size_t t = 0;
                     t < options.missThresholds.size(); ++t)
                    if (accessed > options.missThresholds[t])
                        ++result.missesAboveThreshold[t];
            }
            if (access.phase == AccessPhase::None)
                return;
            PhaseMissCounters &phase =
                access.phase == AccessPhase::Push ? result.pushPhase
                                                  : result.pullPhase;
            std::span<const EdgeId> hub_degrees =
                access.phase == AccessPhase::Push ? push_hub_degrees
                                                  : pull_hub_degrees;
            ++phase.dataAccesses;
            if (miss)
                ++phase.dataMisses;
            if (options.hubDegreeThreshold != 0 &&
                access.dataVertex < hub_degrees.size() &&
                hub_degrees[access.dataVertex] >
                    options.hubDegreeThreshold) {
                ++phase.hubAccesses;
                if (miss)
                    ++phase.hubMisses;
            }
        },
        0, [](const Cache &) {});

    result.cache = replayed.cache;
    result.pselSamples = cache.pselSamples();
    for (std::size_t c = 0; c < kNumSetClasses; ++c)
        result.classStats[c] =
            cache.classStats(static_cast<SetClass>(c));
    result.tlb = replayed.tlb;
    result.totalAccesses = replayed.accessCount;
    result.peakResidentAccesses = replayed.peakResidentAccesses;
    return result;
}

MissProfileResult
simulateMissProfile(ProducerSet producers,
                    std::span<const EdgeId> degrees,
                    const SimulationOptions &options)
{
    return simulateMissProfile(std::move(producers), degrees, degrees,
                               options);
}

} // namespace gral
