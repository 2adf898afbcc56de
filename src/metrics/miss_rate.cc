#include "metrics/miss_rate.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "cachesim/interleave.h"
#include "graph/degree.h"

namespace gral
{

namespace
{

/** Bins logDegreeBin can return for a 64-bit degree (it tops out at
 *  58, for degrees of at least 10^19). */
constexpr std::size_t kMaxDegreeBins = 59;

/** Hub-table bits: the data vertex is a hub in that phase's view. */
constexpr std::uint8_t kPushHub = 1;
constexpr std::uint8_t kPullHub = 2;

/** Figure-1 bin of every owner vertex, one byte each. */
std::vector<std::uint8_t>
ownerBinTable(std::span<const EdgeId> owner_degrees)
{
    std::vector<std::uint8_t> bins(owner_degrees.size());
    for (std::size_t v = 0; v < owner_degrees.size(); ++v)
        bins[v] = static_cast<std::uint8_t>(logDegreeBin(owner_degrees[v]));
    return bins;
}

/** kPushHub / kPullHub flags of every data vertex that is a hub in
 *  either view (empty when hub accounting is off). */
std::vector<std::uint8_t>
hubFlagTable(std::span<const EdgeId> push_hub_degrees,
             std::span<const EdgeId> pull_hub_degrees, EdgeId threshold)
{
    std::vector<std::uint8_t> flags;
    if (threshold == 0)
        return flags;
    flags.assign(std::max(push_hub_degrees.size(), pull_hub_degrees.size()),
                 0);
    for (std::size_t v = 0; v < push_hub_degrees.size(); ++v)
        if (push_hub_degrees[v] > threshold)
            flags[v] |= kPushHub;
    for (std::size_t v = 0; v < pull_hub_degrees.size(); ++v)
        if (pull_hub_degrees[v] > threshold)
            flags[v] |= kPullHub;
    return flags;
}

} // namespace

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
    const std::vector<std::uint8_t> hub_flags = hubFlagTable(
        options.pushHubDegrees.empty() ? accessed_degrees
                                       : options.pushHubDegrees,
        options.pullHubDegrees.empty() ? accessed_degrees
                                       : options.pullHubDegrees,
        options.hubDegreeThreshold);
    const std::vector<std::uint8_t> owner_bins =
        ownerBinTable(owner_degrees);
    // Per-bin integer counts, folded into perDegree at the end: a sum
    // of 1.0s below 2^53 equals the integer count exactly.
    std::array<std::uint64_t, kMaxDegreeBins> bin_accesses{};
    std::array<std::uint64_t, kMaxDegreeBins> bin_misses{};

    InterleavingScheduler scheduler(std::move(producers),
                                    options.chunkSize);
    ReplayResult replayed = replayStream(
        scheduler, cache, tlb_ptr,
        [&](const MemoryAccess &access, const AccessOutcome &outcome) {
            if (access.dataVertex == kInvalidVertex)
                return; // topology access: not a vertex-data sample
            const std::uint64_t miss = outcome.cacheHit ? 0 : 1;
            const std::uint8_t bin = owner_bins[access.ownerVertex];
            ++bin_accesses[bin];
            bin_misses[bin] += miss;
            if (miss != 0 && !options.missThresholds.empty()) {
                EdgeId accessed = accessed_degrees[access.dataVertex];
                for (std::size_t t = 0;
                     t < options.missThresholds.size(); ++t)
                    if (accessed > options.missThresholds[t])
                        ++result.missesAboveThreshold[t];
            }
            if (access.phase == AccessPhase::None)
                return;
            const bool push = access.phase == AccessPhase::Push;
            PhaseMissCounters &phase =
                push ? result.pushPhase : result.pullPhase;
            ++phase.dataAccesses;
            phase.dataMisses += miss;
            if (access.dataVertex < hub_flags.size() &&
                (hub_flags[access.dataVertex] &
                 (push ? kPushHub : kPullHub)) != 0) {
                ++phase.hubAccesses;
                phase.hubMisses += miss;
            }
        },
        0, [](const Cache &) {});

    for (std::size_t bin = 0; bin < kMaxDegreeBins; ++bin) {
        if (bin_accesses[bin] == 0)
            continue;
        result.perDegree.add(logDegreeBinLow(bin),
                             static_cast<double>(bin_misses[bin]),
                             bin_accesses[bin]);
        result.dataAccesses += bin_accesses[bin];
        result.dataMisses += bin_misses[bin];
    }
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
