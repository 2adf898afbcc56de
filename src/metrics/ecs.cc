#include "metrics/ecs.h"

#include "cachesim/interleave.h"

namespace gral
{

EcsResult
effectiveCacheSize(ProducerSet producers, const AddressMap &map,
                   const EcsOptions &options)
{
    Cache cache(options.cache);
    const double total_lines = static_cast<double>(
        options.cache.numSets() * options.cache.associativity);

    EcsResult result;
    double ecs_sum = 0.0;
    double topo_sum = 0.0;

    // Every scanEvery accesses, walk the cache contents and classify
    // each valid line by the region of its address.
    InterleavingScheduler scheduler(std::move(producers),
                                    options.chunkSize);
    ReplayResult replayed = replayStream(
        scheduler, cache, nullptr,
        [](const MemoryAccess &, const AccessOutcome &) {},
        options.scanEvery, [&](const Cache &snapshot) {
            std::uint64_t data_lines = 0;
            std::uint64_t topology_lines = 0;
            snapshot.forEachValidLine([&](std::uint64_t line_addr) {
                switch (map.regionOf(line_addr)) {
                  case AccessRegion::DataOld:
                  case AccessRegion::DataNew:
                    ++data_lines;
                    break;
                  case AccessRegion::Offsets:
                  case AccessRegion::EdgesArr:
                    ++topology_lines;
                    break;
                  case AccessRegion::Other:
                    break;
                }
            });
            ecs_sum += 100.0 * static_cast<double>(data_lines) /
                       total_lines;
            topo_sum += 100.0 * static_cast<double>(topology_lines) /
                        total_lines;
            ++result.scans;
        });

    if (result.scans > 0) {
        result.avgEcsPercent =
            ecs_sum / static_cast<double>(result.scans);
        result.avgTopologyPercent =
            topo_sum / static_cast<double>(result.scans);
    }
    result.cache = replayed.cache;
    result.totalAccesses = replayed.accessCount;
    result.peakResidentAccesses = replayed.peakResidentAccesses;
    return result;
}

} // namespace gral
