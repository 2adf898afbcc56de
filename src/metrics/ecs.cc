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

    // The scan sink decorates the plain replay sink: every scanEvery
    // accesses it walks the cache contents and classifies each valid
    // line by the region of its address.
    CacheReplaySink replay_sink(cache);
    PeriodicScanSink scan_sink(
        replay_sink, cache, options.scanEvery,
        [&](const Cache &snapshot) {
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

    InterleavingScheduler scheduler(std::move(producers),
                                    options.chunkSize);
    scheduler.drainTo(scan_sink);

    if (result.scans > 0) {
        result.avgEcsPercent =
            ecs_sum / static_cast<double>(result.scans);
        result.avgTopologyPercent =
            topo_sum / static_cast<double>(result.scans);
    }
    result.cache = cache.stats();
    result.totalAccesses = replay_sink.accessCount();
    result.peakResidentAccesses = scheduler.peakResidentAccesses();
    return result;
}

} // namespace gral
