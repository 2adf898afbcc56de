/**
 * @file
 * Cache-simulation explorer: replay one SpMV trace through a sweep of
 * cache geometries and replacement policies.
 *
 * Shows the trace-driven simulator as a standalone tool: generate the
 * instrumented traversal once, then ask "what if the L3 were twice as
 * big?" or "what does LRU do to this workload?" without touching the
 * traversal again. Also reports the effective cache size (how much
 * capacity actually holds randomly-accessed vertex data).
 *
 * Build & run:  ./build/examples/cache_sim_explorer
 */

#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "cachesim/cache.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "kernels/spmv_kernel.h"
#include "metrics/ecs.h"
#include "metrics/miss_rate.h"

using namespace gral;

int
main()
{
    WebGraphParams params;
    params.numVertices = 40'000;
    params.meanOutDegree = 18.0;
    Graph graph = generateWebGraph(params);
    std::cout << "graph: |V|=" << graph.numVertices()
              << " |E|=" << graph.numEdges() << "\n\n";

    // The instrumented pull SpMV is a set of resumable producers (8
    // simulated threads): each "what if" below regenerates the
    // identical access stream and pipes it straight into the cache
    // model, so no trace is ever materialized.
    TraceOptions trace_options;
    auto reuse = degrees(graph, Direction::Out);

    // Sweep cache capacity at a fixed DRRIP policy.
    TextTable capacity_table(
        {"L3 size", "miss rate %", "data miss rate %", "ECS %"});
    MissProfileResult last_profile;
    for (std::uint64_t kb : {32, 64, 128, 256, 512}) {
        SimulationOptions sim;
        sim.cache.sizeBytes = kb * 1024;
        sim.cache.associativity = 8;
        sim.simulateTlb = false;
        auto profile = simulateMissProfile(
            makePullProducers(graph, trace_options), reuse, sim);

        EcsOptions ecs_options;
        ecs_options.cache = sim.cache;
        ecs_options.scanEvery = 1 << 18;
        auto ecs = effectiveCacheSize(
            makePullProducers(graph, trace_options),
            trace_options.map, ecs_options);

        capacity_table.addRow(
            {std::to_string(kb) + " KB",
             formatDouble(100.0 * profile.cache.missRate(), 1),
             formatDouble(100.0 * profile.dataMissRate(), 1),
             formatDouble(ecs.avgEcsPercent, 1)});
        last_profile = profile;
    }
    std::cout << "trace: " << last_profile.totalAccesses
              << " memory accesses per replay, peak resident "
              << formatBytes(last_profile.peakResidentBytes())
              << "\n\n";
    capacity_table.print(std::cout);
    std::cout << "\n";

    // Sweep replacement policy at a fixed capacity.
    TextTable policy_table({"policy", "miss rate %"});
    for (ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::SRRIP,
          ReplacementPolicy::BRRIP, ReplacementPolicy::DRRIP}) {
        SimulationOptions sim;
        sim.cache.sizeBytes = 128 * 1024;
        sim.cache.associativity = 8;
        sim.cache.policy = policy;
        sim.simulateTlb = false;
        auto profile = simulateMissProfile(
            makePullProducers(graph, trace_options), reuse, sim);
        policy_table.addRow(
            {toString(policy),
             formatDouble(100.0 * profile.cache.missRate(), 1)});
    }
    policy_table.print(std::cout);
    std::cout << "\n";

    // Reuse-distance view of the random accesses: the
    // policy-independent locality profile. A fully-associative LRU
    // cache of C lines hits exactly the accesses whose reuse distance
    // is below C, so one single-set LRU cache per capacity gives the
    // hit-rate curve. Each thread's accesses count in program order
    // (not interleaved): drain the producers one at a time.
    const std::uint64_t capacities[] = {256, 1024, 4096, 16384};
    std::vector<Cache> fully_assoc;
    for (std::uint64_t lines : capacities) {
        CacheConfig config;
        config.sizeBytes = lines * 64;
        config.associativity = static_cast<std::uint32_t>(lines);
        config.lineBytes = 64;
        config.policy = ReplacementPolicy::LRU;
        fully_assoc.emplace_back(config);
    }
    for (auto &producer : makePullProducers(graph, trace_options)) {
        MemoryAccess buffer[1024];
        std::size_t filled;
        while ((filled = producer->fill(buffer)) > 0)
            for (std::size_t i = 0; i < filled; ++i)
                if (buffer[i].region == AccessRegion::DataOld)
                    for (Cache &cache : fully_assoc)
                        cache.access(buffer[i].addr, false);
    }
    std::cout << "vertex-data reuse distances (fully-assoc LRU "
                 "oracle):\n";
    TextTable reuse_table({"capacity (lines)", "hit rate %"});
    for (const Cache &cache : fully_assoc) {
        const CacheStats &stats = cache.stats();
        reuse_table.addRow(
            {formatCount(cache.config().associativity),
             formatDouble(100.0 * static_cast<double>(stats.hits) /
                              static_cast<double>(stats.accesses()),
                          1)});
    }
    reuse_table.print(std::cout);
    return 0;
}
