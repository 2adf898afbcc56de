/**
 * @file
 * Ablation: iHTL flipped-block traversal vs plain pull SpMV
 * (paper Section VIII-A).
 *
 * Section VI-D shows hubs "suffer from a structural problem in
 * relation to locality that cannot be solved by RAs"; iHTL solves it
 * by restructuring the traversal instead: edges into the top in-hubs
 * are processed push-style into a cache-sized accumulator block.
 * Expected shape: misses to in-hub data collapse, total misses drop,
 * and the effective cache size rises (the accumulators *are* random
 * data the cache now usefully holds).
 */

#include "bench/common.h"
#include "graph/degree.h"
#include "kernels/ihtl.h"
#include "metrics/ecs.h"
#include "metrics/miss_rate.h"

using namespace gral;

int
main(int argc, char **argv)
{
    bench::ObsGuard obs_guard(argc, argv);
    bench::banner(
        "Ablation: iHTL vs pull SpMV",
        "paper Section VIII-A (iHTL flipped blocks)",
        "iHTL sharply cuts misses to in-hub data on web graphs and "
        "raises ECS");

    TextTable table({"Dataset", "Hubs", "Flipped edges %",
                     "Hub misses pull", "Hub misses iHTL",
                     "Data miss% pull", "Data miss% iHTL",
                     "ECS% pull", "ECS% iHTL"});

    SimulationOptions sim;
    sim.cache = bench::benchCache();
    sim.simulateTlb = false;

    bool hub_misses_drop = true;
    bool total_not_worse = true;

    for (const std::string &id : bench::datasets()) {
        Graph graph = makeDataset(id, bench::scale());
        sim.missThresholds = {
            static_cast<EdgeId>(hubThreshold(graph))};
        auto in_deg = degrees(graph, Direction::In);

        TraceOptions trace_options;
        trace_options.numThreads = bench::simThreads();

        auto pull = simulateMissProfile(
            makePullProducers(graph, trace_options), in_deg, in_deg,
            sim);
        EcsOptions ecs_options;
        ecs_options.cache = sim.cache;
        ecs_options.scanEvery = 1 << 18;
        auto pull_ecs =
            bench::pullEcs(graph, trace_options, ecs_options);

        IhtlConfig config;
        config.cacheBytes = sim.cache.sizeBytes;
        IhtlGraph ihtl(graph, config);
        auto flipped = simulateMissProfile(
            ihtl.makeTraceProducers(trace_options), in_deg, in_deg,
            sim);
        auto ihtl_ecs = effectiveCacheSize(
            ihtl.makeTraceProducers(trace_options),
            trace_options.map, ecs_options);

        hub_misses_drop =
            hub_misses_drop && flipped.missesAboveThreshold[0] <
                                   pull.missesAboveThreshold[0];
        total_not_worse =
            total_not_worse &&
            static_cast<double>(flipped.dataMisses) <
                1.10 * static_cast<double>(pull.dataMisses);

        table.addRow(
            {id, formatCount(ihtl.numHubs()),
             formatDouble(100.0 *
                              static_cast<double>(
                                  ihtl.flippedEdges()) /
                              static_cast<double>(graph.numEdges()),
                          1),
             formatCount(pull.missesAboveThreshold[0]),
             formatCount(flipped.missesAboveThreshold[0]),
             formatDouble(100.0 * pull.dataMissRate(), 1),
             formatDouble(100.0 * flipped.dataMissRate(), 1),
             formatDouble(pull_ecs.avgEcsPercent, 1),
             formatDouble(ihtl_ecs.avgEcsPercent, 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
    bench::shapeCheck("iHTL reduces misses to in-hub data",
                      hub_misses_drop);
    bench::shapeCheck("iHTL total data misses within 10% or better",
                      total_not_worse);
    return 0;
}
