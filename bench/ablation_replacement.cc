/**
 * @file
 * Ablation: replacement policy and simulation fidelity.
 *
 * Two design choices of the paper's simulator are ablated here:
 *  1. The replacement policy — the paper implements DRRIP (dueling
 *     SRRIP/BRRIP) to match the Xeon's L3; how different would the
 *     picture look under plain LRU?
 *  2. Simulating only the L3 (the paper's choice, and one source of
 *     its reported 15% absolute error) vs filtering accesses through
 *     private L1/L2 models first.
 */

#include <map>

#include "bench/common.h"
#include "cachesim/hierarchy.h"
#include "cachesim/interleave.h"
#include "graph/degree.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"

using namespace gral;

int
main(int argc, char **argv)
{
    bench::ObsGuard obs_guard(argc, argv);
    bench::banner(
        "Ablation: replacement policy & hierarchy depth",
        "paper Section V-B design choices",
        "policy changes absolute misses but not the RA ranking; "
        "L1/L2 filtering removes most topology-stream hits from the "
        "L3");

    Graph graph = makeDataset("twtr-s", bench::scale());
    TraceOptions trace_options;
    trace_options.numThreads = bench::simThreads();
    auto reuse = degrees(graph, Direction::Out);

    // Part 1: policy sweep. Producers are deterministic, so
    // regenerating them per policy replays the identical access
    // stream without ever holding it in memory.
    TextTable policy_table({"Policy", "L3 misses(M)",
                            "Data miss rate(%)"});
    std::map<std::string, double> by_policy;
    MissProfileResult last;
    for (ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::SRRIP,
          ReplacementPolicy::BRRIP, ReplacementPolicy::DRRIP}) {
        SimulationOptions sim;
        sim.cache = bench::benchCache();
        sim.cache.policy = policy;
        sim.simulateTlb = false;
        auto result = simulateMissProfile(
            makePullProducers(graph, trace_options), reuse, reuse,
            sim);
        by_policy[toString(policy)] =
            static_cast<double>(result.cache.misses);
        policy_table.addRow(
            {toString(policy),
             formatDouble(result.cache.misses / 1e6, 3),
             formatDouble(100.0 * result.dataMissRate(), 1)});
        last = result;
    }
    policy_table.print(std::cout);
    bench::reportTraceMemory(last);
    std::cout << "\n";
    bench::shapeCheck(
        "DRRIP tracks the better of SRRIP/BRRIP (within 10%)",
        by_policy["DRRIP"] <=
            1.10 * std::min(by_policy["SRRIP"], by_policy["BRRIP"]));

    // Part 2: L3-only vs L1+L2+L3 filtering.
    Cache l3_only(bench::benchCache());
    InterleavingScheduler flat_scheduler(
        makePullProducers(graph, trace_options), 1024);
    ReplayResult flat = replayStreamSimple(flat_scheduler, l3_only);

    CacheConfig l1;
    l1.sizeBytes = 8 * 1024;
    l1.associativity = 8;
    l1.policy = ReplacementPolicy::LRU;
    CacheConfig l2;
    l2.sizeBytes = 32 * 1024;
    l2.associativity = 8;
    l2.policy = ReplacementPolicy::LRU;
    CacheHierarchy hierarchy({l1, l2, bench::benchCache()});
    InterleavingScheduler deep_scheduler(
        makePullProducers(graph, trace_options), 1024);
    deep_scheduler.forEach([&](const MemoryAccess &access) {
        hierarchy.access(access.addr, access.size, access.isWrite);
    });

    const CacheStats &filtered = hierarchy.level(2).stats();
    TextTable depth_table(
        {"Model", "L3 accesses(M)", "L3 misses(M)", "L3 miss rate(%)"});
    depth_table.addRow(
        {"L3 only (paper)",
         formatDouble(flat.cache.accesses() / 1e6, 2),
         formatDouble(flat.cache.misses / 1e6, 3),
         formatDouble(100.0 * flat.cache.missRate(), 1)});
    depth_table.addRow(
        {"L1+L2+L3", formatDouble(filtered.accesses() / 1e6, 2),
         formatDouble(filtered.misses / 1e6, 3),
         formatDouble(100.0 * filtered.missRate(), 1)});
    depth_table.print(std::cout);
    std::cout << "\n";
    bench::shapeCheck(
        "L1/L2 filtering removes most L3 accesses",
        filtered.accesses() < flat.cache.accesses() / 2);
    bench::shapeCheck(
        "absolute L3 miss count similar with and without filtering "
        "(within 35%)",
        static_cast<double>(filtered.misses) >
                0.65 * static_cast<double>(flat.cache.misses) &&
            static_cast<double>(filtered.misses) <
                1.35 * static_cast<double>(flat.cache.misses));
    return 0;
}
