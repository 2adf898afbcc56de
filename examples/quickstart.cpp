/**
 * @file
 * Quickstart: generate a graph, reorder it, and measure what the
 * reordering did to locality.
 *
 * Walks the core API end to end:
 *   1. build a graph (synthetic here; readEdgeListTextFile works the
 *      same way for real datasets),
 *   2. run a reordering algorithm to get a relabeling array,
 *   3. rebuild the graph under the new IDs,
 *   4. compare spatial locality (N2N AID) and simulated cache misses
 *      before and after.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "kernels/spmv_kernel.h"
#include "metrics/aid.h"
#include "metrics/miss_rate.h"
#include "reorder/registry.h"

using namespace gral;

namespace
{

/** Simulated data-miss rate of a pull SpMV over @p graph. */
double
missRate(const Graph &graph)
{
    // Streamed simulation: the instrumented traversal feeds the cache
    // model directly; the access trace is never held in memory.
    TraceOptions trace_options;
    auto reuse = degrees(graph, Direction::Out);
    SimulationOptions sim;
    sim.cache.sizeBytes = 128 * 1024; // scaled-down shared L3
    sim.cache.associativity = 8;
    return simulateMissProfile(makePullProducers(graph, trace_options),
                               reuse, sim)
        .dataMissRate();
}

} // namespace

int
main()
{
    // 1. A small social-network-like graph. For a file on disk:
    //    auto edges = readEdgeListTextFile("graph.txt");
    //    Graph graph = buildGraph(0, edges);
    SocialNetworkParams params;
    params.numVertices = 20'000;
    params.edgesPerVertex = 10;
    Graph graph = generateSocialNetwork(params);
    std::cout << "graph: |V|=" << graph.numVertices()
              << " |E|=" << graph.numEdges()
              << " avg degree=" << graph.averageDegree() << "\n";

    // 2. Reorder. Any of: Bl, Random, DegreeSort, HubSort,
    //    HubCluster, SB, SB++, GO, RO.
    ReordererPtr reorderer = makeReorderer("RO");
    Permutation relabeling = reorderer->reorder(graph);
    std::cout << reorderer->name() << " preprocessing: "
              << reorderer->stats().preprocessSeconds << " s\n";

    // 3. Rebuild CSR/CSC under the new vertex IDs.
    Graph reordered = applyPermutation(graph, relabeling);

    // 4. Did locality improve?
    std::cout << "mean in-AID:   " << meanAid(graph) << " -> "
              << meanAid(reordered) << "\n";
    std::cout << "sim miss rate: " << 100.0 * missRate(graph)
              << "% -> " << 100.0 * missRate(reordered) << "%\n";

    // The traversal the metrics describe:
    KernelRunInfo run = SpmvKernel().run(reordered);
    std::cout << "SpMV sweep done; checksum=" << run.checksum << "\n";
    return 0;
}
