/**
 * @file
 * Streaming-scale demo: simulate an SpMV trace far bigger than memory
 * could hold materialized.
 *
 * A scale-20 RMAT graph (~1M vertices, ~16.8M edges) yields a trace
 * of ~35M memory accesses; at 32 bytes each, materializing it would
 * take over 1 GB. The streaming pipeline keeps only the scheduler's
 * chunk buffer resident — O(numThreads x chunkSize) records — and
 * reports both numbers so the bound is visible.
 *
 * Build & run:  ./build/examples/streaming_scale
 * Environment:  GRAL_RMAT_SCALE overrides the RMAT scale (default 20).
 */

#include <cstdlib>
#include <iostream>

#include "analysis/report.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"

using namespace gral;

int
main()
{
    RMatParams params;
    params.scale = 20;
    if (const char *env = std::getenv("GRAL_RMAT_SCALE"))
        params.scale = static_cast<unsigned>(std::atoi(env));

    std::cout << "generating RMAT scale " << params.scale << "...\n";
    Graph graph = generateRMat(params);
    std::cout << "graph: |V|=" << graph.numVertices()
              << " |E|=" << graph.numEdges() << "\n";

    SimulationOptions sim;
    sim.cache.sizeBytes = 1 * 1024 * 1024; // 1 MB shared L3 stand-in
    sim.cache.associativity = 8;
    sim.simulateTlb = false;

    TraceOptions trace_options;
    auto reuse = degrees(graph, Direction::Out);
    auto profile = simulateMissProfile(
        makePullProducers(graph, trace_options), reuse, sim);

    std::uint64_t materialized =
        profile.totalAccesses * sizeof(MemoryAccess);
    TextTable table({"Streamed replay", "Value"});
    table.addRow({"trace accesses",
                  formatCount(profile.totalAccesses)});
    table.addRow({"peak resident trace memory",
                  formatBytes(profile.peakResidentBytes())});
    table.addRow({"materialized trace would be",
                  formatBytes(materialized)});
    table.addRow({"L3 miss rate %",
                  formatDouble(100.0 * profile.cache.missRate(), 2)});
    table.addRow(
        {"data miss rate %",
         formatDouble(100.0 * profile.dataMissRate(), 2)});
    table.print(std::cout);

    // The bound the pipeline guarantees: the resident set is the
    // scheduler's single chunk buffer, independent of |E|.
    std::uint64_t bound =
        static_cast<std::uint64_t>(sim.chunkSize) *
        sizeof(MemoryAccess);
    std::cout << "\nresident bound: chunk buffer = "
              << formatBytes(bound) << " ("
              << trace_options.numThreads << " threads x "
              << sim.chunkSize << "-access chunks share one buffer)\n";
    return profile.peakResidentBytes() <= bound ? 0 : 1;
}
