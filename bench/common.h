/**
 * @file
 * Shared configuration of the bench binaries.
 *
 * Every bench reproduces one table or figure of the paper on the
 * synthetic Table-I stand-ins. Because the stand-ins are ~1000x
 * smaller than the originals, the simulated L3 is scaled down with
 * them (128 KB instead of 22 MB) so the ratio of vertex-data size to
 * cache capacity stays in the paper's regime; likewise the DTLB model
 * uses 4 KB pages so the data array spans many pages. Absolute
 * numbers therefore differ from the paper; the *shapes* (who wins,
 * where, and why) are what each bench checks and prints.
 *
 * Environment overrides:
 *  - GRAL_SCALE:    dataset scale factor (default 1.0)
 *  - GRAL_THREADS:  simulated/real thread count (default 8 / 4)
 *  - GRAL_KERNEL:   workload kernel for experiment-based benches
 *                   (spmv | pagerank | bfs | cc, default spmv)
 */

#ifndef GRAL_BENCH_COMMON_H
#define GRAL_BENCH_COMMON_H

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/datasets.h"
#include "analysis/experiment.h"
#include "analysis/report.h"
#include "cachesim/cache.h"
#include "cachesim/tlb.h"
#include "graph/degree.h"
#include "kernels/kernel.h"
#include "kernels/spmv_kernel.h"
#include "metrics/ecs.h"
#include "metrics/miss_rate.h"
#include "obs/export.h"

namespace gral::bench
{

/**
 * RAII telemetry flags for bench binaries: strips
 * --metrics-out=/--trace-out=/--log-level= from the command line at
 * construction (applying the log level immediately) and writes the
 * requested JSON files when the bench returns from main. Unknown
 * arguments are left alone.
 */
class ObsGuard
{
  public:
    ObsGuard(int argc, char **argv)
    {
        std::vector<std::string> args(argv + 1, argv + argc);
        options_ = extractObsFlags(args);
    }

    ObsGuard(const ObsGuard &) = delete;
    ObsGuard &operator=(const ObsGuard &) = delete;

    ~ObsGuard()
    {
        try {
            writeObsFiles(options_);
        } catch (const std::exception &error) {
            std::cerr << "telemetry export failed: " << error.what()
                      << "\n";
        }
    }

  private:
    ObsOptions options_;
};

/** Dataset scale factor (GRAL_SCALE env var, default 1.0). */
inline double
scale()
{
    if (const char *env = std::getenv("GRAL_SCALE"))
        return std::atof(env);
    return 1.0;
}

/** Simulated thread count for trace generation. */
inline unsigned
simThreads()
{
    if (const char *env = std::getenv("GRAL_THREADS"))
        return static_cast<unsigned>(std::atoi(env));
    return 8;
}

/** The scaled stand-in for the paper's shared L3 (22 MB / 11-way /
 *  DRRIP becomes 128 KB / 8-way / DRRIP at bench scale). */
inline CacheConfig
benchCache()
{
    CacheConfig config;
    config.sizeBytes = 128 * 1024;
    config.associativity = 8;
    config.lineBytes = 64;
    config.policy = ReplacementPolicy::DRRIP;
    return config;
}

/** Scaled DTLB: 64 entries of 4 KB pages. */
inline TlbConfig
benchTlb()
{
    TlbConfig config;
    config.entries = 64;
    config.associativity = 4;
    config.pageBytes = 4096;
    return config;
}

/** Real-traversal thread count: capped by the host's cores so the
 *  idle-time column is not dominated by oversubscription. */
inline unsigned
realThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw == 0 ? 1u : hw));
}

/** Workload kernel for experiment-based benches (GRAL_KERNEL env
 *  var, default "spmv" — the paper's kernel). */
inline std::string
benchKernel()
{
    if (const char *env = std::getenv("GRAL_KERNEL"))
        return env;
    return "spmv";
}

/** Experiment options every bench shares. */
inline ExperimentOptions
benchOptions()
{
    ExperimentOptions options;
    options.parallel.numThreads = realThreads();
    options.trace.numThreads = simThreads();
    options.sim.cache = benchCache();
    options.sim.tlb = benchTlb();
    options.sim.chunkSize = 1024;
    options.timingRepeats = 3;
    options.kernel = benchKernel();
    return options;
}

/** The four default datasets (2 social networks + 2 web graphs). */
inline std::vector<std::string>
datasets()
{
    return defaultBenchDatasets();
}

/**
 * Streamed pull-SpMV miss profile of @p graph: producers go straight
 * into the cache model, so trace memory stays O(threads x chunk).
 * Owner degrees are in-degrees (Figure-1 binning), accessed degrees
 * out-degrees (Table-III thresholds) — the pull-traversal convention
 * every bench shares.
 */
inline MissProfileResult
pullMissProfile(const Graph &graph, const SimulationOptions &sim,
                const TraceOptions &trace_options)
{
    std::vector<EdgeId> in_deg = degrees(graph, Direction::In);
    std::vector<EdgeId> out_deg = degrees(graph, Direction::Out);
    return simulateMissProfile(makePullProducers(graph, trace_options),
                               in_deg, out_deg, sim);
}

/** Streamed read-sum miss profile over @p direction (Table VI: CSC
 *  when In, CSR when Out); degree views follow the walked side. */
inline MissProfileResult
readSumMissProfile(const Graph &graph, Direction direction,
                   const SimulationOptions &sim,
                   const TraceOptions &trace_options)
{
    Direction opposite =
        direction == Direction::In ? Direction::Out : Direction::In;
    std::vector<EdgeId> owner_deg = degrees(graph, direction);
    std::vector<EdgeId> accessed_deg = degrees(graph, opposite);
    return simulateMissProfile(
        makeReadSumProducers(graph, direction, trace_options),
        owner_deg, accessed_deg, sim);
}

/**
 * Streamed miss profile of an arbitrary kernel: the kernel-parametric
 * generalization of pullMissProfile(). Degree views follow the
 * pull-traversal convention (owner = in, accessed = out); per-phase
 * hub counters use the paper's sqrt(|V|) threshold with in-degrees
 * classifying push-phase targets and out-degrees pull-phase reads.
 */
inline MissProfileResult
kernelMissProfile(Kernel &kernel, const Graph &graph,
                  SimulationOptions sim,
                  const TraceOptions &trace_options)
{
    std::vector<EdgeId> in_deg = degrees(graph, Direction::In);
    std::vector<EdgeId> out_deg = degrees(graph, Direction::Out);
    if (sim.hubDegreeThreshold == 0)
        sim.hubDegreeThreshold =
            static_cast<EdgeId>(hubThreshold(graph));
    sim.pushHubDegrees = in_deg;
    sim.pullHubDegrees = out_deg;
    return simulateMissProfile(
        kernel.makeProducers(graph, trace_options), in_deg, out_deg,
        sim);
}

/** Nominal work of one traced kernel execution, in edges: what the
 *  throughput baselines divide by. Sweep kernels touch every edge
 *  once per iteration; BFS touches the edges its rounds actually
 *  relaxed or scanned, and CC walks both directions per sweep. */
inline double
kernelEdgeWork(const std::string &kernel, const Graph &graph,
               const KernelRunInfo &info)
{
    double edges = static_cast<double>(graph.numEdges());
    double iters = static_cast<double>(info.iterations);
    if (kernel == "bfs") // one traversal, whatever the round count
        return edges;
    if (kernel == "cc") // each sweep walks in- and out-edges
        return 2.0 * edges * iters;
    return edges * iters;
}

/** Streamed effective-cache-size measurement of a pull traversal. */
inline EcsResult
pullEcs(const Graph &graph, const TraceOptions &trace_options,
        const EcsOptions &ecs_options)
{
    return effectiveCacheSize(makePullProducers(graph, trace_options),
                              trace_options.map, ecs_options);
}

/** Print the streamed-replay memory footprint of a profile next to
 *  what the old materialize-then-replay pipeline would have held. */
inline void
reportTraceMemory(const MissProfileResult &profile)
{
    std::uint64_t materialized =
        profile.totalAccesses * sizeof(MemoryAccess);
    std::cout << "[memory] trace accesses "
              << formatCount(profile.totalAccesses)
              << ", peak resident "
              << formatBytes(profile.peakResidentBytes())
              << " (materialized would be "
              << formatBytes(materialized) << ")\n";
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref,
       const std::string &expected_shape)
{
    std::cout << "=== " << what << " ===\n"
              << "Reproduces: " << paper_ref << "\n"
              << "Expected shape: " << expected_shape << "\n"
              << "(scale=" << scale() << ", datasets are synthetic"
              << " stand-ins; see DESIGN.md)\n\n";
}

/** Print a pass/fail shape-check line. */
inline void
shapeCheck(const std::string &claim, bool holds)
{
    std::cout << "[shape] " << claim << ": "
              << (holds ? "HOLDS" : "DIFFERS") << "\n";
}

} // namespace gral::bench

#endif // GRAL_BENCH_COMMON_H
