/**
 * @file
 * End-to-end experiment runner: reorder, rebuild, run, simulate.
 *
 * Encapsulates the pipeline every bench shares (paper Section III):
 * apply an RA to a dataset, rebuild CSR/CSC, run the chosen kernel
 * (SpMV is timed via the parallel engine — Table IV "Time"/"Idle" —
 * the other kernels via best-of repeated runs), and replay the
 * kernel's instrumented trace through the L3/DTLB models (Table IV
 * "L3 Misses"/"DTLB Misses", Figure 1). The kernel axis is generic:
 * any registered kernel (spmv, pagerank, bfs, cc) can be analyzed
 * against any registered RA.
 */

#ifndef GRAL_ANALYSIS_EXPERIMENT_H
#define GRAL_ANALYSIS_EXPERIMENT_H

#include <string>

#include "graph/view.h"
#include "kernels/kernel.h"
#include "kernels/parallel.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"
#include "obs/perf/counters.h"
#include "reorder/reorderer.h"

namespace gral
{

/** Knobs shared by the experiment pipeline. */
struct ExperimentOptions
{
    /** Workload to analyze (a makeKernel registry name). */
    std::string kernel = "spmv";
    /** Real-execution traversal settings (spmv timing only). */
    ParallelOptions parallel;
    /** Trace generation settings (simulated thread count). */
    TraceOptions trace;
    /** Cache/TLB simulation settings. A zero hubDegreeThreshold is
     *  resolved to the paper's sqrt(|V|) per graph; empty per-phase
     *  hub degree views are filled with the graph's in-degrees (push)
     *  and out-degrees (pull). */
    SimulationOptions sim;
    /** Timed traversal repetitions; the best (minimum) is reported,
     *  after one untimed warm-up. */
    unsigned timingRepeats = 3;
    /** Skip the wall-clock traversal (simulation only). */
    bool runTiming = true;
    /** Skip the cache simulation (timing only). */
    bool runSimulation = true;
    /** Measure hardware counters around the real traversal and report
     *  the measured LLC miss rate next to the simulated one
     *  (`--hw-counters`). Degrades per the obs/perf backend ladder:
     *  the reading is explicitly invalid when perf is unreachable,
     *  never zero-filled. */
    bool hwCounters = false;
};

/** Everything measured for one (dataset, kernel, RA) cell. */
struct RaExperimentResult
{
    /** RA name as given. */
    std::string ra;
    /** Kernel name as given. */
    std::string kernel;
    /** Whether the RA's permutation was actually applied (false when
     *  the kernel's RelabelingPlan declined it for this graph). */
    bool relabeled = true;
    /** Preprocessing cost (paper Table II). */
    ReorderStats reorderStats;
    /** Real (untraced) kernel run summary. */
    KernelRunInfo kernelRun;
    /** Best kernel wall time, milliseconds (parallel pull SpMV for
     *  spmv, best-of sequential runs otherwise). */
    double traversalMs = 0.0;
    /** Average per-thread idle percentage (spmv timing only). */
    double idlePercent = 0.0;
    /** Full per-thread detail of the best timed traversal (idle
     *  breakdown, steals, tasks — Table IV decomposed; spmv only). */
    ParallelResult traversal;
    /** Simulated L3/DTLB counters and per-degree miss profile. */
    MissProfileResult profile;
    /** Measured hardware counters over the timed traversal (only when
     *  ExperimentOptions::hwCounters; default-invalid otherwise). For
     *  spmv this aggregates the per-worker groups the thread pool
     *  attaches; for sequential kernels it is the best timed run's
     *  group reading on the running thread. */
    PerfGroupReading hw;
    /** Delta+varint compressed topology bytes per edge of the
     *  traversed (relabeled) graph, averaged over both adjacency
     *  directions (compressedBytesPerEdge, graph/storage/varint.h) —
     *  a storage-level locality metric: the better the RA clusters
     *  neighbour IDs, the smaller the deltas and the fewer bytes each
     *  edge costs. One O(|E|) encoding pass per cell. */
    double compressedBytesPerEdge = 0.0;
};

/**
 * Apply the RA named @p ra_name to @p base and return the relabeled
 * graph; preprocessing stats go to @p stats when non-null.
 */
Graph reorderedGraph(const GraphView &base, const std::string &ra_name,
                     ReorderStats *stats = nullptr);

/**
 * Time the parallel pull SpMV on @p graph: one warm-up run plus
 * @p repeats timed runs; returns the minimum wall time (ms) and
 * stores the matching idle percentage in @p idle_percent. When
 * @p detail is non-null, the full ParallelResult of the best run is
 * copied there. When @p hw is non-null (and collection is enabled),
 * the per-worker perf groups attached by the thread pool are
 * aggregated over the timed repeats into one reading — the work runs
 * on pool threads, so a calling-thread group would count nothing.
 */
double timePullSpmv(const GraphView &graph, const ParallelOptions &options,
                    unsigned repeats, double *idle_percent,
                    ParallelResult *detail = nullptr,
                    PerfGroupReading *hw = nullptr);

/**
 * Time @p kernel's real (untraced) run on @p graph: one warm-up plus
 * @p repeats timed runs; returns the minimum wall time (ms). Used for
 * every kernel without a dedicated parallel engine. When @p hw is
 * non-null a perf group counts each timed run on the calling thread
 * and the best (fastest) run's reading is kept.
 */
double timeKernelRun(Kernel &kernel, const GraphView &graph,
                     unsigned repeats,
                     PerfGroupReading *hw = nullptr);

/**
 * Publish one cell's measurements into the global MetricsRegistry
 * under "experiment/<kernel>/<RA>/...": preprocessing/traversal
 * gauges, a per-thread idle-percent histogram and steal histogram,
 * per-set-class L3 miss-rate gauges, per-phase (push/pull) data and
 * hub miss-rate gauges, and the sampled DRRIP PSEL trajectory as a
 * series. Drives the --metrics-out JSON report of `gral experiment`.
 * Hardware-counter gauges (hw_llc_miss_rate, hw_cycles, ...) sit
 * next to the simulated ones; unavailable values export as -1 with
 * hw_valid = 0 so the two can never be confused.
 */
void recordExperimentMetrics(const RaExperimentResult &result);

/**
 * Full pipeline for one (kernel, RA) cell on one dataset.
 * The miss profile bins vertex-data accesses by the *in*-degree of
 * the processed vertex (Figure 1's x axis); the Table-III threshold
 * counters use the accessed vertex's out-degree (its reuse count).
 * Per-phase hub counters use in-degrees for push-phase accesses and
 * out-degrees for pull-phase accesses, threshold sqrt(|V|) unless
 * overridden in options.sim.
 */
RaExperimentResult runRaExperiment(const GraphView &base,
                                   const std::string &ra_name,
                                   const ExperimentOptions &options = {});

} // namespace gral

#endif // GRAL_ANALYSIS_EXPERIMENT_H
