/**
 * @file
 * Parallel SpMV over edge-balanced partitions with work stealing.
 *
 * Reproduces the execution model of the paper's hand-optimized
 * framework (Section III-B): contiguous vertex partitions with
 * near-equal edge counts, dealt to worker threads, stolen when a
 * thread runs dry; per-thread idle time reported as in Table IV.
 */

#ifndef GRAL_KERNELS_PARALLEL_H
#define GRAL_KERNELS_PARALLEL_H

#include <span>

#include "graph/view.h"
#include "graph/partition.h"
#include "exec/thread_pool.h"

namespace gral
{

/** Parallel execution knobs. */
struct ParallelOptions
{
    /** Worker threads. */
    unsigned numThreads = 4;
    /** Partitions per thread; more gives the stealer finer grains. */
    unsigned partitionsPerThread = 8;
};

/** Result of one parallel traversal. */
struct ParallelResult
{
    /** Wall-clock traversal time in milliseconds. */
    double wallMs = 0.0;
    /** Average per-thread idle percentage (paper Table IV "Idle"). */
    double idlePercent = 0.0;
    /** Successful steals during the run. */
    std::uint64_t steals = 0;
    /** Per-thread idle percentage (Table IV decomposed). */
    std::vector<double> idlePercentPerThread;
    /** Per-thread successful steals. */
    std::vector<std::uint64_t> stealsPerThread;
    /** Per-thread tasks executed. */
    std::vector<std::uint64_t> tasksPerThread;

    /** Largest per-thread idle percentage (the straggler). */
    double maxIdlePercent() const;
};

/**
 * Parallel pull SpMV: dst[v] = sum of src[u] over in-neighbours.
 * Partitions are contiguous destination ranges, so no two workers
 * write the same element and no synchronization on dst is needed.
 */
ParallelResult spmvPullParallel(const GraphView &graph,
                                std::span<const double> src,
                                std::span<double> dst,
                                const ParallelOptions &options = {});

/**
 * Parallel read-sum traversal in either direction (Table VI): the
 * same read operation applied to CSC (In) or CSR (Out).
 */
ParallelResult readSumParallel(const GraphView &graph, Direction direction,
                               std::span<const double> src,
                               std::span<double> dst,
                               const ParallelOptions &options = {});

} // namespace gral

#endif // GRAL_KERNELS_PARALLEL_H
