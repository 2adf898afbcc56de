#include "kernels/parallel.h"

#include <algorithm>

#include "obs/span.h"

namespace gral
{

namespace
{

/** Copy the per-thread breakdown of one PoolStats batch. */
void
fillPerThread(ParallelResult &result, const PoolStats &stats)
{
    result.idlePercentPerThread.resize(stats.idleFraction.size());
    for (std::size_t t = 0; t < stats.idleFraction.size(); ++t)
        result.idlePercentPerThread[t] = 100.0 * stats.idleFraction[t];
    result.stealsPerThread = stats.stealsPerThread;
    result.tasksPerThread = stats.tasksPerThread;
}

ParallelResult
runPartitioned(const GraphView &graph, Direction direction,
               std::span<const double> src, std::span<double> dst,
               const ParallelOptions &options)
{
    const AdjacencyView &adj =
        direction == Direction::In ? graph.in() : graph.out();
    VertexId num_parts = options.numThreads * options.partitionsPerThread;
    std::vector<VertexRange> parts =
        edgeBalancedPartitions(graph, direction, num_parts);

    WorkStealingPool pool(options.numThreads);
    PoolStats stats = pool.run(parts.size(), [&](std::size_t p) {
        VertexRange range = parts[p];
        for (VertexId v = range.begin; v < range.end; ++v) {
            double sum = 0.0;
            for (VertexId u : adj.neighbours(v))
                sum += src[u];
            dst[v] = sum;
        }
    });

    ParallelResult result;
    result.wallMs = stats.wallMs;
    result.idlePercent = stats.avgIdlePercent();
    result.steals = stats.steals;
    fillPerThread(result, stats);
    return result;
}

} // namespace

double
ParallelResult::maxIdlePercent() const
{
    double worst = 0.0;
    for (double p : idlePercentPerThread)
        worst = std::max(worst, p);
    return worst;
}

ParallelResult
spmvPullParallel(const GraphView &graph, std::span<const double> src,
                 std::span<double> dst, const ParallelOptions &options)
{
    GRAL_SPAN("spmv/pull");
    return runPartitioned(graph, Direction::In, src, dst, options);
}

ParallelResult
readSumParallel(const GraphView &graph, Direction direction,
                std::span<const double> src, std::span<double> dst,
                const ParallelOptions &options)
{
    GRAL_SPAN("spmv/read_sum");
    return runPartitioned(graph, direction, src, dst, options);
}

} // namespace gral
