/**
 * @file
 * PageRank as a Kernel: iterated pull SpMV with convergence.
 *
 * The access stream is the pull sweep repeated once per executed
 * power iteration with ping-pong score buffers — the real run decides
 * how many iterations the trace replays, so the stream length follows
 * the kernel's actual convergence on the analyzed graph.
 */

#ifndef GRAL_KERNELS_PAGERANK_KERNEL_H
#define GRAL_KERNELS_PAGERANK_KERNEL_H

#include <vector>

#include "common/annotations.h"
#include "kernels/kernel.h"

namespace gral
{

/** PageRank parameters. */
struct PageRankOptions
{
    /** Damping factor d. */
    double damping = 0.85;
    /** Maximum iterations. */
    unsigned maxIterations = 100;
    /** Stop when the L1 delta between iterations drops below this. */
    double tolerance = 1e-9;
};

/** PageRank output. */
struct PageRankResult
{
    /** Final scores, summing to ~1. */
    std::vector<double> scores;
    /** Iterations actually executed. */
    unsigned iterations = 0;
    /** L1 delta of the final iteration. */
    double lastDelta = 0.0;
};

/**
 * Power-iteration PageRank in the pull direction (random reads of
 * in-neighbour contributions). Dangling-vertex mass is redistributed
 * uniformly each iteration, so the scores stay a distribution.
 */
PageRankResult pageRank(const GraphView &graph,
                        const PageRankOptions &options = {});

/** Power-iteration PageRank (pull direction) as an analyzable kernel. */
class PageRankKernel final : public Kernel
{
  public:
    /** Trace length is iterations x |E| random reads, so the kernel's
     *  default bounds iterations tighter than the solver's default
     *  while keeping the convergence criterion live. */
    static PageRankOptions
    defaultOptions()
    {
        PageRankOptions options;
        options.maxIterations = 20;
        options.tolerance = 1e-8;
        return options;
    }

    explicit PageRankKernel(
        const PageRankOptions &options = defaultOptions())
        : options_(options)
    {
    }

    std::string_view name() const override { return "pagerank"; }

    /** Full-sweep kernel: relabeling always applies. */
    RelabelingPlan
    plan() const override
    {
        return {Relabeling::kRelabel};
    }

    KernelRunInfo run(const GraphView &graph) override;
    ProducerSet makeProducers(const GraphView &graph,
                              const TraceOptions &options) override;

    /** Solver result of the last prepared graph (runs it if needed). */
    const PageRankResult &result(const GraphView &graph)
        GRAL_LIFETIMEBOUND;

  private:
    /** Run the solver for @p graph unless already cached for it. */
    void prepare(const GraphView &graph);

    PageRankOptions options_;
    PageRankResult result_;
    GraphViewKey prepared_;
};

} // namespace gral

#endif // GRAL_KERNELS_PAGERANK_KERNEL_H
