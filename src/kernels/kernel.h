/**
 * @file
 * The kernel concept: a workload the locality pipeline can analyze.
 *
 * The paper studies SpMV because it "traverses all edges of the graph"
 * (Section II-B), but its conclusions are about the workloads SpMV
 * stands in for — PageRank, BFS, connected components. This layer
 * de-welds the locality machinery from SpMV: a Kernel owns its compute
 * loop, produces resumable per-thread AccessProducer streams replaying
 * that loop's memory behaviour, and declares whether an RA's
 * permutation should actually be applied to it (its RelabelingPlan).
 * Everything downstream (cache simulation, miss profiling, ECS, the
 * experiment runner) consumes kernels through this interface and never
 * needs to know which workload it is measuring.
 */

#ifndef GRAL_KERNELS_KERNEL_H
#define GRAL_KERNELS_KERNEL_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cachesim/access_stream.h"
#include "cachesim/address_map.h"
#include "graph/view.h"

namespace gral
{

/**
 * Whether a kernel wants vertex IDs relabeled by the RA's permutation
 * before it runs (idiom after Katana's *Plan types): some workloads
 * always benefit from relabeling (full-sweep kernels), some never do
 * (the permutation cost cannot amortize), and some should decide per
 * graph (direction-optimizing BFS: only its dense phases resemble
 * SpMV, so relabeling pays off only when dense rounds dominate).
 */
enum class Relabeling : std::uint8_t
{
    kRelabel,     ///< always apply the RA's permutation
    kNoRelabel,   ///< never apply it (analyze the original IDs)
    kAutoRelabel, ///< decide per graph via Kernel::shouldRelabel
};

/** A kernel's declared relabeling behaviour. */
struct RelabelingPlan
{
    Relabeling relabeling = Relabeling::kRelabel;
};

/** Summary of one real (untraced) kernel execution. */
struct KernelRunInfo
{
    /** Full-graph sweeps / frontier rounds executed. */
    unsigned iterations = 1;
    /** Kernel-specific scalar for sanity checking (SpMV: sum of the
     *  result vector; PageRank: final L1 delta; BFS: vertices
     *  reached; CC: number of components). */
    double checksum = 0.0;
};

/**
 * One analyzable workload.
 *
 * Contract: makeProducers(graph, options) yields per-simulated-thread
 * streams whose interleaved replay is the memory behaviour of
 * run(graph). Kernels whose access stream depends on runtime state
 * (iteration counts, the BFS tree, per-sweep change sets) execute the
 * real kernel internally first and reconstruct the stream from its
 * result; producers themselves stay O(1)-cursor resumable generators,
 * so the replay's resident trace memory is O(threads + chunk)
 * regardless of stream length.
 *
 * Kernels are stateful (they cache the prepared run for the last
 * graph) and not thread-safe; create one per concurrent pipeline.
 * The graph passed in must outlive any producers made from it.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Registry name ("spmv", "pagerank", "bfs", "cc"). */
    virtual std::string_view name() const = 0;

    /** The kernel's declared relabeling behaviour. */
    virtual RelabelingPlan plan() const { return {}; }

    /**
     * Resolve the plan against a concrete graph: true when the RA's
     * permutation should be applied before analyzing this kernel.
     * kRelabel/kNoRelabel answer directly; kAutoRelabel consults
     * resolveAutoRelabel (which may run the kernel to decide).
     */
    bool shouldRelabel(const GraphView &graph);

    /** Execute the real (untraced) kernel on @p graph. */
    virtual KernelRunInfo run(const GraphView &graph) = 0;

    /**
     * Resumable per-thread producers replaying run(graph)'s memory
     * accesses over the synthetic address space. Self-priming: runs
     * the kernel first when its stream depends on runtime state.
     */
    virtual ProducerSet makeProducers(const GraphView &graph,
                                      const TraceOptions &options) = 0;

  protected:
    /** kAutoRelabel resolution hook (default: relabel). */
    virtual bool resolveAutoRelabel(const GraphView &graph);
};

/** Owning kernel handle. */
using KernelPtr = std::unique_ptr<Kernel>;

/**
 * Create a kernel by registry name (case-sensitive): "spmv",
 * "pagerank", "bfs", "cc".
 *
 * @throws std::invalid_argument for unknown names.
 */
KernelPtr makeKernel(const std::string &name);

/** All canonical names accepted by makeKernel. */
std::vector<std::string> kernelNames();

} // namespace gral

#endif // GRAL_KERNELS_KERNEL_H
