/**
 * @file
 * SpMV (paper Algorithm 1): the compute, its instrumented access
 * stream, and the Kernel that analyzes it.
 *
 * SpMV "traverses all edges of the graph which allows it to reveal the
 * maximum improvement provided by RAs" (Section II-B). The pull kernel
 * reads in-neighbour data through the CSC; the read-sum kernels
 * isolate the format (CSC vs CSR) with a common read operation for
 * Table VI.
 *
 * The paper instruments Algorithm 1 "at source code level to call the
 * simulator for every load/store" (Section V-B). Here each simulated
 * thread is a resumable AccessProducer that emits MemoryAccess
 * records over a synthetic address space on demand; the
 * InterleavingScheduler + Cache replay them with O(chunk) resident
 * memory.
 *
 * Every producer walks raw neighbour spans; GraphView has no other
 * kind (a compressed `.gralb` is decoded when it is opened).
 *
 * Address-space model (element sizes per paper Section II-A):
 *  - offsets array: 8-byte elements, sequential accesses,
 *  - edges array:   4-byte elements, sequential, streamed once,
 *  - vertex data:   8-byte elements, random accesses (the RA target).
 */

#ifndef GRAL_KERNELS_SPMV_KERNEL_H
#define GRAL_KERNELS_SPMV_KERNEL_H

#include <span>

#include "graph/degree.h"
#include "kernels/kernel.h"

namespace gral
{

/**
 * Pull SpMV: dst[v] = sum of src[u] over in-neighbours u of v.
 * Random reads, sequential writes (paper Algorithm 1).
 * @pre src.size() == dst.size() == |V|; src and dst distinct.
 */
void spmvPull(const GraphView &graph, std::span<const double> src,
              std::span<double> dst);

/**
 * Read-sum traversal used by Table VI: each vertex sums the data of
 * its neighbours in the chosen direction (In = CSC, Out = CSR); both
 * directions perform the same *read* operation so the comparison
 * isolates the format.
 */
void readSum(const GraphView &graph, Direction direction,
             std::span<const double> src, std::span<double> dst);

/**
 * Streaming *pull* SpMV instrumentation (Algorithm 1): one resumable
 * producer per simulated thread. Per destination vertex v, sequential
 * offsets/edges loads, a random load of dataOld[u] for every
 * in-neighbour u (tagged with u for degree binning), and a sequential
 * store to dataNew[v]. Threads own edge-balanced contiguous
 * destination ranges. @p graph must outlive the producers.
 */
ProducerSet makePullProducers(const GraphView &graph,
                              const TraceOptions &options = {});

/**
 * Streaming *read-sum* instrumentation for Table VI: identical read
 * operation over CSC (In) or CSR (Out) plus the sequential result
 * store, isolating the effect of the format. @p graph must outlive
 * the producers.
 */
ProducerSet makeReadSumProducers(const GraphView &graph,
                                 Direction direction,
                                 const TraceOptions &options = {});

/** Pull SpMV (paper Algorithm 1) as an analyzable kernel: one sweep
 *  over the CSC, streamed by makePullProducers(). */
class SpmvKernel final : public Kernel
{
  public:
    std::string_view name() const override { return "spmv"; }

    /** Full-sweep kernel: relabeling always applies. */
    RelabelingPlan
    plan() const override
    {
        return {Relabeling::kRelabel};
    }

    KernelRunInfo run(const GraphView &graph) override;
    ProducerSet makeProducers(const GraphView &graph,
                              const TraceOptions &options) override;
};

} // namespace gral

#endif // GRAL_KERNELS_SPMV_KERNEL_H
