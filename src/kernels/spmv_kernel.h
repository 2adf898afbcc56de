/**
 * @file
 * SpMV as a Kernel: the paper's reference workload behind the generic
 * interface.
 *
 * One pull sweep (Algorithm 1) over the CSC; the producers are exactly
 * the spmv module's instrumented pull producers, so existing results
 * are bit-identical through the kernel layer.
 */

#ifndef GRAL_KERNELS_SPMV_KERNEL_H
#define GRAL_KERNELS_SPMV_KERNEL_H

#include "kernels/kernel.h"

namespace gral
{

/** Pull SpMV (paper Algorithm 1) as an analyzable kernel. */
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

  private:
    ProducerSet buildProducers(const GraphView &graph,
                               const TraceOptions &options) override;
};

} // namespace gral

#endif // GRAL_KERNELS_SPMV_KERNEL_H
