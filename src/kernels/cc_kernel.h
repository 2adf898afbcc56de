/**
 * @file
 * Connected components (min-label propagation) as a Kernel.
 *
 * The SpMV-shaped CC formulation: dense sweeps over every edge in
 * both directions until a fixpoint. The access stream walks the
 * primary (in/CSC) and alt (out/CSR) topologies each sweep and reads
 * the single in-place label array; which sweeps store to which
 * vertices depends on runtime state, so the kernel runs the real
 * propagation once, recording a per-sweep changed mask the producers
 * replay. In-direction walks carry AccessPhase::Pull, out-direction
 * walks AccessPhase::Push; the own-label read and the update store
 * are direction-neutral (AccessPhase::None).
 */

#ifndef GRAL_KERNELS_CC_KERNEL_H
#define GRAL_KERNELS_CC_KERNEL_H

#include "common/annotations.h"
#include "kernels/kernel.h"

namespace gral
{

/** Min-label-propagation connected components as a kernel. */
class CcKernel final : public Kernel
{
  public:
    /** @param max_iterations sweep cap (0 = run to the fixpoint). */
    explicit CcKernel(unsigned max_iterations = 0)
        : maxIterations_(max_iterations)
    {
    }

    std::string_view name() const override { return "cc"; }

    /** Full-sweep kernel: relabeling always applies. */
    RelabelingPlan
    plan() const override
    {
        return {Relabeling::kRelabel};
    }

    KernelRunInfo run(const GraphView &graph) override;
    ProducerSet makeProducers(const GraphView &graph,
                              const TraceOptions &options) override;

    /** Final labels of the last prepared graph (runs if needed). */
    const std::vector<VertexId> &labels(const GraphView &graph)
        GRAL_LIFETIMEBOUND;

    /** Components found on the last prepared graph. */
    VertexId numComponents(const GraphView &graph);

  private:
    /** Run the propagation, recording the per-sweep changed masks. */
    void execute(const GraphView &graph);

    /** execute(graph) unless already cached for it. */
    void prepare(const GraphView &graph);

    unsigned maxIterations_;
    std::vector<VertexId> label_;
    /** changed_[i][v] != 0 iff sweep i lowered v's label. */
    std::vector<std::vector<std::uint8_t>> changed_;
    VertexId numComponents_ = 0;
    GraphViewKey prepared_;
};

} // namespace gral

#endif // GRAL_KERNELS_CC_KERNEL_H
