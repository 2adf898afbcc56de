/**
 * @file
 * Direction-optimizing BFS as a Kernel.
 *
 * BFS "selectively traverses edges" (paper Section II-B), so its
 * access stream depends on runtime state: which rounds ran sparse
 * (push, CSR) or dense (pull, CSC) and which vertices each round
 * touched. The kernel runs the real BFS once, then reconstructs the
 * exact per-round stream from its final state — distances are
 * assigned exactly once and never change, so the frontier of round r
 * is precisely the set of vertices with final distance r-1, and the
 * pull scan's early exit is reproducible from final distances alone.
 * Push-round accesses walk the primary topology regions and carry
 * AccessPhase::Push; pull rounds walk the alt topology and carry
 * AccessPhase::Pull, which is what splits the hub miss counters by
 * direction (paper Section VII).
 */

#ifndef GRAL_KERNELS_BFS_KERNEL_H
#define GRAL_KERNELS_BFS_KERNEL_H

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "kernels/kernel.h"

namespace gral
{

/** Distance value for unreachable vertices. */
inline constexpr std::uint32_t kUnreached = 0xffffffffu;

/** BFS output. */
struct BfsResult
{
    /** Hop distance from the source (kUnreached if not reached). */
    std::vector<std::uint32_t> distance;
    /** BFS parent (kInvalidVertex for source/unreached). */
    std::vector<VertexId> parent;
    /** Direction taken per executed round: roundDense[d] is nonzero
     *  when round d+1 (producing depth-(d+1) vertices) ran dense
     *  (pull). Lets a replay reconstruct the exact access stream of
     *  the traversal from its final state. */
    std::vector<std::uint8_t> roundDense;
    /** Vertices reached (including the source). */
    VertexId reached = 0;
    /** Edges relaxed in sparse (push) rounds. */
    EdgeId sparseEdges = 0;
    /** Edges scanned in dense (pull) rounds. */
    EdgeId denseEdges = 0;
    /** Number of dense rounds (the paper's "dense phases"). */
    unsigned denseRounds = 0;
};

/** Frontier-processing strategy. */
enum class BfsMode : std::uint8_t
{
    /** Beamer-style push/pull switching on frontier edge count. */
    DirectionOptimizing,
    /** Always relax the frontier's out-edges (sparse). */
    PushOnly,
    /** Always scan unreached vertices' in-edges (dense). */
    PullOnly,
};

/** Direction-optimizing BFS knobs. */
struct BfsOptions
{
    /** Switch to the dense (pull) phase when the frontier holds more
     *  than |E| / denseThreshold unexplored edges. */
    EdgeId denseThreshold = 20;
    /** Frontier-processing strategy. */
    BfsMode mode = BfsMode::DirectionOptimizing;
};

/**
 * Direction-optimizing BFS over the out-adjacency from @p source.
 * @pre source < graph.numVertices().
 */
BfsResult bfs(const GraphView &graph, VertexId source,
              const BfsOptions &options = {});

/** Direction-optimizing BFS as an analyzable kernel. */
class BfsKernel final : public Kernel
{
  public:
    /**
     * @param source  BFS source; kInvalidVertex (default) picks the
     *                highest-out-degree vertex (lowest ID on ties).
     * @param options frontier strategy and dense threshold — PushOnly
     *                / PullOnly force a single-direction traversal.
     */
    explicit BfsKernel(VertexId source = kInvalidVertex,
                       const BfsOptions &options = {})
        : options_(options), source_(source)
    {
    }

    std::string_view name() const override { return "bfs"; }

    /** Frontier kernel: whether relabeling pays off depends on how
     *  much of the traversal runs dense, so decide per graph. */
    RelabelingPlan
    plan() const override
    {
        return {Relabeling::kAutoRelabel};
    }

    KernelRunInfo run(const GraphView &graph) override;
    ProducerSet makeProducers(const GraphView &graph,
                              const TraceOptions &options) override;

    /** Traversal result of the last prepared graph (runs if needed). */
    const BfsResult &result(const GraphView &graph) GRAL_LIFETIMEBOUND;

  protected:
    /** Relabel iff the traversal is dominated by dense (SpMV-shaped)
     *  rounds: denseEdges >= sparseEdges on this graph. */
    bool resolveAutoRelabel(const GraphView &graph) override;

  private:
    /** Run the traversal and rebuild the depth buckets. */
    void execute(const GraphView &graph);

    /** execute(graph) unless already cached for it. */
    void prepare(const GraphView &graph);

    BfsOptions options_;
    VertexId source_;
    VertexId resolvedSource_ = kInvalidVertex;
    BfsResult bfs_;
    /** Reached vertices counting-sorted by distance; bucket d is
     *  byDepth_[depthOffsets_[d] .. depthOffsets_[d + 1]). */
    std::vector<VertexId> byDepth_;
    std::vector<std::size_t> depthOffsets_;
    GraphViewKey prepared_;
};

} // namespace gral

#endif // GRAL_KERNELS_BFS_KERNEL_H
