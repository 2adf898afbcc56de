/**
 * @file
 * iHTL — in-Hub Temporal Locality SpMV (paper Section VIII-A).
 *
 * RAs cannot fix the locality of hubs (Section VI-D), so iHTL
 * restructures the *traversal* instead of the vertex IDs: edges into
 * the strongest in-hubs form a dense "flipped block" processed in
 * push direction (the hub accumulators stay resident in cache since
 * their number is chosen from the cache size), while the remaining
 * sparse block is processed in the usual pull direction. "In contrast
 * to RAs that are not able to effectively utilize cache, iHTL
 * specifies the number of in-hubs by considering the cache size."
 */

#ifndef GRAL_KERNELS_IHTL_H
#define GRAL_KERNELS_IHTL_H

#include <span>
#include <vector>

#include "cachesim/access_stream.h"
#include "cachesim/address_map.h"
#include "graph/degree.h"
#include "graph/view.h"

namespace gral
{

/** iHTL build parameters. */
struct IhtlConfig
{
    /** Cache capacity the flipped block is sized for. */
    std::uint64_t cacheBytes = 128 * 1024;
    /** Fraction of that capacity to dedicate to hub accumulators. */
    double cacheFraction = 0.5;
    /** Explicit hub count; 0 derives it from the cache size. */
    VertexId numHubs = 0;
};

/**
 * A graph pre-split for iHTL traversal: a flipped block of edges into
 * the selected in-hubs (stored source-major for push processing) plus
 * the sparse CSC remainder (processed pull).
 */
class IhtlGraph
{
  public:
    /** Split @p graph according to @p config. The storage behind
     *  @p graph must outlive this object (the view is kept). */
    IhtlGraph(const GraphView &graph, const IhtlConfig &config = {});

    /** Number of in-hubs in the flipped block. */
    VertexId numHubs() const { return hubs_.size(); }

    /** IDs of the selected in-hubs (descending in-degree). */
    std::span<const VertexId> hubs() const { return hubs_; }

    /** Edges routed through the flipped block. */
    EdgeId flippedEdges() const { return flipped_.numEdges(); }

    /** Edges left in the sparse pull block. */
    EdgeId sparseEdges() const { return sparse_.numEdges(); }

    /** Whether @p v is one of the selected hubs. */
    bool isHub(VertexId v) const { return hubIndex_[v] != kInvalidVertex; }

    /**
     * Full SpMV: dst[v] = sum of src[u] over in-neighbours of v —
     * identical result to spmvPull(graph, ...), computed as one push
     * pass over the flipped block plus one pull pass over the sparse
     * block.
     */
    void spmv(std::span<const double> src,
              std::span<double> dst) const;

    /**
     * Streaming instrumented iHTL traversal, comparable to
     * makePullProducers() of the unsplit graph: the flipped-block
     * writes go to a compact hub-accumulator region that fits in
     * cache. One resumable producer per simulated thread; this
     * IhtlGraph must outlive them.
     */
    ProducerSet makeTraceProducers(
        const TraceOptions &options = {}) const;

  private:
    GraphView graph_;
    std::vector<VertexId> hubs_;     ///< selected hub IDs
    std::vector<VertexId> hubIndex_; ///< vertex -> dense hub slot
    Adjacency flipped_;              ///< source -> hub slots (CSR)
    Adjacency sparse_;               ///< vertex -> non-hub in-nbrs
};

} // namespace gral

#endif // GRAL_KERNELS_IHTL_H
