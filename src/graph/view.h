/**
 * @file
 * Non-owning storage-agnostic views of CSR/CSC topology.
 *
 * A GraphView separates *storage* from *access*: kernels, trace
 * producers, metrics and reorderers consume a view and never care
 * whether the arrays live in a Graph's heap vectors or inside a
 * memory-mapped `.gralb` file (graph/storage/gralb.h). Every view is
 * raw: an offsets span and an edges span per direction, the same
 * zero-copy span API as Adjacency. Delta+varint compression is only
 * measured (graph/storage/varint.h), never stored or traversed.
 *
 * Views are cheap value types (a handful of spans): store them by
 * value, never keep a reference to a temporary view. The storage a
 * view was made from must outlive every use of the view.
 */

#ifndef GRAL_GRAPH_VIEW_H
#define GRAL_GRAPH_VIEW_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace gral
{

/**
 * One direction of a graph's topology, storage-agnostic: an offsets
 * span (|V|+1 entries) plus an edges span (|E| vertex IDs, each
 * neighbour list sorted ascending).
 */
class AdjacencyView
{
  public:
    /** Empty view over zero vertices. */
    AdjacencyView() = default;

    /** View over prepared arrays.
     *  @pre offsets non-empty, offsets.back() == edges.size(). */
    AdjacencyView(std::span<const EdgeId> offsets,
                  std::span<const VertexId> edges)
        : offsets_(offsets), edges_(edges)
    {
        GRAL_DCHECK(!offsets.empty() && offsets.back() == edges.size())
            << "AdjacencyView: offsets/edges mismatch";
    }

    /** View of an in-memory Adjacency (implicit: any Adjacency is
     *  usable wherever a view is expected). */
    /* implicit */ AdjacencyView(
        const Adjacency &adjacency GRAL_LIFETIMEBOUND)
        : offsets_(adjacency.offsets()), edges_(adjacency.edges())
    {
    }

    /** Number of vertices. */
    VertexId
    numVertices() const
    {
        return offsets_.empty()
                   ? 0
                   : static_cast<VertexId>(offsets_.size() - 1);
    }

    /** Number of stored edges. */
    EdgeId numEdges() const { return offsets_.empty() ? 0 : offsets_.back(); }

    /** Degree (neighbour count) of vertex @p v. */
    EdgeId degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

    /** Index of the first edge of @p v in the edges array. */
    EdgeId beginEdge(VertexId v) const { return offsets_[v]; }

    /** One-past-the-last edge index of @p v. */
    EdgeId endEdge(VertexId v) const { return offsets_[v + 1]; }

    /** Neighbour list of @p v, sorted ascending. */
    std::span<const VertexId>
    neighbours(VertexId v) const GRAL_LIFETIMEBOUND
    {
        return {edges_.data() + offsets_[v],
                edges_.data() + offsets_[v + 1]};
    }

    /** Raw offsets array (|V|+1 entries). */
    std::span<const EdgeId> offsets() const { return offsets_; }

    /** Raw edges array (|E| entries). */
    std::span<const VertexId> edges() const { return edges_; }

    /** Whether @p v has an edge to @p u (binary search). */
    bool
    hasNeighbour(VertexId v, VertexId u) const
    {
        auto nbrs = neighbours(v);
        for (std::size_t lo = 0, hi = nbrs.size(); lo < hi;) {
            std::size_t mid = lo + (hi - lo) / 2;
            if (nbrs[mid] < u)
                lo = mid + 1;
            else if (nbrs[mid] > u)
                hi = mid;
            else
                return true;
        }
        return false;
    }

    /** Bytes the viewed arrays occupy on disk / in memory, using the
     *  paper's element sizes. */
    std::size_t
    footprintBytes() const
    {
        return offsets_.size() * kOffsetBytes + edges_.size() * kEdgeBytes;
    }

  private:
    std::span<const EdgeId> offsets_;
    std::span<const VertexId> edges_;
};

/**
 * Identity of the storage behind a GraphView, for caching layers
 * (kernels key their prepared runs on this). Two views over the same
 * arrays compare equal; views over different storage do not — unlike
 * the address of a (possibly temporary) view object, which is
 * meaningless as a key.
 */
struct GraphViewKey
{
    const void *outOffsets = nullptr;
    const void *inOffsets = nullptr;
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;

    friend bool operator==(const GraphViewKey &,
                           const GraphViewKey &) = default;
};

/**
 * Storage-agnostic directed graph: one AdjacencyView per direction.
 * Mirrors Graph's read API, so code converts by signature change;
 * a Graph converts implicitly.
 */
class GraphView
{
  public:
    /** Empty view. */
    GraphView() = default;

    /** View over an in-memory Graph (implicit by design: every
     *  read-only consumer takes a GraphView and callers keep passing
     *  Graph objects). The Graph must outlive the view. */
    /* implicit */ GraphView(const Graph &graph GRAL_LIFETIMEBOUND)
        : out_(graph.out()), in_(graph.in())
    {
    }

    /** Assemble from prepared per-direction views.
     *  @pre equal vertex and edge counts. */
    GraphView(AdjacencyView out, AdjacencyView in) : out_(out), in_(in)
    {
        GRAL_DCHECK(out_.numVertices() == in_.numVertices() &&
                    out_.numEdges() == in_.numEdges())
            << "GraphView: direction mismatch";
    }

    /** Number of vertices |V|. */
    VertexId numVertices() const { return out_.numVertices(); }

    /** Number of directed edges |E|. */
    EdgeId numEdges() const { return out_.numEdges(); }

    /** Average degree |E| / |V| — the paper's LDV/HDV threshold. */
    double
    averageDegree() const
    {
        return numVertices() == 0 ? 0.0
                                  : static_cast<double>(numEdges()) /
                                        static_cast<double>(numVertices());
    }

    /** Out-adjacency (CSR): vertex -> out-neighbours. */
    const AdjacencyView &out() const GRAL_LIFETIMEBOUND { return out_; }

    /** In-adjacency (CSC): vertex -> in-neighbours. */
    const AdjacencyView &in() const GRAL_LIFETIMEBOUND { return in_; }

    /** Out-degree of @p v. */
    EdgeId outDegree(VertexId v) const { return out_.degree(v); }

    /** In-degree of @p v. */
    EdgeId inDegree(VertexId v) const { return in_.degree(v); }

    /** Out-neighbours of @p v, sorted ascending. */
    std::span<const VertexId>
    outNeighbours(VertexId v) const
    {
        return out_.neighbours(v);
    }

    /** In-neighbours of @p v, sorted ascending. */
    std::span<const VertexId>
    inNeighbours(VertexId v) const
    {
        return in_.neighbours(v);
    }

    /** Reconstruct the directed edge list from the CSR. */
    std::vector<Edge> edgeList() const;

    /** Total topology footprint in bytes (both directions). */
    std::size_t
    footprintBytes() const
    {
        return out_.footprintBytes() + in_.footprintBytes();
    }

    /** Storage identity for caching layers. */
    GraphViewKey
    key() const
    {
        return {out_.offsets().data(), in_.offsets().data(),
                numVertices(), numEdges()};
    }

  private:
    AdjacencyView out_;
    AdjacencyView in_;
};

/**
 * Deep-copy a view into an owning Graph. Used where an owning graph
 * is genuinely needed, e.g. before relabeling a memory-mapped graph.
 */
Graph materializeGraph(const GraphView &view);

} // namespace gral

#endif // GRAL_GRAPH_VIEW_H
