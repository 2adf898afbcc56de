/**
 * @file
 * Vertex relabeling arrays (permutations) and their application.
 *
 * A reordering algorithm "receives a graph as its input and creates a
 * relabeling array of size |V| which is indexed by the old ID of a
 * vertex to specify the new ID. Then, the CSC/CSR representations are
 * rebuilt using the relabeling array." (paper Section II-E)
 */

#ifndef GRAL_GRAPH_PERMUTATION_H
#define GRAL_GRAPH_PERMUTATION_H

#include <span>
#include <vector>

#include "graph/view.h"
#include "graph/types.h"

namespace gral
{

/**
 * A bijective relabeling of vertex IDs.
 *
 * newId(v) gives the new ID of the vertex whose old ID is v.
 */
class Permutation
{
  public:
    /** Empty permutation over zero vertices. */
    Permutation() = default;

    /**
     * Wrap a relabeling array. @p new_ids[old] == new.
     * Use isValid() to check bijectivity when the source is untrusted.
     */
    explicit Permutation(std::vector<VertexId> new_ids)
        : newIds_(std::move(new_ids))
    {
    }

    /** The identity permutation over @p n vertices. */
    static Permutation identity(VertexId n);

    /** Number of vertices covered. */
    VertexId size() const { return static_cast<VertexId>(newIds_.size()); }

    /** New ID assigned to old ID @p old_id. */
    VertexId newId(VertexId old_id) const { return newIds_[old_id]; }

    /** The raw relabeling array, indexed by old ID. */
    std::span<const VertexId> raw() const { return newIds_; }

    /** True when the array is a bijection onto [0, size()). */
    bool isValid() const;

    /** The inverse mapping: result.newId(new_id) == old_id. */
    Permutation inverse() const;

    /**
     * Composition: apply @p first, then this.
     * (this ∘ first).newId(v) == this->newId(first.newId(v)).
     * @pre sizes match.
     */
    Permutation compose(const Permutation &first) const;

    friend bool operator==(const Permutation &, const Permutation &) =
        default;

  private:
    std::vector<VertexId> newIds_;
};

/**
 * Rebuild a graph under a relabeling: edge (u, v) becomes
 * (newId(u), newId(v)). Each direction is built count-then-place:
 * row newId(v) is v's row with its neighbours mapped and re-sorted,
 * with no intermediate edge list.
 *
 * @pre permutation.size() == graph.numVertices() and is a bijection.
 */
Graph applyPermutation(const GraphView &graph,
                       const Permutation &permutation);

/**
 * Relabel per-vertex values: result[newId(v)] = values[v].
 */
template <typename T>
std::vector<T>
applyPermutation(std::span<const T> values, const Permutation &permutation)
{
    std::vector<T> result(values.size());
    for (VertexId v = 0; v < permutation.size(); ++v)
        result[permutation.newId(v)] = values[v];
    return result;
}

/** Uniformly random permutation with a fixed seed (baseline RA). */
Permutation randomPermutation(VertexId n, std::uint64_t seed);

} // namespace gral

#endif // GRAL_GRAPH_PERMUTATION_H
