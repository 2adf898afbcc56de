#include "graph/permutation.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/rng.h"

namespace gral
{

Permutation
Permutation::identity(VertexId n)
{
    std::vector<VertexId> ids(n);
    std::iota(ids.begin(), ids.end(), VertexId{0});
    return Permutation(std::move(ids));
}

bool
Permutation::isValid() const
{
    std::vector<char> seen(newIds_.size(), 0);
    for (VertexId id : newIds_) {
        if (id >= newIds_.size() || seen[id])
            return false;
        seen[id] = 1;
    }
    return true;
}

Permutation
Permutation::inverse() const
{
    std::vector<VertexId> inv(newIds_.size(), kInvalidVertex);
    for (VertexId old_id = 0; old_id < size(); ++old_id)
        inv[newIds_[old_id]] = old_id;
    return Permutation(std::move(inv));
}

Permutation
Permutation::compose(const Permutation &first) const
{
    if (first.size() != size())
        throw std::invalid_argument("Permutation::compose: size mismatch");
    std::vector<VertexId> result(size());
    for (VertexId v = 0; v < size(); ++v)
        result[v] = newIds_[first.newId(v)];
    return Permutation(std::move(result));
}

namespace
{

/**
 * One direction of a relabeled graph, count then place: row newId(v)
 * holds v's row with every neighbour mapped, sorted ascending.
 */
Adjacency
relabelRows(const AdjacencyView &rows, const Permutation &permutation)
{
    const VertexId n = rows.numVertices();
    std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        offsets[permutation.newId(v) + 1] = rows.degree(v);
    for (VertexId r = 0; r < n; ++r)
        offsets[r + 1] += offsets[r];

    std::vector<VertexId> edges(rows.numEdges());
    for (VertexId v = 0; v < n; ++v) {
        auto first = edges.begin() + static_cast<std::ptrdiff_t>(
                                         offsets[permutation.newId(v)]);
        auto last = first;
        for (VertexId u : rows.neighbours(v))
            *last++ = permutation.newId(u);
        std::sort(first, last);
    }
    return Adjacency(std::move(offsets), std::move(edges));
}

} // namespace

Graph
applyPermutation(const GraphView &graph, const Permutation &permutation)
{
    if (permutation.size() != graph.numVertices())
        throw std::invalid_argument("applyPermutation: size mismatch");
    return Graph(relabelRows(graph.out(), permutation),
                 relabelRows(graph.in(), permutation));
}

Permutation
randomPermutation(VertexId n, std::uint64_t seed)
{
    std::vector<VertexId> ids(n);
    std::iota(ids.begin(), ids.end(), VertexId{0});
    SplitMix64 rng(seed);
    // Fisher-Yates shuffle.
    for (VertexId i = n; i > 1; --i) {
        auto j = static_cast<VertexId>(rng.nextBounded(i));
        std::swap(ids[i - 1], ids[j]);
    }
    return Permutation(std::move(ids));
}

} // namespace gral
