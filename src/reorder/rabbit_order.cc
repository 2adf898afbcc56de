#include "reorder/rabbit_order.h"

#include <algorithm>
#include <numeric>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "reorder/order_util.h"

namespace gral
{

namespace
{

/** A (community, edge-weight) entry in a community's adjacency. */
struct WeightedNeighbour
{
    VertexId target;
    float weight;
};

/** Resolve @p v to its live community root with path halving. */
VertexId
findRoot(std::vector<VertexId> &parent, VertexId v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

/**
 * Canonicalize a community adjacency in place: resolve every target
 * to its live root, drop self references, and combine duplicates.
 * Entries keep the order of their first occurrence. @p slot maps a
 * root to its entry's index; it holds kInvalidVertex everywhere
 * between calls. Weights are integer-valued floats, so the sums are
 * exact in any order while below 2^24, that is, while no two
 * communities share 2^24 edges.
 */
void
canonicalize(std::vector<WeightedNeighbour> &adj,
             std::vector<VertexId> &parent, std::vector<VertexId> &slot,
             VertexId self)
{
    std::size_t out = 0;
    for (std::size_t i = 0; i < adj.size(); ++i) {
        VertexId root = findRoot(parent, adj[i].target);
        if (root == self)
            continue;
        if (slot[root] == kInvalidVertex) {
            slot[root] = static_cast<VertexId>(out);
            adj[out++] = {root, adj[i].weight};
        } else {
            adj[slot[root]].weight += adj[i].weight;
        }
    }
    adj.resize(out);
    for (const WeightedNeighbour &entry : adj)
        slot[entry.target] = kInvalidVertex;
}

} // namespace

Permutation
RabbitOrder::reorder(const GraphView &graph)
{
    stats_ = {};
    numCommunities_ = 0;
    GRAL_SPAN("reorder/rabbit");
    ScopedTimer timer(stats_.preprocessSeconds);

    const VertexId n = graph.numVertices();
    if (n == 0)
        return Permutation::identity(0);

    std::uint64_t merges = 0;

    Adjacency undirected = undirectedAdjacency(graph);

    // EDR participation mask (Section VIII-B2): out-of-range vertices
    // are left out of merging and appended at the end, "in the same
    // manner as zero degree vertices".
    std::vector<char> participates(n, 1);
    if (config_.edrLow || config_.edrHigh) {
        for (VertexId v = 0; v < n; ++v) {
            EdgeId d = undirected.degree(v);
            if ((config_.edrLow && d < *config_.edrLow) ||
                (config_.edrHigh && d > *config_.edrHigh))
                participates[v] = 0;
        }
    }

    // Initial weighted adjacency: every undirected edge has weight 1.
    // Excluded vertices get no entries and no entries point at them,
    // but their edges still count towards every strength.
    std::vector<std::vector<WeightedNeighbour>> adj(n);
    std::vector<double> strength(n, 0.0); // weighted degree
    double total_weight2 = 0.0;           // 2m
    for (VertexId v = 0; v < n; ++v) {
        auto nbrs = undirected.neighbours(v);
        strength[v] = static_cast<double>(nbrs.size());
        total_weight2 += strength[v];
        if (!participates[v])
            continue;
        adj[v].reserve(nbrs.size());
        for (VertexId u : nbrs)
            if (participates[u])
                adj[v].push_back({u, 1.0f});
    }
    if (total_weight2 == 0.0)
        total_weight2 = 1.0; // edgeless graph: no merges happen anyway

    std::vector<VertexId> parent(n);
    std::iota(parent.begin(), parent.end(), VertexId{0});
    std::vector<VertexId> first_child(n, kInvalidVertex);
    std::vector<VertexId> next_sibling(n, kInvalidVertex);
    std::vector<VertexId> community_size(n, 1);
    std::vector<VertexId> slot(n, kInvalidVertex);
    // List length at each community's last canonicalization.
    std::vector<EdgeId> canonical_size(n);
    for (VertexId v = 0; v < n; ++v)
        canonical_size[v] = adj[v].size();

    stats_.peakFootprintBytes =
        graph.numEdges() * 2 * sizeof(WeightedNeighbour) +
        n * (sizeof(double) + 5 * sizeof(VertexId) + sizeof(EdgeId));

    // Merge pass: ascending original degree, ties by ID.
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), VertexId{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                         return undirected.degree(a) <
                                undirected.degree(b);
                     });

    for (VertexId v : order) {
        if (!participates[v] || parent[v] != v)
            continue; // excluded, or already absorbed

        canonicalize(adj[v], parent, slot, v);
        canonical_size[v] = adj[v].size();

        // Highest gain wins; equal gains go to the smallest target.
        VertexId best = kInvalidVertex;
        double best_gain = 0.0;
        for (const WeightedNeighbour &entry : adj[v]) {
            VertexId u = entry.target;
            if (config_.maxCommunitySize != 0 &&
                community_size[u] + community_size[v] >
                    config_.maxCommunitySize)
                continue;
            double gain =
                2.0 * (static_cast<double>(entry.weight) /
                           total_weight2 -
                       strength[v] * strength[u] /
                           (total_weight2 * total_weight2));
            if (gain > best_gain ||
                (gain == best_gain && best != kInvalidVertex &&
                 u < best)) {
                best_gain = gain;
                best = u;
            }
        }

        if (best == kInvalidVertex)
            continue; // no positive gain: v joins the top-level set

        // Merge community v into community best.
        ++merges;
        parent[v] = best;
        strength[best] += strength[v];
        community_size[best] += community_size[v];
        next_sibling[v] = first_child[best];
        first_child[best] = v;
        auto &dst = adj[best];
        dst.insert(dst.end(), adj[v].begin(), adj[v].end());
        adj[v].clear();
        adj[v].shrink_to_fit();
        // Keep the absorbed list from growing unboundedly stale, but
        // only once it has doubled since its last canonicalization,
        // so the work stays linear in the entries appended.
        if (dst.size() > 64 &&
            dst.size() > 4 * static_cast<std::size_t>(
                                 community_size[best]) &&
            dst.size() >= 2 * canonical_size[best]) {
            canonicalize(dst, parent, slot, best);
            canonical_size[best] = dst.size();
        }
    }

    // ID assignment: DFS from every top-level root so each community
    // occupies a contiguous ID block; earliest-merged (lowest-degree)
    // children are visited first.
    std::vector<VertexId> new_ids(n, kInvalidVertex);
    VertexId counter = 0;
    std::vector<VertexId> stack;
    for (VertexId r = 0; r < n; ++r) {
        if (!participates[r] || parent[r] != r)
            continue;
        ++numCommunities_;
        stack.clear();
        stack.push_back(r);
        while (!stack.empty()) {
            VertexId v = stack.back();
            stack.pop_back();
            new_ids[v] = counter++;
            // The child chain is most-recently-merged first; pushing
            // it onto the stack reverses it, so the earliest merge is
            // visited first.
            for (VertexId c = first_child[v]; c != kInvalidVertex;
                 c = next_sibling[c])
                stack.push_back(c);
        }
    }

    // Excluded vertices keep their relative order at the tail.
    for (VertexId v = 0; v < n; ++v)
        if (!participates[v])
            new_ids[v] = counter++;

    MetricsRegistry &registry = MetricsRegistry::global();
    registry.counter("reorder.rabbit.merges").add(merges);
    registry.gauge("reorder.rabbit.communities")
        .set(static_cast<double>(numCommunities_));
    GRAL_LOG(debug) << "rabbit-order merge pass done"
                    << logField("merges", merges)
                    << logField("communities", numCommunities_);
    return Permutation(std::move(new_ids));
}

} // namespace gral
