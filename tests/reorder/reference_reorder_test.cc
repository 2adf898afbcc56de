/**
 * @file
 * Differential tests of the fast Rabbit-Order, SlashBurn and relabel
 * paths against slow reference versions kept in this file.
 *
 * The references are the straightforward formulations:
 *  - Rabbit-Order re-sorts a community's whole list on every
 *    canonicalization and after every merge into a list more than 4x
 *    its community's size, and scans targets in ascending order;
 *  - SlashBurn recomputes every active degree from scratch twice per
 *    round and once at the end;
 *  - applyPermutation maps the full edge list and rebuilds CSR and
 *    CSC by scatter and sort.
 *
 * The fast paths must give the same permutations, the same SlashBurn
 * iteration records and the same relabeled CSR/CSC on seeded
 * social, web, R-MAT and planted-partition graphs, a star, a graph
 * with scattered isolated vertices and a multigraph with self loops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/permutation.h"
#include "graph/rng.h"
#include "reorder/order_util.h"
#include "reorder/rabbit_order.h"
#include "reorder/slashburn.h"

namespace gral
{
namespace
{

// ---------------------------------------------------------------------
// Reference Rabbit-Order.

struct RefNeighbour
{
    VertexId target;
    float weight;
};

VertexId
refFindRoot(std::vector<VertexId> &parent, VertexId v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

void
refCanonicalize(std::vector<RefNeighbour> &adj,
                std::vector<VertexId> &parent, VertexId self)
{
    for (RefNeighbour &entry : adj)
        entry.target = refFindRoot(parent, entry.target);
    std::erase_if(adj, [self](const RefNeighbour &entry) {
        return entry.target == self;
    });
    std::sort(adj.begin(), adj.end(),
              [](const RefNeighbour &a, const RefNeighbour &b) {
                  return a.target < b.target;
              });
    std::size_t out = 0;
    for (std::size_t i = 0; i < adj.size();) {
        RefNeighbour combined = adj[i];
        std::size_t j = i + 1;
        while (j < adj.size() && adj[j].target == combined.target) {
            combined.weight += adj[j].weight;
            ++j;
        }
        adj[out++] = combined;
        i = j;
    }
    adj.resize(out);
}

struct RefRabbitResult
{
    std::vector<VertexId> newIds;
    VertexId communities = 0;
};

RefRabbitResult
referenceRabbitOrder(const GraphView &graph,
                     const RabbitOrderConfig &config)
{
    RefRabbitResult result;
    const VertexId n = graph.numVertices();
    Adjacency undirected = undirectedAdjacency(graph);

    std::vector<std::vector<RefNeighbour>> adj(n);
    std::vector<double> strength(n, 0.0);
    double total_weight2 = 0.0;
    for (VertexId v = 0; v < n; ++v) {
        for (VertexId u : undirected.neighbours(v))
            adj[v].push_back({u, 1.0f});
        strength[v] = static_cast<double>(undirected.degree(v));
        total_weight2 += strength[v];
    }
    if (total_weight2 == 0.0)
        total_weight2 = 1.0;

    std::vector<VertexId> parent(n);
    std::iota(parent.begin(), parent.end(), VertexId{0});
    std::vector<VertexId> first_child(n, kInvalidVertex);
    std::vector<VertexId> next_sibling(n, kInvalidVertex);
    std::vector<VertexId> community_size(n, 1);

    std::vector<char> participates(n, 1);
    for (VertexId v = 0; v < n; ++v) {
        EdgeId d = undirected.degree(v);
        if ((config.edrLow && d < *config.edrLow) ||
            (config.edrHigh && d > *config.edrHigh))
            participates[v] = 0;
    }

    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), VertexId{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                         return undirected.degree(a) <
                                undirected.degree(b);
                     });

    for (VertexId v : order) {
        if (!participates[v] || parent[v] != v)
            continue;
        refCanonicalize(adj[v], parent, v);

        VertexId best = kInvalidVertex;
        double best_gain = 0.0;
        for (const RefNeighbour &entry : adj[v]) {
            VertexId u = entry.target;
            if (!participates[u])
                continue;
            if (config.maxCommunitySize != 0 &&
                community_size[u] + community_size[v] >
                    config.maxCommunitySize)
                continue;
            double gain =
                2.0 * (static_cast<double>(entry.weight) /
                           total_weight2 -
                       strength[v] * strength[u] /
                           (total_weight2 * total_weight2));
            if (gain > best_gain) {
                best_gain = gain;
                best = u;
            }
        }
        if (best == kInvalidVertex)
            continue;

        parent[v] = best;
        strength[best] += strength[v];
        community_size[best] += community_size[v];
        next_sibling[v] = first_child[best];
        first_child[best] = v;
        auto &dst = adj[best];
        dst.insert(dst.end(), adj[v].begin(), adj[v].end());
        adj[v].clear();
        if (dst.size() > 64 &&
            dst.size() > 4 * static_cast<std::size_t>(
                                 community_size[best]))
            refCanonicalize(dst, parent, best);
    }

    result.newIds.assign(n, kInvalidVertex);
    VertexId counter = 0;
    std::vector<VertexId> stack;
    for (VertexId r = 0; r < n; ++r) {
        if (!participates[r] || parent[r] != r)
            continue;
        ++result.communities;
        stack.assign(1, r);
        while (!stack.empty()) {
            VertexId v = stack.back();
            stack.pop_back();
            result.newIds[v] = counter++;
            for (VertexId c = first_child[v]; c != kInvalidVertex;
                 c = next_sibling[c])
                stack.push_back(c);
        }
    }
    for (VertexId v = 0; v < n; ++v)
        if (!participates[v])
            result.newIds[v] = counter++;
    return result;
}

// ---------------------------------------------------------------------
// Reference SlashBurn.

void
refActiveDegrees(const Adjacency &undirected,
                 const std::vector<char> &active,
                 std::vector<EdgeId> &degree)
{
    for (VertexId v = 0; v < undirected.numVertices(); ++v) {
        degree[v] = 0;
        if (!active[v])
            continue;
        for (VertexId u : undirected.neighbours(v))
            degree[v] += active[u] ? 1 : 0;
    }
}

std::vector<VertexId>
referenceSlashBurn(const GraphView &graph, const SlashBurnConfig &config,
                   std::vector<SlashBurnIteration> &log)
{
    log.clear();
    const VertexId n = graph.numVertices();
    Adjacency undirected = undirectedAdjacency(graph);
    const auto k = std::max<VertexId>(
        1, static_cast<VertexId>(std::ceil(
               config.hubFraction * static_cast<double>(n))));
    const double sqrt_n = std::sqrt(static_cast<double>(n));

    std::vector<char> active(n, 1);
    std::vector<EdgeId> degree(n, 0);
    std::vector<VertexId> new_ids(n, kInvalidVertex);
    std::vector<VertexId> comp_of(n, kInvalidVertex);
    VertexId front = 0;
    VertexId back = n;
    VertexId active_count = n;
    unsigned iterations = 0;

    auto by_degree = [&](VertexId a, VertexId b) {
        return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
    };

    while (active_count > k) {
        if (config.maxIterations != 0 &&
            iterations >= config.maxIterations)
            break;
        refActiveDegrees(undirected, active, degree);
        if (config.earlyStop) {
            EdgeId max_degree = 0;
            for (VertexId v = 0; v < n; ++v)
                if (active[v])
                    max_degree = std::max(max_degree, degree[v]);
            if (static_cast<double>(max_degree) < sqrt_n)
                break;
        }

        std::vector<VertexId> hubs;
        for (VertexId v = 0; v < n; ++v)
            if (active[v])
                hubs.push_back(v);
        std::sort(hubs.begin(), hubs.end(), by_degree);
        hubs.resize(k);
        for (VertexId hub : hubs) {
            new_ids[hub] = front++;
            active[hub] = 0;
        }
        active_count -= k;

        std::vector<std::vector<VertexId>> comps;
        std::vector<EdgeId> endpoints;
        std::size_t gcc_index = 0;
        std::fill(comp_of.begin(), comp_of.end(), kInvalidVertex);
        for (VertexId start = 0; start < n; ++start) {
            if (!active[start] || comp_of[start] != kInvalidVertex)
                continue;
            std::vector<VertexId> members;
            EdgeId ends = 0;
            std::vector<VertexId> queue{start};
            comp_of[start] = static_cast<VertexId>(comps.size());
            while (!queue.empty()) {
                VertexId v = queue.back();
                queue.pop_back();
                members.push_back(v);
                for (VertexId u : undirected.neighbours(v)) {
                    if (!active[u])
                        continue;
                    ++ends;
                    if (comp_of[u] == kInvalidVertex) {
                        comp_of[u] = static_cast<VertexId>(comps.size());
                        queue.push_back(u);
                    }
                }
            }
            if (comps.empty() || ends > endpoints[gcc_index])
                gcc_index = comps.size();
            comps.push_back(std::move(members));
            endpoints.push_back(ends);
        }
        if (comps.empty())
            break;

        // The same (unstable) sort call as the library, so equal-size
        // spokes land in the same order.
        std::vector<std::size_t> order(comps.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return comps[a].size() < comps[b].size();
                  });
        for (std::size_t index : order) {
            if (index == gcc_index)
                continue;
            back -= static_cast<VertexId>(comps[index].size());
            VertexId id = back;
            for (VertexId v : comps[index]) {
                new_ids[v] = id++;
                active[v] = 0;
            }
            active_count -= static_cast<VertexId>(comps[index].size());
        }

        ++iterations;
        SlashBurnIteration record;
        record.iteration = iterations;
        record.gccVertices =
            static_cast<VertexId>(comps[gcc_index].size());
        refActiveDegrees(undirected, active, degree);
        for (VertexId v : comps[gcc_index])
            record.gccMaxDegree = std::max(record.gccMaxDegree, degree[v]);
        if (config.recordHistograms) {
            record.gccDegreeHistogram.assign(record.gccMaxDegree + 1, 0);
            for (VertexId v : comps[gcc_index])
                ++record.gccDegreeHistogram[degree[v]];
        }
        log.push_back(std::move(record));
    }

    refActiveDegrees(undirected, active, degree);
    std::vector<VertexId> remaining;
    for (VertexId v = 0; v < n; ++v)
        if (active[v])
            remaining.push_back(v);
    std::sort(remaining.begin(), remaining.end(), by_degree);
    for (VertexId v : remaining)
        new_ids[v] = front++;
    return new_ids;
}

// ---------------------------------------------------------------------
// Reference relabel.

Graph
referenceApplyPermutation(const GraphView &graph,
                          const Permutation &permutation)
{
    std::vector<Edge> edges = graph.edgeList();
    for (Edge &e : edges) {
        e.src = permutation.newId(e.src);
        e.dst = permutation.newId(e.dst);
    }
    return Graph(graph.numVertices(), edges);
}

// ---------------------------------------------------------------------
// Corpus.

/** Planted partition: @p blocks communities of @p size vertices,
 *  directed edges with probability @p p_in inside a block and
 *  @p p_out across, block membership scattered over the IDs. */
Graph
plantedPartition(VertexId blocks, VertexId size, double p_in,
                 double p_out, std::uint64_t seed)
{
    const VertexId n = blocks * size;
    SplitMix64 rng(seed);
    std::vector<VertexId> block_of(n);
    for (VertexId v = 0; v < n; ++v)
        block_of[v] = v % blocks;
    for (VertexId i = n; i > 1; --i)
        std::swap(block_of[i - 1],
                  block_of[static_cast<VertexId>(rng.nextBounded(i))]);
    std::vector<Edge> edges;
    for (VertexId a = 0; a < n; ++a)
        for (VertexId b = 0; b < n; ++b) {
            if (a == b)
                continue;
            double p = block_of[a] == block_of[b] ? p_in : p_out;
            if (rng.nextDouble() < p)
                edges.push_back({a, b});
        }
    return Graph(n, edges);
}

/** An Erdos-Renyi graph spread over every other ID, so half of the
 *  vertices are isolated and interleaved with the rest. */
Graph
scatteredIsolated(std::uint64_t seed)
{
    Graph dense = generateErdosRenyi(600, 2400, seed);
    std::vector<Edge> edges = dense.edgeList();
    for (Edge &e : edges) {
        e.src *= 2;
        e.dst *= 2;
    }
    return Graph(dense.numVertices() * 2, edges);
}

/** A multigraph: an R-MAT graph plus self loops on every fifth vertex
 *  and a repeated copy of every seventh edge. */
Graph
selfLoopMultigraph(std::uint64_t seed)
{
    RMatParams params;
    params.scale = 9;
    params.edgeFactor = 6;
    params.seed = seed;
    Graph base = generateRMat(params);
    std::vector<Edge> edges = base.edgeList();
    std::size_t original = edges.size();
    for (std::size_t i = 0; i < original; i += 7)
        edges.push_back(edges[i]);
    for (VertexId v = 0; v < base.numVertices(); v += 5)
        edges.push_back({v, v});
    return Graph(base.numVertices(), edges);
}

std::vector<std::pair<std::string, Graph>>
corpus()
{
    std::vector<std::pair<std::string, Graph>> graphs;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        std::string s = "-s" + std::to_string(seed);

        SocialNetworkParams sn;
        sn.numVertices = 1500;
        sn.edgesPerVertex = 6;
        sn.numAggregators = 8;
        sn.seed = seed;
        graphs.emplace_back("sn" + s, generateSocialNetwork(sn));

        WebGraphParams wg;
        wg.numVertices = 1500;
        wg.meanOutDegree = 10.0;
        wg.seed = seed;
        graphs.emplace_back("wg" + s, generateWebGraph(wg));

        RMatParams rmat;
        rmat.scale = 10;
        rmat.edgeFactor = 8;
        rmat.seed = seed;
        graphs.emplace_back("rmat" + s, generateRMat(rmat));

        graphs.emplace_back("planted" + s,
                            plantedPartition(8, 40, 0.25, 0.01, seed));
        graphs.emplace_back("isolated" + s, scatteredIsolated(seed));
        graphs.emplace_back("selfloops" + s, selfLoopMultigraph(seed));
    }
    graphs.emplace_back("star", makeStar(400));
    graphs.emplace_back("empty", Graph());
    return graphs;
}

std::vector<std::pair<std::string, RabbitOrderConfig>>
rabbitConfigs()
{
    std::vector<std::pair<std::string, RabbitOrderConfig>> configs;
    configs.emplace_back("default", RabbitOrderConfig{});
    RabbitOrderConfig low;
    low.edrLow = 4;
    configs.emplace_back("edrLow", low);
    RabbitOrderConfig high;
    high.edrHigh = 30;
    configs.emplace_back("edrHigh", high);
    RabbitOrderConfig both;
    both.edrLow = 2;
    both.edrHigh = 60;
    configs.emplace_back("edrLow+edrHigh", both);
    RabbitOrderConfig capped;
    capped.maxCommunitySize = 12;
    configs.emplace_back("maxCommunitySize", capped);
    RabbitOrderConfig all = both;
    all.maxCommunitySize = 40;
    configs.emplace_back("edr+maxCommunitySize", all);
    return configs;
}

std::vector<std::pair<std::string, SlashBurnConfig>>
slashBurnConfigs()
{
    std::vector<std::pair<std::string, SlashBurnConfig>> configs;
    configs.emplace_back("SB", SlashBurnConfig{});
    SlashBurnConfig plus;
    plus.earlyStop = true;
    configs.emplace_back("SB++", plus);
    SlashBurnConfig histograms;
    histograms.recordHistograms = true;
    configs.emplace_back("SB+histograms", histograms);
    SlashBurnConfig plus_histograms = plus;
    plus_histograms.recordHistograms = true;
    configs.emplace_back("SB+++histograms", plus_histograms);
    SlashBurnConfig capped;
    capped.maxIterations = 2;
    capped.recordHistograms = true;
    configs.emplace_back("SB+maxIterations", capped);
    SlashBurnConfig wide;
    wide.hubFraction = 0.05;
    wide.recordHistograms = true;
    configs.emplace_back("SB+hubFraction", wide);
    return configs;
}

void
expectSameTopology(const Graph &actual, const Graph &expected,
                   const std::string &label)
{
    EXPECT_EQ(actual.numVertices(), expected.numVertices()) << label;
    EXPECT_TRUE(std::ranges::equal(actual.out().offsets(),
                                   expected.out().offsets()))
        << label << ": CSR offsets differ";
    EXPECT_TRUE(std::ranges::equal(actual.out().edges(),
                                   expected.out().edges()))
        << label << ": CSR edges differ";
    EXPECT_TRUE(std::ranges::equal(actual.in().offsets(),
                                   expected.in().offsets()))
        << label << ": CSC offsets differ";
    EXPECT_TRUE(std::ranges::equal(actual.in().edges(),
                                   expected.in().edges()))
        << label << ": CSC edges differ";
}

TEST(ReferenceReorder, RabbitOrderMatchesReference)
{
    for (const auto &[graph_name, graph] : corpus()) {
        for (const auto &[config_name, config] : rabbitConfigs()) {
            const std::string label = graph_name + "/" + config_name;
            RefRabbitResult expected = referenceRabbitOrder(graph, config);
            RabbitOrder ra(config);
            Permutation actual = ra.reorder(graph);
            EXPECT_EQ(actual, Permutation(expected.newIds)) << label;
            EXPECT_EQ(ra.numCommunities(), expected.communities) << label;
        }
    }
}

TEST(ReferenceReorder, SlashBurnMatchesReference)
{
    for (const auto &[graph_name, graph] : corpus()) {
        for (const auto &[config_name, config] : slashBurnConfigs()) {
            const std::string label = graph_name + "/" + config_name;
            std::vector<SlashBurnIteration> expected_log;
            std::vector<VertexId> expected =
                referenceSlashBurn(graph, config, expected_log);
            SlashBurn ra(config);
            Permutation actual = ra.reorder(graph);
            EXPECT_EQ(actual, Permutation(expected)) << label;
            const auto &log = ra.iterationLog();
            ASSERT_EQ(log.size(), expected_log.size()) << label;
            for (std::size_t i = 0; i < log.size(); ++i) {
                EXPECT_EQ(log[i].iteration, expected_log[i].iteration)
                    << label << " round " << i;
                EXPECT_EQ(log[i].gccVertices, expected_log[i].gccVertices)
                    << label << " round " << i;
                EXPECT_EQ(log[i].gccMaxDegree,
                          expected_log[i].gccMaxDegree)
                    << label << " round " << i;
                EXPECT_EQ(log[i].gccDegreeHistogram,
                          expected_log[i].gccDegreeHistogram)
                    << label << " round " << i;
            }
        }
    }
}

TEST(ReferenceReorder, ApplyPermutationMatchesReference)
{
    std::uint64_t seed = 17;
    for (const auto &[graph_name, graph] : corpus()) {
        const VertexId n = graph.numVertices();
        std::vector<VertexId> reversed(n);
        for (VertexId v = 0; v < n; ++v)
            reversed[v] = n - 1 - v;
        RabbitOrder rabbit;
        std::vector<std::pair<std::string, Permutation>> permutations;
        permutations.emplace_back("identity", Permutation::identity(n));
        permutations.emplace_back("reversed", Permutation(reversed));
        permutations.emplace_back("random",
                                  randomPermutation(n, seed++));
        permutations.emplace_back("RO", rabbit.reorder(graph));
        for (const auto &[perm_name, permutation] : permutations) {
            expectSameTopology(
                applyPermutation(graph, permutation),
                referenceApplyPermutation(graph, permutation),
                graph_name + "/" + perm_name);
        }
    }
}

} // namespace
} // namespace gral
