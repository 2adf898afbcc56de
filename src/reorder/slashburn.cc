#include "reorder/slashburn.h"

#include <algorithm>
#include <cmath>
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

/**
 * Deactivate @p v and take it out of its active neighbours' degrees,
 * so that degree[u] of every active u keeps counting only active
 * neighbours.
 */
void
deactivate(const Adjacency &undirected, VertexId v,
           std::vector<char> &active, std::vector<EdgeId> &degree)
{
    active[v] = 0;
    for (VertexId u : undirected.neighbours(v))
        degree[u] -= active[u] ? 1 : 0;
}

/** One connected component discovered by BFS. */
struct Spoke
{
    std::vector<VertexId> vertices; ///< BFS discovery order
    EdgeId edgeEndpoints = 0;
};

} // namespace

Permutation
SlashBurn::reorder(const GraphView &graph)
{
    stats_ = {};
    iterations_.clear();
    GRAL_SPAN("reorder/slashburn");
    ScopedTimer timer(stats_.preprocessSeconds);

    MetricsRegistry &registry = MetricsRegistry::global();
    Counter &round_counter =
        registry.counter("reorder.slashburn.rounds");
    Series &gcc_series =
        registry.series("reorder.slashburn.gcc_vertices");

    const VertexId n = graph.numVertices();
    Adjacency undirected = undirectedAdjacency(graph);

    const auto k = std::max<VertexId>(
        1, static_cast<VertexId>(std::ceil(
               config_.hubFraction * static_cast<double>(n))));
    const double sqrt_n = std::sqrt(static_cast<double>(n));

    // degree[v] of every active v counts its active neighbours: all
    // of them now, kept current as vertices are deactivated.
    std::vector<char> active(n, 1);
    std::vector<EdgeId> degree(n);
    for (VertexId v = 0; v < n; ++v)
        degree[v] = undirected.degree(v);
    std::vector<VertexId> new_ids(n, kInvalidVertex);
    std::vector<VertexId> comp_of(n, kInvalidVertex);
    std::vector<VertexId> queue;
    VertexId front = 0;            // next ID from the front (hubs)
    VertexId back = n;             // one past the next ID from the back
    VertexId active_count = n;

    stats_.peakFootprintBytes =
        undirected.footprintBytes() +
        n * (sizeof(char) + sizeof(EdgeId) + 3 * sizeof(VertexId));

    std::vector<VertexId> hubs;
    while (active_count > k) {
        if (config_.maxIterations != 0 &&
            stats_.iterations >= config_.maxIterations)
            break;

        GRAL_SPAN("slashburn/round");

        if (config_.earlyStop) {
            EdgeId max_degree = 0;
            for (VertexId v = 0; v < n; ++v)
                if (active[v])
                    max_degree = std::max(max_degree, degree[v]);
            // SB++: the GCC has lost its power-law hubs; stop before
            // further iterations shred LDV neighbourhoods.
            if (static_cast<double>(max_degree) < sqrt_n) {
                GRAL_LOG(debug)
                    << "slashburn early stop"
                    << logField("round", stats_.iterations)
                    << logField("max_degree", max_degree)
                    << logField("sqrt_n", sqrt_n);
                break;
            }
        }

        // Slash: remove the k highest-degree vertices of the GCC and
        // give them the next IDs from the front, by degree
        // ("basic hub-ordering").
        hubs.clear();
        for (VertexId v = 0; v < n; ++v)
            if (active[v])
                hubs.push_back(v);
        std::nth_element(hubs.begin(), hubs.begin() + (k - 1),
                         hubs.end(), [&](VertexId a, VertexId b) {
                             return degree[a] != degree[b]
                                        ? degree[a] > degree[b]
                                        : a < b;
                         });
        hubs.resize(k);
        std::sort(hubs.begin(), hubs.end(),
                  [&](VertexId a, VertexId b) {
                      return degree[a] != degree[b]
                                 ? degree[a] > degree[b]
                                 : a < b;
                  });
        for (VertexId hub : hubs) {
            new_ids[hub] = front++;
            deactivate(undirected, hub, active, degree);
        }
        active_count -= k;

        // Burn: find the components of what is left. The GCC (most
        // edge endpoints) survives to the next iteration; every other
        // component is a "spoke" placed from the back.
        std::vector<Spoke> spokes;
        std::size_t gcc_index = 0;
        EdgeId gcc_endpoints = 0;
        for (VertexId v = 0; v < n; ++v)
            comp_of[v] = kInvalidVertex;
        for (VertexId start = 0; start < n; ++start) {
            if (!active[start] || comp_of[start] != kInvalidVertex)
                continue;
            Spoke spoke;
            queue.clear();
            queue.push_back(start);
            comp_of[start] = static_cast<VertexId>(spokes.size());
            while (!queue.empty()) {
                VertexId v = queue.back();
                queue.pop_back();
                spoke.vertices.push_back(v);
                for (VertexId u : undirected.neighbours(v)) {
                    if (!active[u])
                        continue;
                    ++spoke.edgeEndpoints;
                    if (comp_of[u] == kInvalidVertex) {
                        comp_of[u] =
                            static_cast<VertexId>(spokes.size());
                        queue.push_back(u);
                    }
                }
            }
            if (spoke.edgeEndpoints > gcc_endpoints ||
                spokes.empty()) {
                gcc_endpoints = spoke.edgeEndpoints;
                gcc_index = spokes.size();
            }
            spokes.push_back(std::move(spoke));
        }
        if (spokes.empty())
            break;

        // Spokes are placed from the back, smallest component at the
        // very end, so bigger (better-connected) components sit
        // closer to the hubs. Vertices inside a component stay
        // contiguous in BFS discovery order. A spoke has no active
        // neighbour outside itself, so removing it leaves the GCC's
        // degrees as they are.
        std::vector<std::size_t> order(spokes.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return spokes[a].vertices.size() <
                             spokes[b].vertices.size();
                  });
        for (std::size_t index : order) {
            if (index == gcc_index)
                continue;
            Spoke &spoke = spokes[index];
            back -= static_cast<VertexId>(spoke.vertices.size());
            VertexId id = back;
            for (VertexId v : spoke.vertices) {
                new_ids[v] = id++;
                active[v] = 0;
            }
            active_count -=
                static_cast<VertexId>(spoke.vertices.size());
        }

        ++stats_.iterations;
        round_counter.add();

        SlashBurnIteration record;
        record.iteration = stats_.iterations;
        record.gccVertices =
            static_cast<VertexId>(spokes[gcc_index].vertices.size());
        for (VertexId v : spokes[gcc_index].vertices)
            record.gccMaxDegree =
                std::max(record.gccMaxDegree, degree[v]);
        if (config_.recordHistograms) {
            record.gccDegreeHistogram.assign(record.gccMaxDegree + 1,
                                             0);
            for (VertexId v : spokes[gcc_index].vertices)
                ++record.gccDegreeHistogram[degree[v]];
        }
        gcc_series.record(static_cast<double>(record.iteration),
                          static_cast<double>(record.gccVertices));
        GRAL_LOG(trace) << "slashburn round done"
                        << logField("round", record.iteration)
                        << logField("gcc_vertices",
                                    record.gccVertices);
        iterations_.push_back(std::move(record));
    }

    // Whatever is left (the final small GCC) goes after the hubs,
    // highest degree first.
    std::vector<VertexId> remaining;
    for (VertexId v = 0; v < n; ++v)
        if (active[v])
            remaining.push_back(v);
    std::sort(remaining.begin(), remaining.end(),
              [&](VertexId a, VertexId b) {
                  return degree[a] != degree[b] ? degree[a] > degree[b]
                                                : a < b;
              });
    for (VertexId v : remaining)
        new_ids[v] = front++;

    return Permutation(std::move(new_ids));
}

} // namespace gral
