/**
 * @file
 * Plugging a user-defined reordering algorithm into the toolkit.
 *
 * Implements "BfsOrder" — breadth-first renumbering from the
 * highest-degree vertex, a classic locality baseline the paper's
 * related work discusses — against the Reorderer interface, then
 * evaluates it with the same metrics pipeline the built-in RAs use.
 *
 * Build & run:  ./build/examples/custom_reorderer
 */

#include <iostream>
#include <queue>

#include "analysis/report.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "kernels/spmv_kernel.h"
#include "metrics/aid.h"
#include "metrics/miss_rate.h"
#include "obs/timer.h"
#include "reorder/order_util.h"
#include "reorder/registry.h"

using namespace gral;

namespace
{

/** BFS renumbering from the max-degree vertex; unreached components
 *  are seeded from their own max-degree vertex. */
class BfsOrder : public Reorderer
{
  public:
    std::string name() const override { return "BfsOrder"; }

    Permutation
    reorder(const GraphView &graph) override
    {
        stats_ = {};
        ScopedTimer timer(stats_.preprocessSeconds);
        const VertexId n = graph.numVertices();

        // Seeds in descending undirected-degree order.
        std::vector<EdgeId> degree = undirectedDegrees(graph);
        std::vector<VertexId> seeds(n);
        for (VertexId v = 0; v < n; ++v)
            seeds[v] = v;
        std::stable_sort(seeds.begin(), seeds.end(),
                         [&](VertexId a, VertexId b) {
                             return degree[a] > degree[b];
                         });

        std::vector<VertexId> ordering;
        ordering.reserve(n);
        std::vector<char> visited(n, 0);
        std::queue<VertexId> frontier;
        for (VertexId seed : seeds) {
            if (visited[seed])
                continue;
            visited[seed] = 1;
            frontier.push(seed);
            while (!frontier.empty()) {
                VertexId v = frontier.front();
                frontier.pop();
                ordering.push_back(v);
                auto visit = [&](VertexId u) {
                    if (!visited[u]) {
                        visited[u] = 1;
                        frontier.push(u);
                    }
                };
                for (VertexId u : graph.outNeighbours(v))
                    visit(u);
                for (VertexId u : graph.inNeighbours(v))
                    visit(u);
            }
        }
        stats_.peakFootprintBytes =
            n * (sizeof(EdgeId) + 2 * sizeof(VertexId) + 1);
        return orderingToPermutation(ordering);
    }
};

/** Evaluate one reorderer with the shared metrics pipeline. */
void
evaluate(TextTable &table, const Graph &base, Reorderer &ra)
{
    Permutation p = ra.reorder(base);
    Graph graph = applyPermutation(base, p);

    auto reuse = degrees(graph, Direction::Out);
    SimulationOptions sim;
    sim.cache.sizeBytes = 128 * 1024;
    sim.cache.associativity = 8;
    sim.simulateTlb = false;
    auto profile =
        simulateMissProfile(makePullProducers(graph, {}), reuse, sim);

    table.addRow(
        {ra.name(),
         formatDouble(ra.stats().preprocessSeconds, 3),
         formatDouble(meanAid(graph), 0),
         formatDouble(100.0 * profile.dataMissRate(), 1)});
}

} // namespace

int
main()
{
    WebGraphParams params;
    params.numVertices = 30'000;
    params.meanOutDegree = 16.0;
    Graph base = generateWebGraph(params);
    std::cout << "web graph: |V|=" << base.numVertices()
              << " |E|=" << base.numEdges() << "\n\n";

    TextTable table(
        {"RA", "prep (s)", "mean in-AID", "data miss rate %"});

    BfsOrder custom;
    evaluate(table, base, custom);
    for (const char *name : {"Bl", "Random", "SB", "GO", "RO"}) {
        ReordererPtr ra = makeReorderer(name);
        evaluate(table, base, *ra);
    }
    table.print(std::cout);
    std::cout << "\nBfsOrder is a ~30-line Reorderer subclass; every "
                 "metric and bench in the toolkit accepts it.\n";
    return 0;
}
