/**
 * @file
 * Graph analytics as kernels — and what reordering buys them.
 *
 * Runs the PageRank, BFS and connected-components kernels on a social
 * network (analytics the paper lists as SpMV-backed in Section II-B),
 * then repeats PageRank after GOrder reordering to show the end-to-end
 * effect on a real analytic, including whether the preprocessing
 * amortizes.
 *
 * Build & run:  ./build/examples/analytics
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>

#include "analysis/report.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "kernels/bfs_kernel.h"
#include "kernels/cc_kernel.h"
#include "kernels/pagerank_kernel.h"
#include "reorder/registry.h"

using namespace gral;

namespace
{

struct TimedRun
{
    KernelRunInfo info;
    double seconds = 0.0;
};

/** One untraced kernel run and its wall time. */
TimedRun
timedRun(Kernel &kernel, const GraphView &graph)
{
    auto start = std::chrono::steady_clock::now();
    TimedRun timed;
    timed.info = kernel.run(graph);
    timed.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return timed;
}

} // namespace

int
main()
{
    SocialNetworkParams params;
    params.numVertices = 60'000;
    params.edgesPerVertex = 16;
    Graph graph = generateSocialNetwork(params);
    std::cout << "social network: |V|=" << graph.numVertices()
              << " |E|=" << graph.numEdges() << "\n\n";

    // --- the analytics suite ---
    PageRankKernel pagerank;
    double pr_s = timedRun(pagerank, graph).seconds;
    const PageRankResult &pr = pagerank.result(graph);

    BfsKernel bfs_kernel(/*source=*/0);
    double bfs_s = timedRun(bfs_kernel, graph).seconds;
    const BfsResult &bf = bfs_kernel.result(graph);

    CcKernel cc;
    TimedRun cc_run = timedRun(cc, graph);

    TextTable table({"Analytic", "time (s)", "result summary"});
    table.addRow({"PageRank", formatDouble(pr_s, 3),
                  std::to_string(pr.iterations) + " iters, top score " +
                      formatDouble(*std::max_element(
                                       pr.scores.begin(),
                                       pr.scores.end()) *
                                       1e3,
                                   3) +
                      "e-3"});
    table.addRow(
        {"BFS", formatDouble(bfs_s, 3),
         formatCount(bf.reached) + " reached, " +
             std::to_string(bf.denseRounds) + " dense rounds"});
    table.addRow({"CC (label prop)", formatDouble(cc_run.seconds, 3),
                  formatCount(cc.numComponents(graph)) +
                      " components in " +
                      std::to_string(cc_run.info.iterations) +
                      " sweeps"});
    table.print(std::cout);

    // --- does reordering pay off for PageRank? ---
    std::cout << "\nReordering with GOrder (the paper's pick for "
                 "social networks)...\n";
    ReordererPtr go = makeReorderer("GO");
    Permutation p = go->reorder(graph);
    Graph reordered = applyPermutation(graph, p);

    PageRankKernel pagerank2;
    double pr2_s = timedRun(pagerank2, reordered).seconds;
    const PageRankResult &pr2 = pagerank2.result(reordered);

    std::cout << "PageRank: " << formatDouble(pr_s, 3) << " s -> "
              << formatDouble(pr2_s, 3) << " s after GOrder ("
              << formatDouble(go->stats().preprocessSeconds, 2)
              << " s preprocessing)\n";
    double saved = pr_s - pr2_s;
    if (saved > 0.0) {
        std::cout << "preprocessing amortizes after ~"
                  << formatDouble(
                         go->stats().preprocessSeconds / saved, 1)
                  << " PageRank runs\n";
    } else {
        std::cout << "no speedup at this scale - the paper's Table "
                     "IV effect needs data >> cache\n";
    }

    // Sanity: the scores are the same graph property.
    double delta = 0.0;
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        delta += std::abs(pr.scores[v] - pr2.scores[p.newId(v)]);
    std::cout << "score permutation check: L1 delta = "
              << formatDouble(delta, 9) << "\n";
    return 0;
}
