/**
 * @file
 * Table VI: CSC vs CSR read traversals.
 *
 * Both traversals perform the same *read* operation (each vertex sums
 * its neighbours' data) so the comparison isolates the format. Paper
 * shape (Section VII-B): "web graphs have faster CSR traversal, but
 * CSC traversal is faster for social networks" — because web graphs
 * have powerful in-hubs (reused in CSR) and social networks powerful
 * out-hubs (reused in CSC).
 */

#include <map>

#include "bench/common.h"
#include "graph/degree.h"
#include "kernels/parallel.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"

using namespace gral;

namespace
{

double
timeReadSum(const Graph &graph, Direction direction)
{
    std::vector<double> src(graph.numVertices(), 1.0);
    std::vector<double> dst(graph.numVertices(), 0.0);
    ParallelOptions options;
    options.numThreads = bench::realThreads();
    readSumParallel(graph, direction, src, dst, options); // warm-up
    double best = 0.0;
    for (int r = 0; r < 3; ++r) {
        ParallelResult result =
            readSumParallel(graph, direction, src, dst, options);
        if (r == 0 || result.wallMs < best)
            best = result.wallMs;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard obs_guard(argc, argv);
    bench::banner(
        "Table VI: CSC vs CSR read traversals",
        "paper Table VI (L3 misses / traversal time per format)",
        "CSR wins on web graphs (strong in-hubs); CSC wins on social "
        "networks (strong out-hubs)");

    TextTable table({"Dataset", "Type", "CSC misses(M)",
                     "CSR misses(M)", "CSC time(ms)", "CSR time(ms)"});

    std::map<std::string, std::map<std::string, double>> misses;

    SimulationOptions sim;
    sim.cache = bench::benchCache();
    sim.tlb = bench::benchTlb();
    sim.chunkSize = 1024;

    TraceOptions trace_options;
    trace_options.numThreads = bench::simThreads();

    for (const std::string &id : bench::datasets()) {
        Graph graph = makeDataset(id, bench::scale());

        // CSC read: processed vertices sum in-neighbours, so the
        // owner degree is the in-degree and the accessed (reused)
        // degree is the out-degree; CSR read is the mirror image.
        auto csc = bench::readSumMissProfile(graph, Direction::In,
                                             sim, trace_options);
        auto csr = bench::readSumMissProfile(graph, Direction::Out,
                                             sim, trace_options);

        misses[id]["CSC"] = static_cast<double>(csc.cache.misses);
        misses[id]["CSR"] = static_cast<double>(csr.cache.misses);

        table.addRow(
            {id, toString(datasetSpec(id).type),
             formatDouble(csc.cache.misses / 1e6, 2),
             formatDouble(csr.cache.misses / 1e6, 2),
             formatDouble(timeReadSum(graph, Direction::In), 1),
             formatDouble(timeReadSum(graph, Direction::Out), 1)});
    }
    table.print(std::cout);
    std::cout << "\n";

    bool social_pull = true;
    bool web_push = true;
    for (const std::string &id : bench::datasets()) {
        bool social =
            datasetSpec(id).type == GraphType::SocialNetwork;
        if (social)
            social_pull = social_pull &&
                          misses[id]["CSC"] < misses[id]["CSR"];
        else
            web_push =
                web_push && misses[id]["CSR"] < misses[id]["CSC"];
    }
    bench::shapeCheck(
        "social networks: CSC (pull) has fewer misses", social_pull);
    bench::shapeCheck("web graphs: CSR (push) has fewer misses",
                      web_push);
    return 0;
}
