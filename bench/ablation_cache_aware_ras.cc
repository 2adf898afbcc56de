/**
 * @file
 * Ablation: the paper's Section VIII-C future-work suggestions —
 * making RAs cache-aware.
 *
 * "RAs are cache-oblivious algorithms and do not take the cache size
 * into account. RAs can be improved by considering caching
 * parameters: SB can specify the number of hubs ... based on the
 * cache size, GO can use cache size to identify its window size, and
 * RO can use cache size as an indicator of the maximum number of
 * vertices in a community."
 *
 * This bench sweeps exactly those three knobs against the simulated
 * data-miss rate, so the suggestion can be evaluated rather than
 * speculated about.
 */

#include "bench/common.h"
#include "graph/degree.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"
#include "reorder/gorder.h"
#include "reorder/rabbit_order.h"
#include "reorder/slashburn.h"

using namespace gral;

namespace
{

double
missRateAfter(const Graph &base, Reorderer &ra,
              const SimulationOptions &sim)
{
    Graph graph = applyPermutation(base, ra.reorder(base));
    return 100.0 *
           bench::pullMissProfile(graph, sim, {}).dataMissRate();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard obs_guard(argc, argv);
    bench::banner(
        "Ablation: cache-aware RA parameters",
        "paper Section VIII-C (future-work suggestions)",
        "each RA has a best-region for its cache-coupled knob; the "
        "defaults are not universally optimal");

    SimulationOptions sim;
    sim.cache = bench::benchCache();
    sim.simulateTlb = false;

    Graph social = makeDataset("twtr-s", bench::scale());
    Graph web = makeDataset("ukdls-s", bench::scale());

    // 1. SlashBurn hub fraction (paper: hubs per iteration from the
    //    cache size).
    std::cout << "--- SlashBurn: hub fraction k (on twtr-s) ---\n";
    TextTable sb_table({"k (% of |V|)", "iterations",
                        "prep (s)", "data miss %"});
    for (double k : {0.005, 0.01, 0.02, 0.05, 0.1}) {
        SlashBurnConfig config;
        config.hubFraction = k;
        SlashBurn ra(config);
        double rate = missRateAfter(social, ra, sim);
        sb_table.addRow(
            {formatDouble(100.0 * k, 1),
             std::to_string(ra.stats().iterations),
             formatDouble(ra.stats().preprocessSeconds, 2),
             formatDouble(rate, 1)});
    }
    sb_table.print(std::cout);

    // 2. GOrder window size (paper: from the cache size).
    std::cout << "\n--- GOrder: window size w (on twtr-s) ---\n";
    TextTable go_table({"w", "prep (s)", "data miss %"});
    double w5_rate = 0.0;
    double w_best = 1e9;
    for (unsigned w : {1u, 3u, 5u, 10u, 20u, 50u}) {
        GOrderConfig config;
        config.windowSize = w;
        GOrder ra(config);
        double rate = missRateAfter(social, ra, sim);
        if (w == 5)
            w5_rate = rate;
        w_best = std::min(w_best, rate);
        go_table.addRow(
            {std::to_string(w),
             formatDouble(ra.stats().preprocessSeconds, 2),
             formatDouble(rate, 1)});
    }
    go_table.print(std::cout);

    // 3. Rabbit-Order community cap (paper: cache size as maximum
    //    community size). Cache holds 16K vertex-data elements here.
    std::cout << "\n--- RabbitOrder: max community size (on ukdls-s) "
                 "---\n";
    TextTable ro_table({"cap (vertices)", "communities",
                        "data miss %"});
    VertexId cache_elems = static_cast<VertexId>(
        sim.cache.sizeBytes / kVertexDataBytes);
    for (VertexId cap : {cache_elems / 16, cache_elems / 4,
                         cache_elems, VertexId{0}}) {
        RabbitOrderConfig config;
        config.maxCommunitySize = cap;
        RabbitOrder ra(config);
        double rate = missRateAfter(web, ra, sim);
        ro_table.addRow(
            {cap == 0 ? "unlimited" : formatCount(cap),
             formatCount(ra.numCommunities()),
             formatDouble(rate, 1)});
    }
    ro_table.print(std::cout);
    std::cout << "\n";

    bench::shapeCheck(
        "the paper's default GO window (w=5) is within 10% of the "
        "best sweep point",
        w5_rate <= 1.10 * w_best);
    return 0;
}
