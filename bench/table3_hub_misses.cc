/**
 * @file
 * Table III: simulated misses for accessing data of vertices with
 * degree greater than a threshold.
 *
 * Paper shape (Section VI-B): "GO and SB have the lowest reloads of
 * HDV... GOrder increases the number of reloads of [the very largest]
 * HDV to provide space in cache for LDV", i.e. GO beats RO on hub
 * reloads while RO has the most hub reloads on social networks.
 */

#include <map>

#include "bench/common.h"
#include <algorithm>

#include "graph/degree.h"
#include "kernels/spmv_kernel.h"

using namespace gral;

int
main(int argc, char **argv)
{
    bench::ObsGuard obs_guard(argc, argv);
    bench::banner(
        "Table III: Hub-data misses",
        "paper Table III (misses to data of vertices with degree > M)",
        "GO and SB lowest on moderate hubs; RO the most on social "
        "networks");

    const std::vector<std::string> ras = {"Bl", "SB", "GO", "RO"};

    TextTable table(
        {"Dataset", "MinDeg", "Bl", "SB", "GO", "RO"});

    std::map<std::string, std::map<std::string, std::uint64_t>>
        at_min20; // dataset -> ra -> misses above the avg degree
    std::map<std::string, std::map<std::string, std::uint64_t>>
        at_extreme; // dataset -> ra -> misses at the top threshold

    ExperimentOptions options = bench::benchOptions();
    options.runTiming = false;

    for (const std::string &id : bench::datasets()) {
        Graph base = makeDataset(id, bench::scale());
        // Thresholds scaled per dataset (the paper uses 20 / 100 /
        // 2000 on billion-edge graphs whose reuse degrees span far
        // more decades): the average out-degree plus the 99th and
        // 99.99th percentiles of the out-degree distribution (the
        // reuse count in a pull traversal). Quantiles keep every row
        // populated even for web graphs, whose bounded out-degrees
        // have no deep tail.
        std::vector<EdgeId> sorted_out =
            degrees(base, Direction::Out);
        std::sort(sorted_out.begin(), sorted_out.end());
        auto quantile = [&](double q) {
            return sorted_out[static_cast<std::size_t>(
                q * (sorted_out.size() - 1))];
        };
        EdgeId avg = std::max<EdgeId>(
            1, static_cast<EdgeId>(base.averageDegree()));
        std::vector<EdgeId> thresholds = {avg, quantile(0.99),
                                          quantile(0.9999)};
        options.sim.missThresholds = thresholds;
        std::map<std::string, std::vector<std::uint64_t>> cells;
        for (const std::string &ra : ras) {
            RaExperimentResult result =
                runRaExperiment(base, ra, options);
            cells[ra] = result.profile.missesAboveThreshold;
            at_min20[id][ra] = result.profile.missesAboveThreshold[0];
            at_extreme[id][ra] =
                result.profile.missesAboveThreshold[2];
        }
        for (std::size_t t = 0; t < thresholds.size(); ++t) {
            table.addRow({id, std::to_string(thresholds[t]),
                          formatCount(cells["Bl"][t]),
                          formatCount(cells["SB"][t]),
                          formatCount(cells["GO"][t]),
                          formatCount(cells["RO"][t])});
        }
    }
    table.print(std::cout);
    std::cout << "\n";

    // Shape: on social networks GO reloads HDV (degree > average)
    // less than RO (paper: "RO has the most reloads").
    bool go_beats_ro = true;
    // Paper nuance: "For Twitter MPI and Friendster SB has lower
    // reloads of vertices with degree > 2000; but, for vertices with
    // degree > 20, GO has the lower reloads" — SB's degree-ordering
    // pins the extreme hubs, GO optimizes the broader HDV band.
    bool sb_wins_extreme = true;
    bool go_wins_moderate = true;
    for (const std::string &id : bench::datasets()) {
        if (datasetSpec(id).type != GraphType::SocialNetwork)
            continue;
        go_beats_ro =
            go_beats_ro && at_min20[id]["GO"] < at_min20[id]["RO"];
        sb_wins_extreme =
            sb_wins_extreme &&
            at_extreme[id]["SB"] <= at_extreme[id]["GO"];
        go_wins_moderate =
            go_wins_moderate &&
            at_min20[id]["GO"] <= at_min20[id]["SB"];
    }
    bench::shapeCheck(
        "GO reloads hub data less than RO on social networks",
        go_beats_ro);
    bench::shapeCheck(
        "SB pins the extreme hubs best (reloads <= GO at the top "
        "threshold)",
        sb_wins_extreme);
    bench::shapeCheck(
        "GO reloads the broader HDV band less than SB",
        go_wins_moderate);
    return 0;
}
