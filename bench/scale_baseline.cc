/**
 * @file
 * Scale-path perf baselines: parallel builder throughput, .gralb
 * convert/mmap-load cost, and per-RA compressed bytes/edge.
 *
 * This bench does not reproduce a paper artefact; it records the
 * numbers the out-of-core storage path is measured against. Run with
 *
 *   build/bench/scale_baseline --metrics-out=BENCH_scale.json
 *
 * and commit the JSON under bench/baselines/. Gauge families:
 *
 *   bench/scale/build/{edges, seq_medges_per_s, par_medges_per_s,
 *                      par_threads, speedup}
 *   bench/scale/gralb/{raw_file_bytes, raw_write_ms, mmap_open_ms}
 *   bench/scale/ra/<ra>/compressed_bytes_per_edge
 *   bench/scale/peak_rss_bytes
 *
 * Two graph sizes on purpose: the builder/convert/mmap timings use a
 * multi-million-edge RMAT (the path the format exists for), while
 * the per-RA compression sweep uses a smaller RMAT so the expensive
 * reorderers (GO, RO) keep the bench CI-feasible. Compressed
 * bytes/edge is scale-free enough for ranking RAs — it measures
 * neighbour-ID delta entropy, not wall time.
 *
 * The >=3x parallel-speedup acceptance check only asserts on hosts
 * with >=4 cores; below that it prints the measured ratio and moves
 * on (a 1-core container cannot demonstrate parallel speedup).
 */

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench/common.h"
#include "graph/builder.h"
#include "graph/builder_parallel.h"
#include "graph/generators.h"
#include "graph/storage/gralb.h"
#include "graph/storage/varint.h"
#include "obs/metrics.h"
#include "obs/perf/rusage.h"
#include "obs/timer.h"
#include "reorder/registry.h"

using namespace gral;

namespace
{

/** Best-of-N wall seconds of @p body. */
template <typename Body>
double
bestOf(int repeats, Body &&body)
{
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
        double elapsed = 0.0;
        {
            ScopedTimer timer(elapsed);
            body();
        }
        if (r == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard obs_guard(argc, argv);
    bench::banner(
        "Scale-path baselines (builder / .gralb / compression)",
        "none (perf regression baseline, not a paper artefact)",
        "parallel build beats sequential given cores; mmap load is "
        "O(1); compressed B/E shrinks under locality-improving RAs");

    MetricsRegistry &registry = MetricsRegistry::global();

    // GRAL_SCALE doubles edges per unit: scale 18 RMAT (~4M directed
    // edges after cleanup) at the default 1.0.
    RMatParams params;
    params.scale = 18 + static_cast<unsigned>(std::lround(
                            std::log2(std::max(1.0, bench::scale()))));
    Graph seeded = generateRMat(params);
    std::vector<Edge> edges = seeded.edgeList();
    const double medges =
        static_cast<double>(edges.size()) / 1e6;
    registry.gauge("bench/scale/build/edges")
        .set(static_cast<double>(edges.size()));

    // --- builder throughput: sequential vs work-stealing ----------
    const int repeats = 3;
    double seq_s = bestOf(repeats, [&] {
        GraphBuilder builder;
        builder.addEdges(edges);
        Graph graph = builder.finalize();
        if (graph.numEdges() == 0)
            std::abort(); // keep the build from being optimized out
    });
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned par_threads = std::max(1u, hw == 0 ? 1u : hw);
    Graph built;
    double par_s = bestOf(repeats, [&] {
        built = buildGraphParallel(0, edges);
    });
    const double seq_rate = medges / seq_s;
    const double par_rate = medges / par_s;
    const double speedup = seq_s / par_s;
    registry.gauge("bench/scale/build/seq_medges_per_s").set(seq_rate);
    registry.gauge("bench/scale/build/par_medges_per_s").set(par_rate);
    registry.gauge("bench/scale/build/par_threads")
        .set(static_cast<double>(par_threads));
    registry.gauge("bench/scale/build/speedup").set(speedup);

    TextTable build_table(
        {"Builder", "Threads", "Time(s)", "MEdges/s"});
    build_table.addRow({"sequential", "1", formatDouble(seq_s, 3),
                        formatDouble(seq_rate, 1)});
    build_table.addRow({"parallel", std::to_string(par_threads),
                        formatDouble(par_s, 3),
                        formatDouble(par_rate, 1)});
    build_table.print(std::cout);
    std::cout << "\n";

    if (hw >= 4) {
        bench::shapeCheck("parallel build >=3x on >=4 cores",
                          speedup >= 3.0);
        if (speedup < 3.0)
            return 1;
    } else {
        std::cout << "[shape] parallel speedup " // informational only
                  << formatDouble(speedup, 2) << "x on " << hw
                  << " core(s): >=3x check needs >=4 cores, skipped\n";
    }

    // --- .gralb write + O(1) mmap load ----------------------------
    const std::string raw_path = "/tmp/gral_scale_bench.gralb";
    double write_s = 0.0;
    GralbWriteResult raw_written;
    {
        ScopedTimer timer(write_s);
        raw_written = writeGralbFile(built, raw_path);
    }

    double open_s = bestOf(repeats, [&] {
        MappedGraph mapped = MappedGraph::open(raw_path);
        if (mapped.numEdges() != built.numEdges())
            std::abort();
    });
    registry.gauge("bench/scale/gralb/raw_file_bytes")
        .set(static_cast<double>(raw_written.fileBytes));
    registry.gauge("bench/scale/gralb/raw_write_ms")
        .set(write_s * 1e3);
    registry.gauge("bench/scale/gralb/mmap_open_ms")
        .set(open_s * 1e3);

    TextTable gralb_table({"File", "Bytes", "Load"});
    gralb_table.addRow({"raw", formatBytes(raw_written.fileBytes),
                        formatDouble(open_s * 1e3, 3) + " ms"});
    gralb_table.print(std::cout);
    std::cout << "\n";
    bench::shapeCheck("mmap load is O(1), not O(E) (< 50 ms)",
                      open_s * 1e3 < 50.0);
    std::remove(raw_path.c_str());

    // --- per-RA compressed bytes/edge (locality metric) -----------
    RMatParams ra_params;
    ra_params.scale = 14;
    Graph ra_base = generateRMat(ra_params);
    TextTable ra_table({"RA", "Comp B/E"});
    double baseline_bpe = 0.0;
    double best_bpe = 0.0;
    for (const std::string &ra : reordererNames()) {
        ReorderStats stats;
        Graph relabeled = reorderedGraph(ra_base, ra, &stats);
        double bpe = compressedBytesPerEdge(relabeled);
        registry
            .gauge("bench/scale/ra/" + ra +
                   "/compressed_bytes_per_edge")
            .set(bpe);
        ra_table.addRow({ra, formatDouble(bpe, 3)});
        if (ra == "Bl")
            baseline_bpe = bpe;
        if (best_bpe == 0.0 || bpe < best_bpe)
            best_bpe = bpe;
    }
    ra_table.print(std::cout);
    std::cout << "\n";
    bench::shapeCheck(
        "some RA compresses better than the Bl baseline",
        best_bpe < baseline_bpe);

    const std::uint64_t peak_rss = peakRssBytes();
    registry.gauge("bench/scale/peak_rss_bytes")
        .set(static_cast<double>(peak_rss));
    std::cout << "[memory] peak RSS " << formatBytes(peak_rss)
              << " for " << formatDouble(medges, 1)
              << " M input edges\n";
    return 0;
}
