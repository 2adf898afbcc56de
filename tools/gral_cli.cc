/**
 * @file
 * gral command-line tool.
 *
 * Subcommands:
 *   generate  <type> <vertices> <out>            synthesize a graph
 *   convert   [--compressed] [--graph-format=F] <in> <out>
 *                                                convert between text
 *                                                and .gralb
 *   info      <graph>                            basic statistics
 *   reorder   <graph> <RA|perm.txt> <out>        apply an RA or a
 *                                                permutation file
 *   metrics   <graph>                            locality metrics
 *   simulate  <graph> [cacheKB]                  SpMV cache simulation
 *   experiment [--kernel=K] [--hw-counters] <graph> [RAs] [cacheKB]
 *                                                full per-(kernel, RA)
 *                                                pipeline;
 *                                                --hw-counters adds
 *                                                measured LLC miss
 *                                                rates via perf
 *
 * Global flags (any subcommand, stripped before dispatch):
 *   --metrics-out=FILE.json   write a MetricsRegistry snapshot
 *   --trace-out=FILE.json     write collected spans as Chrome trace
 *   --log-level=LEVEL         trace|debug|info|warn|error|off
 *
 * Graph files ending in .gralb are the memory-mapped binary CSR
 * format (O(1) load — build once with `gral convert`); anything else
 * is parsed as a text edge list ("src dst" per line), streamed in
 * bounded chunks and assembled by the parallel builder. The retired
 * .grf binary format is refused, for reading and for writing.
 */

#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "common/check.h"
#include "graph/builder_parallel.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/storage/gralb.h"
#include "graph/validate.h"
#include "kernels/kernel.h"
#include "kernels/spmv_kernel.h"
#include "metrics/aid.h"
#include "metrics/asymmetricity.h"
#include "metrics/ecs.h"
#include "metrics/hub_coverage.h"
#include "metrics/miss_rate.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/perf/backend.h"
#include "reorder/registry.h"

using namespace gral;

namespace
{

bool
hasSuffix(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

bool
isGralbPath(const std::string &path)
{
    return hasSuffix(path, ".gralb");
}

/** Refuse the retired .grf format instead of reading its bytes as
 *  text or writing text under its name. */
void
rejectGrfPath(const std::string &path)
{
    if (hasSuffix(path, ".grf"))
        throw ValidationError(path + ": the .grf format is no longer "
                              "supported; use .gralb");
}

/**
 * Parse the whole of @p text as a non-negative integer that fits T and
 * is at most @p max. Empty text, a sign, trailing bytes and values out
 * of range are refused.
 * @throws std::invalid_argument naming the argument @p what.
 */
template <typename T>
T
parseCount(const char *text, const char *what,
           T max = std::numeric_limits<T>::max())
{
    const char *end = text + std::strlen(text);
    T value = 0;
    auto [stop, status] = std::from_chars(text, end, value);
    if (text == end || status == std::errc::invalid_argument ||
        stop != end)
        throw std::invalid_argument(
            std::string(what) + ": expected a non-negative integer, "
            "got '" + text + "'");
    if (status == std::errc::result_out_of_range || value > max)
        throw std::invalid_argument(std::string(what) + ": '" + text +
                                    "' is out of range (at most " +
                                    std::to_string(max) + ")");
    return value;
}

/** Parse a cache size in KB whose byte count fits 64 bits. */
std::uint64_t
parseCacheKb(const char *text)
{
    return parseCount<std::uint64_t>(
        text, "cacheKB", std::numeric_limits<std::uint64_t>::max() / 1024);
}

/** Streaming-parse chunk size: ~24 MB of parse-side state. */
constexpr std::size_t kTextChunkEdges = std::size_t{1} << 21;

/**
 * A loaded graph plus whatever owns its storage: an owned Graph for
 * text inputs, the MappedGraph for .gralb (which holds the mapping
 * and any decoded compressed direction). Commands work on `view`; the
 * holder keeps the backing alive for the command's duration.
 */
struct LoadedGraph
{
    Graph owned;
    MappedGraph mapped;
    GraphView view;
    bool isMapped = false;
};

LoadedGraph
loadView(const std::string &path)
{
    rejectGrfPath(path);
    LoadedGraph loaded;
    if (isGralbPath(path)) {
        // open() checks the header and section geometry and decodes
        // (and checks) compressed directions; raw sections stay
        // zero-copy and unchecked. The file is untrusted: check the
        // whole body here, before any subcommand walks it.
        loaded.mapped = MappedGraph::open(path);
        loaded.isMapped = true;
        loaded.view = loaded.mapped.view();
        validateGraph(loaded.view, path);
        return loaded;
    }
    // Stream the text file in bounded chunks (no per-line stream
    // churn), then assemble CSR+CSC on the work-stealing pool.
    std::vector<Edge> edges;
    readEdgeListTextChunkedFile(
        path, kTextChunkEdges, [&](std::span<const Edge> chunk) {
            edges.insert(edges.end(), chunk.begin(), chunk.end());
        });
    loaded.owned = buildGraphParallel(0, edges);
    // Files are untrusted: reject structural corruption here, with
    // the file name attached, instead of misbehaving downstream.
    validateGraph(loaded.owned, path);
    loaded.view = loaded.owned;
    return loaded;
}

void
saveGralb(const GraphView &graph, const std::string &path,
          bool compressed)
{
    GralbWriteOptions options;
    options.compressed = compressed;
    GralbWriteResult result = writeGralbFile(graph, path, options);
    std::cout << "wrote " << path << ": "
              << formatBytes(result.fileBytes);
    if (compressed)
        std::cout << ", "
                  << formatDouble(result.compressedBytesPerEdge, 2)
                  << " compressed B/edge";
    std::cout << "\n";
}

void
saveText(const GraphView &graph, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open " + path);
    writeEdgeListText(graph, out);
}

void
save(const GraphView &graph, const std::string &path)
{
    rejectGrfPath(path);
    if (isGralbPath(path))
        saveGralb(graph, path, /*compressed=*/false);
    else
        saveText(graph, path);
}

int
cmdGenerate(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: gral generate <social|web|rmat|uniform> "
                     "<vertices> <out>\n";
        return 2;
    }
    std::string type = argv[0];
    auto vertices = parseCount<VertexId>(argv[1], "vertices");
    Graph graph;
    if (type == "social") {
        SocialNetworkParams params;
        params.numVertices = vertices;
        graph = generateSocialNetwork(params);
    } else if (type == "web") {
        WebGraphParams params;
        params.numVertices = vertices;
        graph = generateWebGraph(params);
    } else if (type == "rmat") {
        // R-MAT rounds up to 2^scale vertices, and 2^scale must itself
        // be a VertexId: search the scale in 64 bits.
        constexpr unsigned kMaxRmatScale =
            std::numeric_limits<VertexId>::digits - 1;
        RMatParams params;
        params.scale = 1;
        while ((std::uint64_t{1} << params.scale) < vertices)
            ++params.scale;
        if (params.scale > kMaxRmatScale)
            throw std::invalid_argument(
                "vertices: rmat rounds '" + std::string(argv[1]) +
                "' up to a power of two above its limit of " +
                std::to_string(std::uint64_t{1} << kMaxRmatScale));
        graph = generateRMat(params);
    } else if (type == "uniform") {
        graph = generateErdosRenyi(vertices,
                                   static_cast<EdgeId>(vertices) * 16,
                                   1);
    } else {
        std::cerr << "unknown graph type: " << type << "\n";
        return 2;
    }
    save(graph, argv[2]);
    std::cout << "wrote " << argv[2] << ": |V|="
              << graph.numVertices() << " |E|=" << graph.numEdges()
              << "\n";
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    // Strip --compressed / --graph-format=F before the positionals.
    bool compressed = false;
    std::string format;
    std::vector<char *> positional;
    for (int i = 0; i < argc; ++i) {
        constexpr const char *kFormatFlag = "--graph-format=";
        if (std::strcmp(argv[i], "--compressed") == 0)
            compressed = true;
        else if (std::strncmp(argv[i], kFormatFlag,
                              std::strlen(kFormatFlag)) == 0)
            format = argv[i] + std::strlen(kFormatFlag);
        else
            positional.push_back(argv[i]);
    }
    if (positional.size() < 2) {
        std::cerr << "usage: gral convert [--compressed] "
                     "[--graph-format=text|gralb] <in> <out>\n"
                     "default format follows the output extension; "
                     "--compressed needs a .gralb output (or "
                     "--graph-format=gralb)\n";
        return 2;
    }
    const std::string in_path = positional[0];
    const std::string out_path = positional[1];
    rejectGrfPath(out_path);
    if (format.empty())
        format = isGralbPath(out_path) ? "gralb" : "text";
    if (format != "text" && format != "gralb")
        throw ValidationError("unknown --graph-format '" + format +
                              "' (expected text or gralb)");
    if (compressed && format != "gralb")
        throw ValidationError(
            "--compressed requires the gralb format (got " + format +
            " from the output extension)");

    LoadedGraph loaded = loadView(in_path);
    if (format == "gralb")
        saveGralb(loaded.view, out_path, compressed);
    else
        saveText(loaded.view, out_path);
    std::cout << "converted " << in_path << " -> " << out_path
              << " (" << format << ")\n";
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 1) {
        std::cerr << "usage: gral info <graph>\n";
        return 2;
    }
    LoadedGraph loaded = loadView(argv[0]);
    const GraphView &graph = loaded.view;
    TextTable table({"Property", "Value"});
    table.addRow({"vertices", formatCount(graph.numVertices())});
    table.addRow({"edges", formatCount(graph.numEdges())});
    table.addRow({"avg degree",
                  formatDouble(graph.averageDegree(), 2)});
    table.addRow(
        {"max in-degree",
         formatCount(maxDegree(graph, Direction::In))});
    table.addRow(
        {"max out-degree",
         formatCount(maxDegree(graph, Direction::Out))});
    table.addRow({"in-hubs", formatCount(inHubs(graph).size())});
    table.addRow({"out-hubs", formatCount(outHubs(graph).size())});
    table.addRow({"topology footprint",
                  formatBytes(graph.footprintBytes())});
    if (loaded.isMapped) {
        table.addRow({"backing file",
                      formatBytes(loaded.mapped.fileBytes())});
        table.addRow({"compressed",
                      loaded.mapped.isCompressed() ? "yes" : "no"});
    }
    table.print(std::cout);
    return 0;
}

int
cmdReorder(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: gral reorder <graph> <RA|perm.txt> "
                     "<out>\nRAs:";
        for (const std::string &name : reordererNames())
            std::cerr << " " << name;
        std::cerr << "\npermutation file: one new ID per line, "
                     "indexed by old ID\n";
        return 2;
    }
    LoadedGraph loaded = loadView(argv[0]);
    const GraphView &graph = loaded.view;
    std::string source = argv[1];
    Permutation p;
    std::string label;
    if (std::ifstream probe(source); probe.good()) {
        // Untrusted relabeling array from a file: must be a bijection
        // onto [0, |V|), or applyPermutation scribbles out of range.
        p = readPermutationTextFile(source);
        validatePermutation(p, graph.numVertices(), source);
        label = "permutation file " + source;
    } else {
        ReordererPtr ra = makeReorderer(source);
        p = ra->reorder(graph);
        label = ra->name() + " (preprocessing " +
                formatDouble(ra->stats().preprocessSeconds, 2) + " s)";
    }
    Graph reordered = applyPermutation(graph, p);
    save(reordered, argv[2]);
    std::cout << label << "; wrote " << argv[2] << "\n";
    return 0;
}

int
cmdMetrics(int argc, char **argv)
{
    if (argc < 1) {
        std::cerr << "usage: gral metrics <graph>\n";
        return 2;
    }
    LoadedGraph loaded = loadView(argv[0]);
    const GraphView &graph = loaded.view;
    TextTable table({"Metric", "Value"});
    table.addRow({"mean in-AID (N2N)",
                  formatDouble(meanAid(graph, Direction::In), 1)});
    table.addRow({"average gap profile",
                  formatDouble(averageGapProfile(graph), 1)});
    table.addRow(
        {"mean asymmetricity %",
         formatDouble(100.0 * meanAsymmetricity(graph), 1)});
    auto coverage = hubCoverage(
        graph, {std::max<std::uint64_t>(1, graph.numVertices() / 50)});
    table.addRow({"top-2% in-hub edge coverage %",
                  formatDouble(coverage[0].inHubEdgePercent, 1)});
    table.addRow({"top-2% out-hub edge coverage %",
                  formatDouble(coverage[0].outHubEdgePercent, 1)});
    table.print(std::cout);
    return 0;
}

int
cmdSimulate(int argc, char **argv)
{
    if (argc < 1) {
        std::cerr << "usage: gral simulate <graph> [cacheKB]\n";
        return 2;
    }
    std::uint64_t cache_kb = argc >= 2 ? parseCacheKb(argv[1]) : 128;
    LoadedGraph loaded = loadView(argv[0]);
    const GraphView &graph = loaded.view;

    SimulationOptions sim;
    sim.cache.sizeBytes = cache_kb * 1024;
    sim.cache.associativity = 8;
    // 4 KB pages: with a cache this small, huge pages would make the
    // TLB column trivially zero.
    sim.tlb = stlb4kConfig();
    sim.tlb.entries = 64;
    sim.tlb.associativity = 4;

    // Each measurement streams a fresh set of producers through the
    // cache model; the trace is never materialized.
    TraceOptions trace_options;
    auto in_deg = degrees(graph, Direction::In);
    auto out_deg = degrees(graph, Direction::Out);
    auto profile =
        simulateMissProfile(makePullProducers(graph, trace_options),
                            in_deg, out_deg, sim);

    EcsOptions ecs_options;
    ecs_options.cache = sim.cache;
    ecs_options.scanEvery = 1 << 18;
    auto ecs =
        effectiveCacheSize(makePullProducers(graph, trace_options),
                           trace_options.map, ecs_options);

    TextTable table({"Simulated metric", "Value"});
    table.addRow({"cache", std::to_string(cache_kb) + " KB DRRIP"});
    table.addRow({"accesses", formatCount(profile.cache.accesses())});
    table.addRow({"L3 misses", formatCount(profile.cache.misses)});
    table.addRow(
        {"L3 miss rate %",
         formatDouble(100.0 * profile.cache.missRate(), 2)});
    table.addRow(
        {"vertex-data miss rate %",
         formatDouble(100.0 * profile.dataMissRate(), 2)});
    table.addRow({"DTLB misses", formatCount(profile.tlb.misses)});
    table.addRow({"effective cache size %",
                  formatDouble(ecs.avgEcsPercent, 1)});
    table.addRow({"trace accesses",
                  formatCount(profile.totalAccesses)});
    table.addRow({"peak trace memory",
                  formatBytes(profile.peakResidentBytes())});
    table.print(std::cout);
    return 0;
}

int
cmdExperiment(int argc, char **argv)
{
    // Strip --kernel=NAME / --kernel NAME / --hw-counters before the
    // positional arguments.
    std::string kernel = "spmv";
    bool hw_counters = false;
    std::vector<char *> positional;
    for (int i = 0; i < argc; ++i) {
        constexpr const char *kFlag = "--kernel=";
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
            kernel = argv[i] + std::strlen(kFlag);
        else if (std::strcmp(argv[i], "--kernel") == 0 &&
                 i + 1 < argc)
            kernel = argv[++i];
        else if (std::strcmp(argv[i], "--hw-counters") == 0)
            hw_counters = true;
        else
            positional.push_back(argv[i]);
    }
    if (positional.empty()) {
        std::cerr << "usage: gral experiment [--kernel=K] "
                     "[--hw-counters] <graph> "
                     "[RA,RA,...] [cacheKB]\nkernels:";
        for (const std::string &name : kernelNames())
            std::cerr << " " << name;
        std::cerr << "\nRAs:";
        for (const std::string &name : reordererNames())
            std::cerr << " " << name;
        std::cerr << "\n";
        return 2;
    }
    std::string ra_list =
        positional.size() >= 2 ? positional[1] : "Bl,SB,GO,RO";
    std::uint64_t cache_kb =
        positional.size() >= 3 ? parseCacheKb(positional[2]) : 128;
    LoadedGraph loaded = loadView(positional[0]);
    const GraphView &graph = loaded.view;

    std::vector<std::string> ras;
    for (std::size_t start = 0; start <= ra_list.size();) {
        std::size_t comma = ra_list.find(',', start);
        if (comma == std::string::npos)
            comma = ra_list.size();
        if (comma > start)
            ras.push_back(ra_list.substr(start, comma - start));
        start = comma + 1;
    }
    if (ras.empty()) {
        std::cerr << "no RAs given\n";
        return 2;
    }

    // Same scaled-down L3 as `simulate`, so synthetic graphs exercise
    // the DRRIP duel; PSEL is sampled densely because these runs are
    // short.
    ExperimentOptions options;
    options.kernel = kernel;
    options.sim.cache.sizeBytes = cache_kb * 1024;
    options.sim.cache.associativity = 8;
    options.sim.tlb = stlb4kConfig();
    options.sim.tlb.entries = 64;
    options.sim.tlb.associativity = 4;
    options.sim.pselSampleEvery = 1024;
    options.timingRepeats = 2;
    options.hwCounters = hw_counters;
    if (hw_counters) {
        setHwCountersEnabled(true);
        std::cout << "hw counters: backend="
                  << toString(probePerfBackend())
                  << " (perf_event_paranoid="
                  << perfParanoidLevel() << ")\n";
    }

    std::cout << "kernel: " << kernel << "\n";
    TextTable table({"RA", "Relab", "Iters", "Preproc s", "Time ms",
                     "L3 miss %", "HW LLC miss %", "Comp B/E",
                     "Push hub miss", "Pull hub miss",
                     "PSEL samples"});
    for (const std::string &ra : ras) {
        GRAL_LOG(info) << "running experiment cell"
                       << logField("ra", ra)
                       << logField("kernel", kernel);
        RaExperimentResult result = runRaExperiment(graph, ra, options);
        recordExperimentMetrics(result);
        // The measured column says "unavailable" explicitly — on a
        // host with no perf access a blank or zero would read as a
        // perfect cache. A software-rung reading counted, but the
        // PMU (and so LLC misses) was out of reach.
        double hw_rate = result.hw.llcMissRate();
        std::string hw_cell;
        if (result.hw.valid && hw_rate >= 0.0)
            hw_cell = formatDouble(100.0 * hw_rate, 2);
        else if (result.hw.valid)
            hw_cell = "sw-only";
        else
            hw_cell = hw_counters ? "unavailable" : "-";
        table.addRow(
            {result.ra, result.relabeled ? "yes" : "no",
             formatCount(result.kernelRun.iterations),
             formatDouble(result.reorderStats.preprocessSeconds, 3),
             formatDouble(result.traversalMs, 2),
             formatDouble(100.0 * result.profile.cache.missRate(), 2),
             hw_cell,
             formatDouble(result.compressedBytesPerEdge, 2),
             formatCount(result.profile.pushPhase.hubMisses),
             formatCount(result.profile.pullPhase.hubMisses),
             formatCount(result.profile.pselSamples.size())});
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    ObsOptions obs;
    try {
        obs = extractObsFlags(args);
    } catch (const std::invalid_argument &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }

    if (args.empty()) {
        std::cerr
            << "gral — graph reordering & locality analysis toolkit\n"
               "usage: gral [--metrics-out=F] [--trace-out=F] "
               "[--log-level=L]\n"
               "            <generate|convert|info|reorder|metrics|"
               "simulate|experiment> ...\n";
        return 2;
    }
    std::string command = args[0];
    std::vector<char *> rest;
    rest.reserve(args.size() - 1);
    for (std::size_t i = 1; i < args.size(); ++i)
        rest.push_back(args[i].data());
    int rest_argc = static_cast<int>(rest.size());
    char **rest_argv = rest.data();

    int code = -1;
    try {
        if (command == "generate")
            code = cmdGenerate(rest_argc, rest_argv);
        else if (command == "convert")
            code = cmdConvert(rest_argc, rest_argv);
        else if (command == "info")
            code = cmdInfo(rest_argc, rest_argv);
        else if (command == "reorder")
            code = cmdReorder(rest_argc, rest_argv);
        else if (command == "metrics")
            code = cmdMetrics(rest_argc, rest_argv);
        else if (command == "simulate")
            code = cmdSimulate(rest_argc, rest_argv);
        else if (command == "experiment")
            code = cmdExperiment(rest_argc, rest_argv);
        if (code == 0)
            writeObsFiles(obs);
    } catch (const ValidationError &error) {
        std::cerr << "error: invalid input: " << error.what() << "\n";
        return 1;
    } catch (const CheckError &error) {
        std::cerr << "error: internal invariant violated: "
                  << error.what() << "\n";
        return 1;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    if (code < 0) {
        std::cerr << "unknown command: " << command << "\n";
        return 2;
    }
    return code;
}
