/**
 * @file
 * Driver of the repo benchmark (README.md beside this file explains
 * the workloads and metrics; run.py is the entry point).
 *
 *   gral_perfbench setup --workload W --seed S --dir D [--scale X]
 *   gral_perfbench run   --workload W --seed S --dir D --seconds N
 *                        --trace 0|1 [--scale X]
 *
 * `setup` generates the workload's seeded input graph and writes it in
 * the workload's on-disk format, kSetupRepeats times, and prints the
 * times. `run` measures passes over that input for about N seconds:
 * untraced passes through runRaExperiment (trace 0), or one untraced
 * pass followed by traced passes that call each layer on its own
 * under a span (trace 1). Each command prints one JSON line last.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "bench/common.h"
#include "cachesim/access_stream.h"
#include "cachesim/cache.h"
#include "cachesim/tlb.h"
#include "common/check.h"
#include "graph/builder_parallel.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/permutation.h"
#include "graph/storage/gralb.h"
#include "graph/storage/varint.h"
#include "graph/validate.h"
#include "kernels/kernel.h"
#include "metrics/miss_rate.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perf/backend.h"
#include "obs/perf/rusage.h"
#include "obs/span.h"
#include "reorder/registry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace gral::perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Setup is timed this many times per run; run.py reports the
 *  median, so one slow generation does not move setup_s. */
constexpr unsigned kSetupRepeats = 3;
/** Accesses of the workload's own trace replayed through a bare
 *  Cache + Tlb per cell (the cachesim.cache layer). */
constexpr std::size_t kCacheSliceAccesses = std::size_t{1} << 21;
/** Text ingest chunk, as the CLI uses. */
constexpr std::size_t kTextChunkEdges = std::size_t{1} << 21;

enum class InputFormat : std::uint8_t
{
    Gralb,
    Text,
};

/** One benchmark workload; README.md records why each exists. */
struct Workload
{
    std::string name;
    std::string kernel;
    std::vector<std::string> ras;
    InputFormat format;
    /** Extra timing calls per cell in the traced pass, which give the
     *  real kernel's time distribution (kernels.run_ms_p50/p90). */
    unsigned kernelSamples;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"heavy_ra_social", "spmv", {"SB", "GO", "RO"},
         InputFormat::Gralb, 16},
        {"sim_cc_web", "cc", {"Bl", "DBG"}, InputFormat::Gralb, 4},
        {"light_ra_rmat", "spmv", {"DBG", "HubSort", "DegreeSort"},
         InputFormat::Text, 16},
    };
    return list;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &workload : workloads())
        if (workload.name == name)
            return workload;
    throw std::invalid_argument("unknown workload: " + name);
}

/** Every RA some workload runs: the per-layer reorder metrics name
 *  each of them on every workload (0 where a workload skips it). */
std::vector<std::string>
allRas()
{
    std::vector<std::string> ras;
    for (const Workload &workload : workloads())
        for (const std::string &ra : workload.ras)
            if (std::find(ras.begin(), ras.end(), ra) == ras.end())
                ras.push_back(ra);
    return ras;
}

/** The seeded input graph. @p scale shrinks it for the smoke test. */
Graph
generateInput(const Workload &workload, std::uint64_t seed, double scale)
{
    auto vertices = [scale](double base) {
        return static_cast<VertexId>(
            std::max(512.0, std::round(base * scale)));
    };
    if (workload.name == "heavy_ra_social") {
        SocialNetworkParams params;
        params.numVertices = vertices(150'000);
        params.edgesPerVertex = 10;
        params.seed = seed;
        return generateSocialNetwork(params);
    }
    if (workload.name == "sim_cc_web") {
        WebGraphParams params;
        params.numVertices = vertices(220'000);
        params.meanOutDegree = 20.0;
        params.seed = seed;
        return generateWebGraph(params);
    }
    RMatParams params;
    params.scale = static_cast<unsigned>(std::clamp(
        18.0 + std::round(std::log2(scale)), 9.0, 18.0));
    params.edgeFactor = 16;
    params.seed = seed;
    return generateRMat(params);
}

std::string
inputPath(const std::string &dir, const Workload &workload)
{
    return dir + "/" + workload.name +
           (workload.format == InputFormat::Gralb ? ".gralb" : ".el");
}

void
writeInput(const GraphView &graph, const Workload &workload,
           const std::string &path)
{
    if (workload.format == InputFormat::Gralb) {
        writeGralbFile(graph, path);
        return;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    writeEdgeListText(graph, out);
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** The input as the library sees it: an mmap'd `.gralb`, or a text
 *  edge list parsed, built in parallel and validated (the CLI's
 *  text path). */
struct LoadedInput
{
    std::optional<MappedGraph> mapped;
    Graph owned;
    GraphView view;
};

LoadedInput
loadInput(const Workload &workload, const std::string &path)
{
    LoadedInput input;
    if (workload.format == InputFormat::Gralb) {
        input.mapped = MappedGraph::open(path);
        input.view = input.mapped->view();
        return input;
    }
    std::vector<Edge> edges;
    readEdgeListTextChunkedFile(
        path, kTextChunkEdges, [&](std::span<const Edge> chunk) {
            edges.insert(edges.end(), chunk.begin(), chunk.end());
        });
    input.owned = buildGraphParallel(0, edges);
    validateGraph(input.owned, path);
    input.view = input.owned;
    return input;
}

/** FNV-1a over raw words. */
template <typename T>
std::uint64_t
fnv1a(std::span<const T> words, std::uint64_t hash = 1469598103934665603ull)
{
    for (T word : words) {
        auto value = static_cast<std::uint64_t>(word);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

/** Fingerprint of the CSR: offsets, then neighbour IDs. */
std::uint64_t
graphFingerprint(const GraphView &graph)
{
    return fnv1a(graph.out().edges(), fnv1a(graph.out().offsets()));
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << std::hex << value;
    return out.str();
}

/** Nearest-rank percentile @p p in [0, 1]. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/** What every cell of the workload must agree with: the base graph's
 *  shape and its order-independent kernel checksum (the Bl cell's:
 *  the SpMV result sum over an all-ones vector is |E|, the CC result
 *  is the component count). */
struct Reference
{
    VertexId vertices = 0;
    EdgeId edges = 0;
    std::uint64_t fingerprint = 0;
    double checksum = 0.0;
};

/** One cell's outputs that must repeat bit for bit: across passes,
 *  between the traced and untraced pass, and across runs of a seed. */
struct CellOutput
{
    std::string ra;
    /** FNV-1a of the permutation; 0 when the pass does not see it
     *  (runRaExperiment keeps the permutation to itself). */
    std::uint64_t permutationHash = 0;
    unsigned reorderIterations = 0;
    double compBytesPerEdge = 0.0;
    double checksum = 0.0;
    unsigned kernelIterations = 0;
    std::uint64_t accesses = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t dtlbMisses = 0;
    /** Empty when every check passed. */
    std::string failure;
};

/** The checks both pass kinds can make on a finished cell. */
std::string
checkCell(const CellOutput &cell, const MissProfileResult &profile,
          const Reference &reference)
{
    if (cell.checksum != reference.checksum) {
        std::ostringstream out;
        out.precision(17);
        out << "kernel checksum " << cell.checksum << " != base "
            << reference.checksum;
        return out.str();
    }
    if (profile.cache.accesses() != profile.totalAccesses ||
        profile.tlb.accesses() != profile.totalAccesses)
        return "cache/TLB hits + misses != simulated accesses";
    return {};
}

void
fillFromProfile(CellOutput &cell, const MissProfileResult &profile)
{
    cell.accesses = profile.totalAccesses;
    cell.l3Misses = profile.cache.misses;
    cell.dtlbMisses = profile.tlb.misses;
}

/** Why @p cell differs from @p first, or empty. */
std::string
compareCells(const CellOutput &first, const CellOutput &cell)
{
    bool same = first.reorderIterations == cell.reorderIterations &&
                first.compBytesPerEdge == cell.compBytesPerEdge &&
                first.checksum == cell.checksum &&
                first.kernelIterations == cell.kernelIterations &&
                first.accesses == cell.accesses &&
                first.l3Misses == cell.l3Misses &&
                first.dtlbMisses == cell.dtlbMisses;
    if (first.permutationHash != 0 && cell.permutationHash != 0)
        same = same && first.permutationHash == cell.permutationHash;
    return same ? std::string()
                : "outputs differ from the first pass of this run";
}

/** Seconds spent under each span name in one pass. */
class Ledger
{
  public:
    void add(const char *name, double seconds) { seconds_[name] += seconds; }

    double
    get(const std::string &name) const
    {
        auto it = seconds_.find(name);
        return it == seconds_.end() ? 0.0 : it->second;
    }

    double
    total() const
    {
        double sum = 0.0;
        for (const auto &[name, seconds] : seconds_)
            sum += seconds;
        return sum;
    }

  private:
    std::map<std::string, double> seconds_;
};

/** Span name with static lifetime, as TraceRecorder requires. */
const char *
intern(const std::string &name)
{
    static std::set<std::string> names;
    return names.insert(name).first->c_str();
}

/** A span around one call into a layer. The benchmark's spans never
 *  nest, so each one's duration is its self time. */
class LayerSpan
{
  public:
    LayerSpan(Ledger &ledger, const std::string &name)
        : ledger_(ledger), name_(intern(name)), start_(Clock::now())
    {
        TraceRecorder::global().record(name_, 'B');
    }

    ~LayerSpan()
    {
        TraceRecorder::global().record(name_, 'E');
        ledger_.add(name_, secondsSince(start_));
    }

    LayerSpan(const LayerSpan &) = delete;
    LayerSpan &operator=(const LayerSpan &) = delete;

  private:
    Ledger &ledger_;
    const char *name_;
    Clock::time_point start_;
};

/** Spans the untraced pass does not run: they isolate one layer's
 *  throughput, so the tracing overhead leaves them out. */
const char *const kIsolationSpans[] = {
    "kernels.sample", "kernels.producers", "cachesim.scheduler",
    "cachesim.cache", "bench.check"};

/** Keeps the first accesses it sees and counts the rest. */
class PrefixSink final : public AccessSink
{
  public:
    PrefixSink(std::vector<MemoryAccess> &prefix, std::size_t limit)
        : prefix_(prefix), limit_(limit)
    {
        prefix_.clear();
        prefix_.reserve(limit_);
    }

    void
    consume(const MemoryAccess &access) override
    {
        ++count_;
        if (prefix_.size() < limit_)
            prefix_.push_back(access);
    }

    std::uint64_t count() const { return count_; }

  private:
    std::vector<MemoryAccess> &prefix_;
    std::size_t limit_;
    std::uint64_t count_ = 0;
};

/** Everything one pass measured. */
struct PassResult
{
    double wallSeconds = 0.0;
    std::vector<CellOutput> cells;
    // Untraced pass.
    double simulateSeconds = 0.0;
    // Traced pass.
    Ledger ledger;
    std::map<std::string, ReorderStats> reorder;
    std::vector<double> kernelMs;
    std::vector<double> idlePercent;
    std::uint64_t steals = 0;
    std::uint64_t producedAccesses = 0;
    std::uint64_t scheduledAccesses = 0;
    std::uint64_t cacheSliceAccesses = 0;
    std::uint64_t kernelIterations = 0;
};

ExperimentOptions
experimentOptions(const Workload &workload)
{
    ExperimentOptions options = bench::benchOptions();
    options.kernel = workload.kernel;
    options.trace.numThreads = 8;
    return options;
}

/** The path `gral experiment` takes: load, one runRaExperiment per
 *  RA, recordExperimentMetrics, the printed table. */
PassResult
untracedPass(const Workload &workload, const std::string &path,
             const ExperimentOptions &options,
             const Reference &reference, std::string &report)
{
    // The library's own always-on span around its simulate stage
    // gives the simulator's share of the pass.
    Histogram &simulate_us =
        MetricsRegistry::global().histogram("span/experiment/simulate");
    std::uint64_t simulate_before = simulate_us.sum();

    PassResult pass;
    Clock::time_point start = Clock::now();
    LoadedInput input = loadInput(workload, path);
    TextTable table({"RA", "Iters", "Preproc s", "Time ms", "L3 miss %",
                     "DTLB miss %", "Comp B/E"});
    for (const std::string &ra : workload.ras) {
        CellOutput cell;
        cell.ra = ra;
        try {
            RaExperimentResult result =
                runRaExperiment(input.view, ra, options);
            recordExperimentMetrics(result);
            cell.reorderIterations = result.reorderStats.iterations;
            cell.compBytesPerEdge = result.compressedBytesPerEdge;
            cell.checksum = result.kernelRun.checksum;
            cell.kernelIterations = result.kernelRun.iterations;
            fillFromProfile(cell, result.profile);
            cell.failure = checkCell(cell, result.profile, reference);
            table.addRow(
                {ra, formatCount(result.kernelRun.iterations),
                 formatDouble(result.reorderStats.preprocessSeconds, 3),
                 formatDouble(result.traversalMs, 2),
                 formatDouble(100.0 * result.profile.cache.missRate(), 2),
                 formatDouble(100.0 * result.profile.tlb.missRate(), 2),
                 formatDouble(result.compressedBytesPerEdge, 3)});
        } catch (const std::exception &error) {
            cell.failure = error.what();
        }
        pass.cells.push_back(cell);
    }
    std::ostringstream out;
    table.print(out);
    report = out.str();
    pass.wallSeconds = secondsSince(start);
    pass.simulateSeconds =
        static_cast<double>(simulate_us.sum() - simulate_before) * 1e-6;
    return pass;
}

/** One cell with each layer called on its own under a span, in the
 *  order runRaExperiment calls them, plus the isolation spans. */
CellOutput
tracedCell(const Workload &workload, const GraphView &base,
           const std::string &ra, const ExperimentOptions &options,
           const Reference &reference, PassResult &pass,
           std::vector<MemoryAccess> &slice)
{
    Ledger &ledger = pass.ledger;
    CellOutput cell;
    cell.ra = ra;
    KernelPtr kernel = makeKernel(workload.kernel);
    bool relabel = kernel->shouldRelabel(base);

    Permutation permutation;
    {
        LayerSpan span(ledger, "reorder." + ra);
        ReordererPtr reorderer = makeReorderer(ra);
        permutation = reorderer->reorder(base);
        pass.reorder[ra] = reorderer->stats();
    }
    cell.reorderIterations = pass.reorder[ra].iterations;
    {
        LayerSpan span(ledger, "bench.check");
        validatePermutation(permutation, base.numVertices(), ra);
        cell.permutationHash = fnv1a(permutation.raw());
    }

    Graph relabeled;
    if (relabel) {
        LayerSpan span(ledger, "graph.relabel");
        relabeled = applyPermutation(base, permutation);
    }
    const GraphView graph = relabel ? GraphView(relabeled) : base;
    if (graph.numVertices() != reference.vertices ||
        graph.numEdges() != reference.edges) {
        cell.failure = "relabeled |V| or |E| differs from the base graph";
        return cell;
    }

    {
        LayerSpan span(ledger, "storage.compress");
        std::size_t blob_bytes = compressAdjacency(graph.out()).blob.size() +
                                 compressAdjacency(graph.in()).blob.size();
        cell.compBytesPerEdge =
            static_cast<double>(blob_bytes) /
            (2.0 * static_cast<double>(graph.numEdges()));
    }

    const bool spmv = workload.kernel == "spmv";
    {
        LayerSpan span(ledger, "kernels.time");
        if (spmv)
            timePullSpmv(graph, options.parallel, options.timingRepeats,
                         nullptr);
        else
            timeKernelRun(*kernel, graph, options.timingRepeats);
        KernelRunInfo info = kernel->run(graph);
        cell.checksum = info.checksum;
        cell.kernelIterations = info.iterations;
        pass.kernelIterations += info.iterations;
    }
    {
        LayerSpan span(ledger, "kernels.sample");
        for (unsigned s = 0; s < workload.kernelSamples; ++s) {
            if (spmv) {
                double idle = 0.0;
                ParallelResult detail;
                pass.kernelMs.push_back(timePullSpmv(
                    graph, options.parallel, 1, &idle, &detail));
                pass.idlePercent.push_back(idle);
                pass.steals += detail.steals;
            } else {
                pass.kernelMs.push_back(timeKernelRun(*kernel, graph, 1));
            }
        }
    }
    {
        LayerSpan span(ledger, "kernels.producers");
        ProducerSet producers = kernel->makeProducers(graph, options.trace);
        std::vector<MemoryAccess> buffer(options.sim.chunkSize);
        for (const std::unique_ptr<AccessProducer> &producer : producers)
            while (std::size_t n = producer->fill(buffer))
                pass.producedAccesses += n;
    }
    {
        PrefixSink sink(slice, kCacheSliceAccesses);
        LayerSpan span(ledger, "cachesim.scheduler");
        InterleavingScheduler scheduler(
            kernel->makeProducers(graph, options.trace),
            options.sim.chunkSize);
        scheduler.drainTo(sink);
        pass.scheduledAccesses += sink.count();
    }
    {
        LayerSpan span(ledger, "cachesim.cache");
        Cache cache(options.sim.cache);
        Tlb tlb(options.sim.tlb);
        for (const MemoryAccess &access : slice) {
            cache.accessRange(access.addr, access.size, access.isWrite);
            tlb.access(access.addr);
        }
        pass.cacheSliceAccesses += slice.size();
    }

    MissProfileResult profile;
    {
        LayerSpan span(ledger, "metrics.simulate");
        std::vector<EdgeId> owner_degrees = degrees(graph, Direction::In);
        std::vector<EdgeId> accessed_degrees =
            degrees(graph, Direction::Out);
        SimulationOptions sim = options.sim;
        if (sim.hubDegreeThreshold == 0)
            sim.hubDegreeThreshold =
                static_cast<EdgeId>(hubThreshold(graph));
        if (sim.pushHubDegrees.empty())
            sim.pushHubDegrees = owner_degrees;
        if (sim.pullHubDegrees.empty())
            sim.pullHubDegrees = accessed_degrees;
        profile = simulateMissProfile(
            kernel->makeProducers(graph, options.trace), owner_degrees,
            accessed_degrees, sim);
    }
    fillFromProfile(cell, profile);
    if (cell.failure.empty())
        cell.failure = checkCell(cell, profile, reference);
    return cell;
}

PassResult
tracedPass(const Workload &workload, const std::string &path,
           const ExperimentOptions &options, const Reference &reference)
{
    TraceRecorder::global().clear();
    PassResult pass;
    std::vector<MemoryAccess> slice;
    Clock::time_point start = Clock::now();
    LoadedInput input;
    {
        LayerSpan span(pass.ledger, workload.format == InputFormat::Gralb
                                        ? "storage.open"
                                        : "graph.load");
        input = loadInput(workload, path);
    }
    for (const std::string &ra : workload.ras) {
        try {
            pass.cells.push_back(tracedCell(workload, input.view, ra,
                                            options, reference, pass,
                                            slice));
        } catch (const std::exception &error) {
            CellOutput cell;
            cell.ra = ra;
            cell.failure = error.what();
            pass.cells.push_back(cell);
        }
    }
    pass.wallSeconds = secondsSince(start);
    return pass;
}

/** Load once outside any timing: fingerprint and reference checksum. */
Reference
makeReference(const Workload &workload, const std::string &path)
{
    LoadedInput input = loadInput(workload, path);
    Reference reference;
    reference.vertices = input.view.numVertices();
    reference.edges = input.view.numEdges();
    reference.fingerprint = graphFingerprint(input.view);
    reference.checksum = makeKernel(workload.kernel)->run(input.view).checksum;
    return reference;
}

struct Args
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    std::string dir = ".";
    double seconds = 10.0;
    int trace = 0;
    double scale = 1.0;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing command (setup | run)");
    Args args;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("flag without value: " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--dir")
            args.dir = value;
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = std::stoi(value);
        else if (flag == "--scale")
            args.scale = std::stod(value);
        else
            throw std::invalid_argument("unknown flag: " + flag);
    }
    if (args.scale <= 0.0 || args.scale > 1.0)
        throw std::invalid_argument("--scale must be in (0, 1]");
    return args;
}

int
setupCommand(const Args &args)
{
    const Workload &workload = findWorkload(args.workload);
    std::string path = inputPath(args.dir, workload);
    std::vector<double> generate_s, write_s;
    Graph graph;
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
        graph = Graph();
        Clock::time_point start = Clock::now();
        graph = generateInput(workload, args.seed, args.scale);
        generate_s.push_back(secondsSince(start));
        start = Clock::now();
        writeInput(graph, workload, path);
        write_s.push_back(secondsSince(start));
    }
    JsonWriter json;
    json.beginObject().key("generate_s").beginArray();
    for (double s : generate_s)
        json.value(s);
    json.endArray().key("write_s").beginArray();
    for (double s : write_s)
        json.value(s);
    json.endArray()
        .key("vertices")
        .value(static_cast<std::uint64_t>(graph.numVertices()))
        .key("edges")
        .value(static_cast<std::uint64_t>(graph.numEdges()))
        .endObject();
    std::cout << json.str() << "\n";
    return 0;
}

void
writeCell(JsonWriter &json, const CellOutput &cell)
{
    json.beginObject()
        .key("ra")
        .value(cell.ra)
        .key("reorder_iterations")
        .value(static_cast<std::uint64_t>(cell.reorderIterations))
        .key("comp_bytes_per_edge")
        .value(cell.compBytesPerEdge)
        .key("checksum")
        .value(cell.checksum)
        .key("kernel_iterations")
        .value(static_cast<std::uint64_t>(cell.kernelIterations))
        .key("accesses")
        .value(cell.accesses)
        .key("l3_misses")
        .value(cell.l3Misses)
        .key("dtlb_misses")
        .value(cell.dtlbMisses);
    if (cell.permutationHash != 0)
        json.key("permutation_hash").value(hex(cell.permutationHash));
    json.endObject();
}

/** Metrics of the untraced passes (run.py adds setup_s). The timed
 *  ones are means over the run's passes, that is totals over the
 *  measured time: this host's speed changes in spells of tens of
 *  seconds, and a mean averages over every spell the run saw where a
 *  median would keep just one. */
std::map<std::string, double>
endToEndMetrics(const std::vector<PassResult> &passes)
{
    double wall_s = 0.0, simulate_s = 0.0;
    std::uint64_t simulated = 0;
    for (const PassResult &pass : passes) {
        wall_s += pass.wallSeconds;
        simulate_s += pass.simulateSeconds;
        for (const CellOutput &cell : pass.cells)
            simulated += cell.accesses;
    }
    const std::vector<CellOutput> &cells = passes.front().cells;
    std::uint64_t accesses = 0, misses = 0;
    double comp = 0.0;
    for (const CellOutput &cell : cells) {
        accesses += cell.accesses;
        misses += cell.l3Misses;
        comp += cell.compBytesPerEdge;
    }
    return {
        {"wall_s", wall_s / static_cast<double>(passes.size())},
        {"peak_rss_mb",
         static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0)},
        {"sim_maccess_per_s",
         static_cast<double>(simulated) / simulate_s * 1e-6},
        {"l3_miss_rate", static_cast<double>(misses) /
                             static_cast<double>(accesses)},
        {"comp_bytes_per_edge", comp / static_cast<double>(cells.size())},
    };
}

/** Per-layer metrics of one traced pass (run.py adds the setup
 *  layers). */
std::map<std::string, double>
perLayerMetrics(const PassResult &pass, double untraced_wall,
                const Reference &reference, std::size_t cells)
{
    const Ledger &ledger = pass.ledger;
    auto rate = [](double count, double seconds) {
        return seconds > 0.0 ? count / seconds * 1e-6 : 0.0;
    };
    double edges = static_cast<double>(reference.edges);
    double load_s = ledger.get("graph.load");
    double relabel_s = ledger.get("graph.relabel");
    double isolation_s = 0.0;
    for (const char *name : kIsolationSpans)
        isolation_s += ledger.get(name);

    std::uint64_t accesses = 0, l3 = 0, dtlb = 0;
    for (const CellOutput &cell : pass.cells) {
        accesses += cell.accesses;
        l3 += cell.l3Misses;
        dtlb += cell.dtlbMisses;
    }

    std::map<std::string, double> metrics = {
        {"graph.load_s", load_s},
        {"graph.load_medges_per_s", rate(edges, load_s)},
        {"graph.relabel_s", relabel_s},
        {"graph.relabel_medges_per_s",
         rate(edges * static_cast<double>(cells), relabel_s)},
        {"storage.open_ms", 1e3 * ledger.get("storage.open")},
        {"storage.compress_s", ledger.get("storage.compress")},
        {"kernels.time_s", ledger.get("kernels.time")},
        {"kernels.sample_s", ledger.get("kernels.sample")},
        {"kernels.run_ms_p50", percentile(pass.kernelMs, 0.5)},
        {"kernels.run_ms_p90", percentile(pass.kernelMs, 0.9)},
        {"kernels.run_samples", static_cast<double>(pass.kernelMs.size())},
        {"spmv.idle_pct", percentile(pass.idlePercent, 0.5)},
        {"exec.steals", static_cast<double>(pass.steals)},
        {"kernels.producers_s", ledger.get("kernels.producers")},
        {"kernels.producer_maccess_per_s",
         rate(static_cast<double>(pass.producedAccesses),
              ledger.get("kernels.producers"))},
        {"kernels.iterations", static_cast<double>(pass.kernelIterations)},
        {"cachesim.scheduler_s", ledger.get("cachesim.scheduler")},
        {"cachesim.scheduler_maccess_per_s",
         rate(static_cast<double>(pass.scheduledAccesses),
              ledger.get("cachesim.scheduler"))},
        {"cachesim.cache_s", ledger.get("cachesim.cache")},
        {"cachesim.cache_maccess_per_s",
         rate(static_cast<double>(pass.cacheSliceAccesses),
              ledger.get("cachesim.cache"))},
        {"cachesim.accesses", static_cast<double>(accesses)},
        {"cachesim.l3_misses", static_cast<double>(l3)},
        {"cachesim.dtlb_misses", static_cast<double>(dtlb)},
        {"metrics.simulate_s", ledger.get("metrics.simulate")},
        {"bench.check_s", ledger.get("bench.check")},
        {"bench.traced_wall_s", pass.wallSeconds},
        {"bench.untraced_wall_s", untraced_wall},
        {"analysis.unattributed_s", pass.wallSeconds - ledger.total()},
        {"bench.trace_overhead_pct",
         100.0 * (pass.wallSeconds - isolation_s - untraced_wall) /
             untraced_wall},
    };
    for (const std::string &ra : allRas()) {
        auto it = pass.reorder.find(ra);
        ReorderStats stats =
            it == pass.reorder.end() ? ReorderStats{} : it->second;
        metrics["reorder." + ra + "_s"] = ledger.get("reorder." + ra);
        metrics["reorder." + ra + "_aux_mb"] =
            static_cast<double>(stats.peakFootprintBytes) /
            (1024.0 * 1024.0);
        metrics["reorder." + ra + "_iterations"] = stats.iterations;
    }
    return metrics;
}

/** Milliseconds of a fixed single-thread integer loop. Printed with
 *  the provenance before and after the passes: this host's speed
 *  drifts by tens of percent over minutes, and the two readings show
 *  how much of a run-to-run difference the host itself made. */
double
calibrationMs()
{
    Clock::time_point start = Clock::now();
    volatile std::uint64_t state = 1;
    for (std::uint32_t i = 0; i < 100'000'000; ++i)
        state = state * 6364136223846793005ull + 1442695040888963407ull;
    return 1e3 * secondsSince(start);
}

int
runCommand(const Args &args)
{
    const Workload &workload = findWorkload(args.workload);
    std::string path = inputPath(args.dir, workload);
    if (GRAL_DCHECK_IS_ON)
        std::cerr << "\n*** WARNING: timing a build with GRAL_DCHECKs on;"
                     " its times are not comparable to a Release build"
                     " ***\n\n";

    Reference reference = makeReference(workload, path);
    ExperimentOptions options = experimentOptions(workload);

    double calibration_before_ms = calibrationMs();


    // A pass starts only when it is expected to end within the
    // budget, judged by the last pass of the same kind; the first
    // pass of each kind always runs.
    Clock::time_point start = Clock::now();
    std::vector<PassResult> untraced, traced;
    std::string report;
    untraced.push_back(
        untracedPass(workload, path, options, reference, report));
    std::cout << report;
    if (args.trace == 0) {
        while (secondsSince(start) + untraced.back().wallSeconds <=
               args.seconds)
            untraced.push_back(
                untracedPass(workload, path, options, reference, report));
    } else {
        do {
            traced.push_back(
                tracedPass(workload, path, options, reference));
        } while (secondsSince(start) + traced.back().wallSeconds <=
                 args.seconds);
    }

    JsonWriter provenance;
    provenance.beginObject()
        .key("build_type")
        .value(PERFBENCH_BUILD_TYPE)
        .key("dchecks")
        .value(static_cast<bool>(GRAL_DCHECK_IS_ON))
        .key("hardware_concurrency")
        .value(static_cast<std::uint64_t>(
            std::thread::hardware_concurrency()))
        .key("real_threads")
        .value(static_cast<std::uint64_t>(options.parallel.numThreads))
        .key("pmu_backend")
        .value(toString(probePerfBackend()))
        .key("workload")
        .value(workload.name)
        .key("seed")
        .value(args.seed)
        .key("scale")
        .value(args.scale)
        .key("vertices")
        .value(static_cast<std::uint64_t>(reference.vertices))
        .key("edges")
        .value(static_cast<std::uint64_t>(reference.edges))
        .key("fingerprint")
        .value(hex(reference.fingerprint))
        .key("calibration_ms_before")
        .value(calibration_before_ms)
        .key("calibration_ms_after")
        .value(calibrationMs())
        .endObject();
    std::cout << "provenance " << provenance.str() << "\n";

    // Failure accounting: every cell of every pass is one operation.
    std::vector<std::string> failures;
    std::size_t attempted = 0;
    const std::vector<CellOutput> &first = untraced.front().cells;
    for (const std::vector<PassResult> *kind : {&untraced, &traced}) {
        for (const PassResult &pass : *kind) {
            for (std::size_t c = 0; c < pass.cells.size(); ++c) {
                const CellOutput &cell = pass.cells[c];
                std::string failure = cell.failure;
                if (failure.empty())
                    failure = compareCells(first[c], cell);
                ++attempted;
                if (!failure.empty())
                    failures.push_back(cell.ra + ": " + failure);
            }
        }
    }

    std::map<std::string, double> metrics;
    if (args.trace == 0) {
        metrics = endToEndMetrics(untraced);
    } else {
        // Report one whole pass, so its spans still add up to its
        // wall: the lower-median pass by wall time.
        std::vector<const PassResult *> by_wall;
        for (const PassResult &pass : traced)
            by_wall.push_back(&pass);
        std::sort(by_wall.begin(), by_wall.end(),
                  [](const PassResult *a, const PassResult *b) {
                      return a->wallSeconds < b->wallSeconds;
                  });
        const PassResult &chosen = *by_wall[(by_wall.size() - 1) / 2];
        metrics = perLayerMetrics(chosen, untraced.front().wallSeconds,
                                  reference, workload.ras.size());
        writeChromeTraceFile(args.dir + "/trace.json");
    }

    // Outputs that must repeat across runs of this seed: the traced
    // pass adds the permutation hashes the untraced one cannot see.
    std::vector<CellOutput> outputs = first;
    if (!traced.empty())
        for (std::size_t c = 0; c < outputs.size(); ++c)
            outputs[c].permutationHash =
                traced.front().cells[c].permutationHash;

    JsonWriter json;
    json.beginObject()
        .key("attempted")
        .value(static_cast<std::uint64_t>(attempted))
        .key("failures")
        .beginArray();
    for (const std::string &failure : failures)
        json.value(failure);
    json.endArray().key("fingerprint").value(hex(reference.fingerprint));
    for (const auto &[key, kind] :
         {std::pair{"untraced_wall_s", &untraced},
          std::pair{"traced_wall_s", &traced}}) {
        json.key(key).beginArray();
        for (const PassResult &pass : *kind)
            json.value(pass.wallSeconds);
        json.endArray();
    }
    json.key("cells").beginArray();
    for (const CellOutput &cell : outputs)
        writeCell(json, cell);
    json.endArray().key("metrics").beginObject();
    for (const auto &[name, value] : metrics)
        json.key(name).value(value);
    json.endObject().endObject();
    std::cout << json.str() << "\n";
    return 0;
}

} // namespace
} // namespace gral::perfbench

int
main(int argc, char **argv)
{
    using namespace gral::perfbench;
    try {
        Args args = parseArgs(argc, argv);
        if (args.command == "setup")
            return setupCommand(args);
        if (args.command == "run")
            return runCommand(args);
        std::cerr << "error: unknown command " << args.command << "\n";
        return 2;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
