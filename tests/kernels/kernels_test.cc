/**
 * @file
 * Tests for the generic kernel layer: registry behaviour, relabeling
 * plans, and — per kernel — equivalence between the streamed trace
 * path and a materialized replay of the very same producers. The
 * workload-specific checks pin each kernel to its reference
 * implementation: spmv producers must equal makePullProducers(),
 * PageRank scores must be permutation-equivariant, BFS frontiers must
 * agree across push-only / pull-only / direction-optimizing modes,
 * and CC labels must match a BFS component labelling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cachesim/access_stream.h"
#include "graph/builder.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "kernels/bfs_kernel.h"
#include "kernels/cc_kernel.h"
#include "kernels/kernel.h"
#include "kernels/pagerank_kernel.h"
#include "kernels/spmv_kernel.h"
#include "metrics/miss_rate.h"
#include "reorder/registry.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

/** Skewed-degree test graph, big enough to have hubs and several
 *  BFS rounds but small enough for exhaustive trace comparison. */
Graph
testGraph()
{
    RMatParams params;
    params.scale = 9; // 512 vertices
    params.edgeFactor = 8;
    params.seed = 42;
    return generateRMat(params);
}

TraceOptions
traceOptions()
{
    TraceOptions options;
    options.numThreads = 3;
    return options;
}

SimulationOptions
simOptions()
{
    SimulationOptions sim;
    sim.cache.sizeBytes = 32 * 1024;
    sim.cache.associativity = 8;
    sim.chunkSize = 64;
    sim.simulateTlb = false;
    return sim;
}

// ------------------------------------------------------- registry

TEST(KernelRegistry, NamesAndFactoryAgree)
{
    const std::vector<std::string> &names = kernelNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "spmv");
    for (const std::string &name : names) {
        KernelPtr kernel = makeKernel(name);
        ASSERT_NE(kernel, nullptr);
        EXPECT_EQ(kernel->name(), name);
    }
}

TEST(KernelRegistry, UnknownNameThrows)
{
    EXPECT_THROW(makeKernel("sssp"), std::invalid_argument);
    EXPECT_THROW(makeKernel(""), std::invalid_argument);
}

TEST(KernelRegistry, RelabelingPlans)
{
    Graph graph = testGraph();
    // SpMV-shaped kernels touch every edge every sweep: relabeling
    // always applies.
    for (const char *name : {"spmv", "pagerank", "cc"}) {
        KernelPtr kernel = makeKernel(name);
        EXPECT_EQ(kernel->plan().relabeling, Relabeling::kRelabel)
            << name;
        EXPECT_TRUE(kernel->shouldRelabel(graph)) << name;
    }
    // BFS decides per graph (Katana's kAutoRelabel idiom).
    KernelPtr bfs_kernel = makeKernel("bfs");
    EXPECT_EQ(bfs_kernel->plan().relabeling,
              Relabeling::kAutoRelabel);
}

// ---------------------------------------------- spmv back-compat

TEST(SpmvKernel, ProducersMatchLegacyPullProducers)
{
    Graph graph = testGraph();
    TraceOptions options = traceOptions();
    SpmvKernel kernel;
    std::vector<ThreadTrace> from_kernel =
        drainAll(kernel.makeProducers(graph, options));
    std::vector<ThreadTrace> from_legacy =
        drainAll(makePullProducers(graph, options));
    ASSERT_EQ(from_kernel.size(), from_legacy.size());
    for (std::size_t t = 0; t < from_kernel.size(); ++t) {
        ASSERT_EQ(from_kernel[t].size(), from_legacy[t].size())
            << "thread " << t;
        for (std::size_t i = 0; i < from_kernel[t].size(); ++i)
            ASSERT_TRUE(from_kernel[t][i] == from_legacy[t][i])
                << "thread " << t << " access " << i;
    }
}

// ------------------------------- streamed ≡ materialized, per kernel

TEST(KernelTrace, StreamedMatchesMaterializedForEveryKernel)
{
    Graph graph = testGraph();
    TraceOptions trace = traceOptions();
    SimulationOptions sim = simOptions();
    std::vector<EdgeId> owner_degrees =
        degrees(graph, Direction::In);
    std::vector<EdgeId> accessed_degrees =
        degrees(graph, Direction::Out);
    sim.hubDegreeThreshold =
        static_cast<EdgeId>(hubThreshold(graph));
    sim.pushHubDegrees = owner_degrees;
    sim.pullHubDegrees = accessed_degrees;

    for (const std::string &name : kernelNames()) {
        KernelPtr kernel = makeKernel(name);
        // Producers are deterministic: two sets from the same kernel
        // and graph carry identical streams.
        std::vector<ThreadTrace> traces =
            drainAll(kernel->makeProducers(graph, trace));
        MissProfileResult materialized = simulateMissProfile(
            producersFromTraces(traces), owner_degrees,
            accessed_degrees, sim);
        MissProfileResult streamed = simulateMissProfile(
            kernel->makeProducers(graph, trace), owner_degrees,
            accessed_degrees, sim);

        EXPECT_GT(streamed.totalAccesses, 0u) << name;
        EXPECT_EQ(streamed.totalAccesses, materialized.totalAccesses)
            << name;
        EXPECT_EQ(streamed.dataAccesses, materialized.dataAccesses)
            << name;
        EXPECT_EQ(streamed.dataMisses, materialized.dataMisses)
            << name;
        EXPECT_EQ(streamed.cache.accesses(),
                  materialized.cache.accesses())
            << name;
        EXPECT_EQ(streamed.cache.misses, materialized.cache.misses)
            << name;
        EXPECT_EQ(streamed.pushPhase.dataAccesses,
                  materialized.pushPhase.dataAccesses)
            << name;
        EXPECT_EQ(streamed.pushPhase.hubMisses,
                  materialized.pushPhase.hubMisses)
            << name;
        EXPECT_EQ(streamed.pullPhase.dataAccesses,
                  materialized.pullPhase.dataAccesses)
            << name;
        EXPECT_EQ(streamed.pullPhase.hubMisses,
                  materialized.pullPhase.hubMisses)
            << name;

        // The acceptance bound: streaming keeps O(chunk) records
        // resident, never the whole log.
        EXPECT_LE(streamed.peakResidentAccesses, sim.chunkSize)
            << name;
        EXPECT_EQ(streamed.totalAccesses, accessCount(traces)) << name;
    }
}

// ------------------------------------------------------- pagerank

TEST(PageRankKernel, ScoresMatchSolverAndSurviveRelabeling)
{
    Graph base = testGraph();
    PageRankKernel kernel;
    KernelRunInfo info = kernel.run(base);
    const PageRankResult &on_base = kernel.result(base);
    EXPECT_EQ(info.iterations, on_base.iterations);

    PageRankResult reference =
        pageRank(base, PageRankKernel::defaultOptions());
    ASSERT_EQ(on_base.scores.size(), reference.scores.size());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        ASSERT_NEAR(on_base.scores[v], reference.scores[v], 1e-12);

    // Scores are a property of the graph, not its vertex order:
    // reordering must permute them, nothing else.
    ReordererPtr reorderer = makeReorderer("DegreeSort");
    Permutation permutation = reorderer->reorder(base);
    Graph relabeled = applyPermutation(base, permutation);
    PageRankKernel on_relabeled_kernel;
    on_relabeled_kernel.run(relabeled);
    const PageRankResult &on_relabeled =
        on_relabeled_kernel.result(relabeled);
    for (VertexId v = 0; v < base.numVertices(); ++v)
        ASSERT_NEAR(on_relabeled.scores[permutation.newId(v)],
                    on_base.scores[v], 1e-6)
            << "vertex " << v;
}

// ------------------------------------------------------------ bfs

TEST(BfsKernel, FrontierModesAgreeOnDistances)
{
    Graph graph = testGraph();
    BfsOptions push_only;
    push_only.mode = BfsMode::PushOnly;
    BfsOptions pull_only;
    pull_only.mode = BfsMode::PullOnly;

    BfsKernel optimizing;
    BfsKernel push_kernel(kInvalidVertex, push_only);
    BfsKernel pull_kernel(kInvalidVertex, pull_only);
    const BfsResult &opt = optimizing.result(graph);
    const BfsResult &push = push_kernel.result(graph);
    const BfsResult &pull = pull_kernel.result(graph);

    EXPECT_GT(opt.reached, 1u);
    EXPECT_EQ(opt.reached, push.reached);
    EXPECT_EQ(opt.reached, pull.reached);
    ASSERT_EQ(opt.distance.size(), push.distance.size());
    ASSERT_EQ(opt.distance.size(), pull.distance.size());
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        ASSERT_EQ(opt.distance[v], push.distance[v]) << v;
        ASSERT_EQ(opt.distance[v], pull.distance[v]) << v;
    }

    // The forced modes really ran single-direction.
    EXPECT_TRUE(std::none_of(push.roundDense.begin(),
                             push.roundDense.end(),
                             [](std::uint8_t d) { return d != 0; }));
    EXPECT_TRUE(std::all_of(pull.roundDense.begin(),
                            pull.roundDense.end(),
                            [](std::uint8_t d) { return d != 0; }));
}

TEST(BfsKernel, TracePhasesFollowRoundDirection)
{
    Graph graph = testGraph();
    TraceOptions trace = traceOptions();

    BfsOptions push_only;
    push_only.mode = BfsMode::PushOnly;
    BfsKernel push_kernel(kInvalidVertex, push_only);
    std::uint64_t push_stores = 0;
    for (const ThreadTrace &thread :
         drainAll(push_kernel.makeProducers(graph, trace))) {
        for (const MemoryAccess &access : thread) {
            EXPECT_EQ(access.phase, AccessPhase::Push);
            push_stores += access.isWrite ? 1 : 0;
        }
    }
    // Each reached non-source vertex is claimed by exactly one store.
    EXPECT_EQ(push_stores, push_kernel.result(graph).reached - 1);

    BfsOptions pull_only;
    pull_only.mode = BfsMode::PullOnly;
    BfsKernel pull_kernel(kInvalidVertex, pull_only);
    std::uint64_t pull_stores = 0;
    for (const ThreadTrace &thread :
         drainAll(pull_kernel.makeProducers(graph, trace))) {
        for (const MemoryAccess &access : thread) {
            EXPECT_EQ(access.phase, AccessPhase::Pull);
            pull_stores += access.isWrite ? 1 : 0;
        }
    }
    EXPECT_EQ(pull_stores, pull_kernel.result(graph).reached - 1);
}

// ------------------------------------------------------------- cc

/** Undirected BFS component labels. Roots are taken in ascending ID
 *  order, so each label is the smallest vertex ID of its component:
 *  the canonical labelling CcKernel's min-label fixpoint reaches. */
std::vector<VertexId>
bfsComponentLabels(const GraphView &graph)
{
    std::vector<VertexId> label(graph.numVertices(), kInvalidVertex);
    std::vector<VertexId> queue;
    for (VertexId root = 0; root < graph.numVertices(); ++root) {
        if (label[root] != kInvalidVertex)
            continue;
        label[root] = root;
        queue.assign(1, root);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            VertexId v = queue[head];
            for (auto list : {graph.outNeighbours(v), graph.inNeighbours(v)})
                for (VertexId u : list)
                    if (label[u] == kInvalidVertex) {
                        label[u] = root;
                        queue.push_back(u);
                    }
        }
    }
    return label;
}

/** CcKernel's labels on `graph` equal the BFS labelling outright,
 *  and its component count is the number of BFS roots. */
void
expectLabelsMatchBfsComponents(const Graph &graph)
{
    CcKernel kernel;
    kernel.run(graph);
    const std::vector<VertexId> &labels = kernel.labels(graph);
    std::vector<VertexId> reference = bfsComponentLabels(graph);
    ASSERT_EQ(labels.size(), reference.size());
    VertexId roots = 0;
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        ASSERT_EQ(labels[v], reference[v]) << v;
        roots += reference[v] == v ? 1 : 0;
    }
    EXPECT_EQ(kernel.numComponents(graph), roots);
}

TEST(CcKernel, LabelsMatchBfsComponents)
{
    // A directed RMAT graph: edge direction must not split a
    // component.
    expectLabelsMatchBfsComponents(testGraph());
}

TEST(CcKernel, SparseGraphLabelsMatchBfsComponents)
{
    // A sparse ER graph with many components.
    expectLabelsMatchBfsComponents(generateErdosRenyi(400, 500, 6));
}

TEST(CcKernel, LabelsAreComponentMinima)
{
    std::vector<Edge> edges = {{5, 3}, {3, 5}, {1, 2}, {2, 1}};
    BuildOptions options;
    options.removeZeroDegree = false;
    Graph graph = buildGraph(6, edges, options);
    CcKernel kernel;
    const std::vector<VertexId> &labels = kernel.labels(graph);
    EXPECT_EQ(labels[5], 3u);
    EXPECT_EQ(labels[3], 3u);
    EXPECT_EQ(labels[1], 1u);
    EXPECT_EQ(labels[2], 1u);
    EXPECT_EQ(labels[0], 0u);
    EXPECT_EQ(kernel.numComponents(graph), 4u); // {3,5}, {1,2}, {0}, {4}
}

/** The vertices whose label each sweep of a plain in-place min-label
 *  propagation lowers, one list per sweep, until a sweep changes
 *  nothing. */
std::vector<std::vector<VertexId>>
labelChangesPerSweep(const GraphView &graph)
{
    std::vector<VertexId> label(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        label[v] = v;
    std::vector<std::vector<VertexId>> sweeps;
    for (bool changed = true; changed;) {
        changed = false;
        std::vector<VertexId> lowered;
        for (VertexId v = 0; v < graph.numVertices(); ++v) {
            VertexId best = label[v];
            for (auto list :
                 {graph.inNeighbours(v), graph.outNeighbours(v)})
                for (VertexId u : list)
                    best = std::min(best, label[u]);
            if (best < label[v]) {
                label[v] = best;
                lowered.push_back(v);
                changed = true;
            }
        }
        sweeps.push_back(std::move(lowered));
    }
    return sweeps;
}

TEST(CcKernel, TraceStoresMatchLabelChanges)
{
    // The trace stores a label exactly where a sweep lowered it: the
    // writes of the drained trace are those vertices' DataNew slots,
    // one per change, and nothing else is a write.
    TraceOptions trace = traceOptions();
    for (const Graph &graph :
         {testGraph(), generateErdosRenyi(400, 500, 6)}) {
        std::vector<std::vector<VertexId>> sweeps =
            labelChangesPerSweep(graph);
        ASSERT_GT(sweeps.size(), 2u); // several sweeps store
        std::vector<std::uint64_t> expected;
        for (const std::vector<VertexId> &lowered : sweeps)
            for (VertexId v : lowered)
                expected.push_back(trace.map.dataNewAddr(v));

        CcKernel kernel;
        std::vector<std::uint64_t> stored;
        for (const ThreadTrace &thread :
             drainAll(kernel.makeProducers(graph, trace))) {
            for (const MemoryAccess &access : thread) {
                if (!access.isWrite)
                    continue;
                EXPECT_EQ(access.region, AccessRegion::DataNew);
                EXPECT_EQ(access.dataVertex, access.ownerVertex);
                stored.push_back(access.addr);
            }
        }
        std::ranges::sort(expected);
        std::ranges::sort(stored);
        EXPECT_EQ(stored.size(), expected.size());
        EXPECT_EQ(stored, expected);
    }
}

TEST(CcKernel, IterationCapRespected)
{
    Graph graph = makePath(1000); // worst case: long chain
    CcKernel kernel(3);
    EXPECT_LE(kernel.run(graph).iterations, 3u);
}

} // namespace
} // namespace gral
