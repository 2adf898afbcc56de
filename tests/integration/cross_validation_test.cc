/**
 * @file
 * Cross-validation tests: independent implementations checking each
 * other, end-to-end pipeline invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "analysis/datasets.h"
#include "analysis/experiment.h"
#include "cachesim/cache.h"
#include "graph/builder.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "graph/rng.h"
#include "kernels/ihtl.h"
#include "kernels/spmv_kernel.h"
#include "metrics/aid.h"
#include "metrics/ecs.h"
#include "metrics/miss_rate.h"
#include "tests/support/reuse_distance.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

TEST(CrossValidation, FullyAssocLruMatchesListOracle)
{
    // A 1-set LRU cache must behave exactly like a textbook LRU list.
    const std::uint32_t ways = 64;
    CacheConfig config;
    config.lineBytes = 64;
    config.associativity = ways;
    config.sizeBytes = 64ull * ways; // exactly one set
    config.policy = ReplacementPolicy::LRU;
    Cache cache(config);

    std::list<std::uint64_t> oracle; // front = most recent line
    SplitMix64 rng(77);
    std::uint64_t oracle_hits = 0;
    const int accesses = 20000;
    for (int i = 0; i < accesses; ++i) {
        // Skewed address stream over ~200 lines.
        std::uint64_t line = rng.nextBounded(
            rng.nextBounded(2) ? 48 : 200);
        std::uint64_t addr = line * 64;

        bool cache_hit = cache.access(addr, false);

        auto it = std::find(oracle.begin(), oracle.end(), line);
        bool oracle_hit = it != oracle.end();
        if (oracle_hit) {
            ++oracle_hits;
            oracle.erase(it);
        } else if (oracle.size() == ways) {
            oracle.pop_back();
        }
        oracle.push_front(line);

        ASSERT_EQ(cache_hit, oracle_hit) << "access " << i;
    }
    EXPECT_EQ(cache.stats().hits, oracle_hits);
}

TEST(CrossValidation, ColdMissesAgreeAcrossTools)
{
    // Compulsory misses are policy-independent: an over-sized cache
    // and the reuse-distance analyzer must count the same number.
    Graph graph = generateErdosRenyi(2000, 20000, 13);
    auto traces = drainAll(makePullProducers(graph, {}));

    CacheConfig config;
    config.sizeBytes = 64ull << 20; // 64 MB: never evicts here
    config.associativity = 16;
    config.policy = ReplacementPolicy::LRU;
    Cache cache(config);
    ReuseDistanceAnalyzer analyzer(64);
    for (const ThreadTrace &trace : traces) {
        for (const MemoryAccess &access : trace) {
            cache.accessRange(access.addr, access.size,
                              access.isWrite);
            analyzer.access(access.addr);
            // accessRange may split a line-crossing access; feed the
            // analyzer the second line too.
            std::uint64_t first = access.addr / 64;
            std::uint64_t last =
                (access.addr + access.size - 1) / 64;
            if (last != first)
                analyzer.access(last * 64);
        }
    }
    EXPECT_EQ(cache.stats().misses, analyzer.coldAccesses());
}

TEST(CrossValidation, ReuseOracleMatchesFullyAssocCacheHitRate)
{
    // hitRateAtCapacity with a power-of-two capacity equals the
    // fully-associative LRU hit rate at that capacity (bucket edges
    // align exactly with the capacity).
    const std::uint64_t capacity = 256;
    Graph graph = generateErdosRenyi(1000, 8000, 3);
    TraceOptions options;
    options.traceOffsets = false;
    options.traceEdges = false;
    auto traces = drainAll(makePullProducers(graph, options));

    CacheConfig config;
    config.lineBytes = 64;
    config.associativity = static_cast<std::uint32_t>(capacity);
    config.sizeBytes = 64ull * capacity; // one set, LRU
    config.policy = ReplacementPolicy::LRU;
    Cache cache(config);
    ReuseDistanceAnalyzer analyzer(64);
    for (const ThreadTrace &trace : traces) {
        for (const MemoryAccess &access : trace) {
            cache.access(access.addr, access.isWrite);
            analyzer.access(access.addr);
        }
    }
    double cache_rate =
        static_cast<double>(cache.stats().hits) /
        static_cast<double>(cache.stats().accesses());
    // Distances in [capacity/2, capacity) are counted as hits by the
    // bucketed oracle's bucket [128,256); distances exactly equal to
    // bucket edges align, so the rates agree to bucket resolution.
    EXPECT_NEAR(analyzer.hitRateAtCapacity(capacity), cache_rate,
                0.02);
}

TEST(CrossValidation, IdentityReorderLeavesEverythingUnchanged)
{
    Graph base = makeDataset("twtr-s", 0.03);
    ExperimentOptions options;
    options.runTiming = false;
    options.sim.cache.sizeBytes = 64 * 1024;
    options.sim.cache.associativity = 8;

    auto a = runRaExperiment(base, "Bl", options);
    Graph same = reorderedGraph(base, "Bl");
    EXPECT_EQ(same, base);
    auto b = runRaExperiment(base, "Bl", options);
    EXPECT_EQ(a.profile.dataMisses, b.profile.dataMisses);
    EXPECT_EQ(a.profile.cache.misses, b.profile.cache.misses);
}

TEST(CrossValidation, PipelineFullyDeterministic)
{
    Graph base = makeDataset("sk-s", 0.03);
    ExperimentOptions options;
    options.runTiming = false;
    options.sim.cache.sizeBytes = 64 * 1024;
    options.sim.cache.associativity = 8;
    for (const char *ra : {"SB", "GO", "RO"}) {
        auto a = runRaExperiment(base, ra, options);
        auto b = runRaExperiment(base, ra, options);
        EXPECT_EQ(a.profile.dataMisses, b.profile.dataMisses) << ra;
        EXPECT_EQ(a.profile.tlb.misses, b.profile.tlb.misses) << ra;
    }
}

TEST(CrossValidation, StreamedReplayIdenticalToMaterialized)
{
    // The invariant of the streaming pipeline: feeding producers
    // straight into the cache model must be bit-identical to
    // draining the trace first and replaying the logs — same
    // interleaved order, so the same hits, misses, TLB behaviour, and
    // per-degree rows.
    for (const char *id : {"twtr-s", "ukdls-s"}) {
        Graph graph = makeDataset(id, 0.05);
        auto in_deg = degrees(graph, Direction::In);
        auto out_deg = degrees(graph, Direction::Out);
        SimulationOptions sim;
        sim.cache.sizeBytes = 64 * 1024;
        sim.cache.associativity = 8;
        sim.chunkSize = 256;
        sim.missThresholds = {0, 8, 64};

        TraceOptions trace_options;
        auto traces =
            drainAll(makePullProducers(graph, trace_options));
        auto materialized = simulateMissProfile(
            producersFromTraces(traces), in_deg, out_deg, sim);
        auto streamed = simulateMissProfile(
            makePullProducers(graph, trace_options), in_deg, out_deg,
            sim);

        EXPECT_EQ(streamed.cache.hits, materialized.cache.hits) << id;
        EXPECT_EQ(streamed.cache.misses, materialized.cache.misses)
            << id;
        EXPECT_EQ(streamed.cache.evictions,
                  materialized.cache.evictions)
            << id;
        EXPECT_EQ(streamed.tlb.hits, materialized.tlb.hits) << id;
        EXPECT_EQ(streamed.tlb.misses, materialized.tlb.misses) << id;
        EXPECT_EQ(streamed.dataMisses, materialized.dataMisses) << id;
        EXPECT_EQ(streamed.dataAccesses, materialized.dataAccesses)
            << id;
        EXPECT_EQ(streamed.missesAboveThreshold,
                  materialized.missesAboveThreshold)
            << id;

        // Figure-1 rows must agree bin by bin.
        auto streamed_rows = streamed.perDegree.rows();
        auto materialized_rows = materialized.perDegree.rows();
        ASSERT_EQ(streamed_rows.size(), materialized_rows.size())
            << id;
        for (std::size_t r = 0; r < streamed_rows.size(); ++r) {
            EXPECT_EQ(streamed_rows[r].count,
                      materialized_rows[r].count)
                << id;
            EXPECT_DOUBLE_EQ(streamed_rows[r].sum,
                             materialized_rows[r].sum)
                << id;
        }

        // ECS sees the same interleaved stream too.
        EcsOptions ecs_options;
        ecs_options.cache = sim.cache;
        ecs_options.scanEvery = 4096;
        auto ecs_materialized = effectiveCacheSize(
            producersFromTraces(traces), trace_options.map,
            ecs_options);
        auto ecs_streamed = effectiveCacheSize(
            makePullProducers(graph, trace_options),
            trace_options.map, ecs_options);
        EXPECT_EQ(ecs_streamed.scans, ecs_materialized.scans) << id;
        EXPECT_DOUBLE_EQ(ecs_streamed.avgEcsPercent,
                         ecs_materialized.avgEcsPercent)
            << id;

        // And the bound the refactor exists for: streamed replay
        // never holds more than one chunk of trace.
        EXPECT_LE(streamed.peakResidentAccesses, sim.chunkSize) << id;
        EXPECT_EQ(streamed.totalAccesses, accessCount(traces)) << id;
    }
}

TEST(CrossValidation, IhtlProducersMatchMaterializedTrace)
{
    Graph graph = makeDataset("twtr-s", 0.05);
    IhtlGraph ihtl(graph, {});
    TraceOptions trace_options;
    auto in_deg = degrees(graph, Direction::In);
    SimulationOptions sim;
    sim.cache.sizeBytes = 64 * 1024;
    sim.cache.associativity = 8;
    sim.simulateTlb = false;

    auto traces = drainAll(ihtl.makeTraceProducers(trace_options));
    auto materialized = simulateMissProfile(producersFromTraces(traces),
                                            in_deg, in_deg, sim);
    auto streamed = simulateMissProfile(
        ihtl.makeTraceProducers(trace_options), in_deg, in_deg, sim);
    EXPECT_EQ(streamed.cache.hits, materialized.cache.hits);
    EXPECT_EQ(streamed.cache.misses, materialized.cache.misses);
    EXPECT_EQ(streamed.dataMisses, materialized.dataMisses);
    EXPECT_EQ(streamed.dataAccesses, materialized.dataAccesses);
}

TEST(CrossValidation, SpmvLinearity)
{
    // SpMV is linear: pull(a*x + b*y) == a*pull(x) + b*pull(y).
    Graph graph = generateErdosRenyi(300, 2500, 21);
    const VertexId n = graph.numVertices();
    std::vector<double> x(n);
    std::vector<double> y(n);
    SplitMix64 rng(5);
    for (VertexId v = 0; v < n; ++v) {
        x[v] = rng.nextDouble();
        y[v] = rng.nextDouble();
    }
    std::vector<double> combined(n);
    for (VertexId v = 0; v < n; ++v)
        combined[v] = 2.0 * x[v] - 3.0 * y[v];

    std::vector<double> px(n);
    std::vector<double> py(n);
    std::vector<double> pc(n);
    spmvPull(graph, x, px);
    spmvPull(graph, y, py);
    spmvPull(graph, combined, pc);
    for (VertexId v = 0; v < n; ++v)
        EXPECT_NEAR(pc[v], 2.0 * px[v] - 3.0 * py[v], 1e-9);
}

TEST(CrossValidation, AidInvariantUnderSharedShift)
{
    // AID depends only on gaps between neighbour IDs: relabeling
    // that shifts a vertex's whole neighbourhood by a constant
    // leaves its AID unchanged. Construct explicitly.
    std::vector<Edge> edges = {{10, 0}, {14, 0}, {19, 0}};
    BuildOptions build_options;
    build_options.removeZeroDegree = false;
    Graph a = buildGraph(40, edges, build_options);
    std::vector<Edge> shifted = {{30, 0}, {34, 0}, {39, 0}};
    Graph b = buildGraph(40, shifted, build_options);
    EXPECT_DOUBLE_EQ(vertexAid(a.in(), 0), vertexAid(b.in(), 0));
}

} // namespace
} // namespace gral
