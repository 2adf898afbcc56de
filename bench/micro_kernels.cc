/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot kernels:
 * SpMV traversal, cache-model access, trace production, AID, and the
 * reordering algorithms themselves.
 */

#include <benchmark/benchmark.h>

#include "analysis/datasets.h"
#include "cachesim/cache.h"
#include "cachesim/interleave.h"
#include "graph/degree.h"
#include "graph/generators.h"
#include "kernels/spmv_kernel.h"
#include "metrics/aid.h"
#include "reorder/registry.h"

namespace
{

using namespace gral;

const Graph &
benchGraph()
{
    static Graph graph = makeDataset("twtr-s", 0.2);
    return graph;
}

void
BM_SpmvPull(benchmark::State &state)
{
    const Graph &graph = benchGraph();
    std::vector<double> src(graph.numVertices(), 1.0);
    std::vector<double> dst(graph.numVertices(), 0.0);
    for (auto _ : state) {
        spmvPull(graph, src, dst);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK(BM_SpmvPull);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(paperL3Config());
    std::uint64_t x = 0x123456789ULL;
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        benchmark::DoNotOptimize(
            cache.access(x % (64ULL << 20), false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_TraceGeneration(benchmark::State &state)
{
    const Graph &graph = benchGraph();
    TraceOptions options;
    std::vector<MemoryAccess> buffer(1024);
    for (auto _ : state) {
        // Drain every producer through one chunk-sized buffer, the
        // way the scheduler polls them.
        for (const auto &producer : makePullProducers(graph, options))
            while (producer->fill(buffer) > 0)
                benchmark::DoNotOptimize(buffer.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK(BM_TraceGeneration);

void
BM_StreamedReplay(benchmark::State &state)
{
    const Graph &graph = benchGraph();
    TraceOptions options;
    std::uint64_t peak_bytes = 0;
    for (auto _ : state) {
        Cache cache(paperL3Config());
        InterleavingScheduler scheduler(
            makePullProducers(graph, options), 1024);
        ReplayResult result = replayStreamSimple(scheduler, cache);
        peak_bytes = result.peakResidentBytes();
        benchmark::DoNotOptimize(&result);
    }
    state.counters["peak_trace_bytes"] =
        static_cast<double>(peak_bytes);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK(BM_StreamedReplay);

void
BM_AidDistribution(benchmark::State &state)
{
    const Graph &graph = benchGraph();
    for (auto _ : state) {
        auto dist = aidDegreeDistribution(graph, Direction::In);
        benchmark::DoNotOptimize(&dist);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK(BM_AidDistribution);

void
BM_Reorder(benchmark::State &state, const char *name)
{
    const Graph &graph = benchGraph();
    for (auto _ : state) {
        ReordererPtr ra = makeReorderer(name);
        Permutation p = ra->reorder(graph);
        benchmark::DoNotOptimize(&p);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK_CAPTURE(BM_Reorder, SlashBurn, "SB");
BENCHMARK_CAPTURE(BM_Reorder, GOrder, "GO");
BENCHMARK_CAPTURE(BM_Reorder, RabbitOrder, "RO");
BENCHMARK_CAPTURE(BM_Reorder, DegreeSort, "DegreeSort");

void
BM_ApplyPermutation(benchmark::State &state)
{
    const Graph &graph = benchGraph();
    Permutation p = randomPermutation(graph.numVertices(), 3);
    for (auto _ : state) {
        Graph relabeled = applyPermutation(graph, p);
        benchmark::DoNotOptimize(&relabeled);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(graph.numEdges()));
}
BENCHMARK(BM_ApplyPermutation);

} // namespace

BENCHMARK_MAIN();
