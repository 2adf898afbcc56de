/**
 * @file
 * SpMV producer oracle: the streams the simulator replays must be the
 * loads and stores the computation makes.
 *
 * The reference below is a plain instrumented pull SpMV / read-sum
 * (paper Algorithm 1, instrumented "at source code level to call the
 * simulator for every load/store", Section V-B). It computes y and,
 * beside every load and store, records the access in program order,
 * one log per edge-balanced partition. The drained producers must
 * equal those logs exactly, and the reference's y must equal the
 * library's compute.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "kernels/spmv_kernel.h"
#include "tests/support/trace_support.h"

namespace gral
{
namespace
{

/** Per-thread logs and the result of one instrumented traversal. */
struct Instrumented
{
    std::vector<ThreadTrace> traces;
    std::vector<double> y;
};

/**
 * y[v] = sum of x[u] over v's neighbours in @p direction, with x all
 * ones, recording every access of the traversal as it happens.
 */
Instrumented
instrumentedReadSum(const GraphView &graph, Direction direction,
                    const TraceOptions &options)
{
    const AdjacencyView &adj =
        direction == Direction::In ? graph.in() : graph.out();
    const AccessPhase phase = direction == Direction::In
                                  ? AccessPhase::Pull
                                  : AccessPhase::Push;
    const AddressMap &map = options.map;
    const std::vector<double> x(graph.numVertices(), 1.0);

    Instrumented run;
    run.y.assign(graph.numVertices(), 0.0);
    for (VertexRange range :
         edgeBalancedPartitions(graph, direction, options.numThreads)) {
        ThreadTrace &log = run.traces.emplace_back();
        auto record = [&](std::uint64_t addr, std::uint8_t bytes,
                          bool is_write, AccessRegion region,
                          VertexId data_vertex, VertexId owner) {
            log.push_back({addr, data_vertex, owner, bytes, is_write,
                           region, phase});
        };
        for (VertexId v = range.begin; v < range.end; ++v) {
            if (options.traceOffsets)
                record(map.offsetsAddr(v), kOffsetBytes, false,
                       AccessRegion::Offsets, kInvalidVertex, v);
            const EdgeId first = adj.offsets()[v];
            const EdgeId last = adj.offsets()[v + 1];
            double sum = 0.0;
            for (EdgeId e = first; e < last; ++e) {
                if (options.traceEdges)
                    record(map.edgesAddr(e), kEdgeBytes, false,
                           AccessRegion::EdgesArr, kInvalidVertex, v);
                const VertexId u = adj.edges()[e];
                record(map.dataOldAddr(u), kVertexDataBytes, false,
                       AccessRegion::DataOld, u, v);
                sum += x[u];
            }
            record(map.dataNewAddr(v), kVertexDataBytes, true,
                   AccessRegion::DataNew, v, v);
            run.y[v] = sum;
        }
    }
    return run;
}

/** The oracle's inputs: awkward shapes plus an SN stand-in. */
std::vector<std::pair<std::string, Graph>>
oracleGraphs()
{
    std::vector<std::pair<std::string, Graph>> graphs;
    graphs.emplace_back("star", makeStar(40));
    // Vertices 0, 3 and 5 have no in-edges, 1, 4 and 5 no out-edges.
    std::vector<Edge> sparse = {{0, 1}, {2, 1}, {3, 2}, {2, 4}};
    graphs.emplace_back("empty-rows", Graph(6, sparse));
    std::vector<Edge> loops = {{0, 0}, {0, 1}, {1, 1}, {2, 1},
                               {2, 2}, {3, 0}};
    graphs.emplace_back("self-loops", Graph(4, loops));
    graphs.emplace_back("twtr-s", makeDataset("twtr-s", 0.02));
    return graphs;
}

TEST(SpmvOracle, ProducersEqualInstrumentedTraversal)
{
    for (const auto &[name, graph] : oracleGraphs()) {
        for (Direction direction : {Direction::In, Direction::Out}) {
            for (unsigned threads : {1u, 3u}) {
                for (int topology = 0; topology < 4; ++topology) {
                    TraceOptions options;
                    options.numThreads = threads;
                    options.traceOffsets = (topology & 1) != 0;
                    options.traceEdges = (topology & 2) != 0;
                    Instrumented reference =
                        instrumentedReadSum(graph, direction, options);
                    std::vector<ThreadTrace> streamed =
                        direction == Direction::In
                            ? drainAll(makePullProducers(graph, options))
                            : drainAll(makeReadSumProducers(
                                  graph, direction, options));
                    EXPECT_TRUE(streamed == reference.traces)
                        << name << " direction "
                        << (direction == Direction::In ? "in" : "out")
                        << " threads " << threads << " offsets "
                        << options.traceOffsets << " edges "
                        << options.traceEdges;
                }
            }
        }
    }
}

TEST(SpmvOracle, ReferenceResultEqualsCompute)
{
    for (const auto &[name, graph] : oracleGraphs()) {
        const std::vector<double> ones(graph.numVertices(), 1.0);
        for (Direction direction : {Direction::In, Direction::Out}) {
            std::vector<double> y =
                instrumentedReadSum(graph, direction, {}).y;
            std::vector<double> computed(graph.numVertices());
            readSum(graph, direction, ones, computed);
            EXPECT_EQ(y, computed) << name;
        }

        std::vector<double> pull =
            instrumentedReadSum(graph, Direction::In, {}).y;
        std::vector<double> computed(graph.numVertices());
        spmvPull(graph, ones, computed);
        EXPECT_EQ(pull, computed) << name;
        double checksum = 0.0;
        for (double value : pull)
            checksum += value;
        EXPECT_EQ(SpmvKernel().run(graph).checksum, checksum) << name;
    }
}

} // namespace
} // namespace gral
