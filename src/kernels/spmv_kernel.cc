#include "kernels/spmv_kernel.h"

#include <vector>

#include "common/check.h"
#include "graph/partition.h"

namespace gral
{

void
spmvPull(const GraphView &graph, std::span<const double> src,
         std::span<double> dst)
{
    GRAL_CHECK(src.size() == graph.numVertices())
        << "source vector has " << src.size() << " entries for |V| = "
        << graph.numVertices();
    GRAL_CHECK(dst.size() == graph.numVertices())
        << "destination vector has " << dst.size()
        << " entries for |V| = " << graph.numVertices();
    readSum(graph, Direction::In, src, dst);
}

void
readSum(const GraphView &graph, Direction direction,
        std::span<const double> src, std::span<double> dst)
{
    const AdjacencyView &adj =
        direction == Direction::In ? graph.in() : graph.out();
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        double sum = 0.0;
        for (VertexId u : adj.neighbours(v))
            sum += src[u];
        dst[v] = sum;
    }
}

namespace
{

/**
 * Resumable instrumented read-sum traversal of one thread's vertex
 * range: the pull SpMV over the CSC (In) or the Table-VI read-sum
 * over the CSR (Out), which differ only in the adjacency walked.
 *
 * A small state machine replaces the materialize-everything loop: the
 * cursor is (current vertex, neighbour index, stage), so the producer
 * holds O(1) state regardless of how many accesses the range yields.
 */
class SpmvTraceProducer final : public AccessProducer
{
  public:
    SpmvTraceProducer(const AdjacencyView &adj, AccessPhase phase,
                      VertexRange range, const TraceOptions &options)
        : adj_(adj), options_(options), range_(range), phase_(phase),
          v_(range.begin)
    {
    }

    std::size_t
    fill(std::span<MemoryAccess> out) override
    {
        std::size_t n = 0;
        while (n < out.size() && next(out[n]))
            ++n;
        return n;
    }

  private:
    enum class Stage : std::uint8_t
    {
        VertexBegin, ///< entering v: offsets load
        EdgeTopo,    ///< next edge: edges-array load
        EdgeData,    ///< random load of that edge's neighbour data
        Store,       ///< sequential dataNew[v] store
    };

    /** Emit the next access into @p out; false when exhausted. */
    bool
    next(MemoryAccess &out)
    {
        for (;;) {
            switch (stage_) {
              case Stage::VertexBegin:
                if (v_ >= range_.end)
                    return false;
                neighbours_ = adj_.neighbours(v_);
                nbrIndex_ = 0;
                edge_ = adj_.beginEdge(v_);
                stage_ = Stage::EdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, phase_};
                    return true;
                }
                break;
              case Stage::EdgeTopo:
                if (nbrIndex_ >= neighbours_.size()) {
                    stage_ = Stage::Store;
                    break;
                }
                stage_ = Stage::EdgeData;
                if (options_.traceEdges) {
                    out = {options_.map.edgesAddr(edge_),
                           kInvalidVertex, v_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, phase_};
                    return true;
                }
                break;
              case Stage::EdgeData: {
                // The random access RAs target: load neighbour data.
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::EdgeTopo;
                out = {options_.map.dataOldAddr(u), u, v_,
                       kVertexDataBytes, false, AccessRegion::DataOld,
                       phase_};
                return true;
              }
              case Stage::Store:
                // Sequential result store.
                out = {options_.map.dataNewAddr(v_), v_, v_,
                       kVertexDataBytes, true, AccessRegion::DataNew,
                       phase_};
                ++v_;
                stage_ = Stage::VertexBegin;
                return true;
            }
        }
    }

    AdjacencyView adj_;
    TraceOptions options_;
    VertexRange range_;
    AccessPhase phase_;
    VertexId v_;
    std::span<const VertexId> neighbours_;
    std::size_t nbrIndex_ = 0;
    EdgeId edge_ = 0;
    Stage stage_ = Stage::VertexBegin;
};

} // namespace

ProducerSet
makePullProducers(const GraphView &graph, const TraceOptions &options)
{
    return makeReadSumProducers(graph, Direction::In, options);
}

ProducerSet
makeReadSumProducers(const GraphView &graph, Direction direction,
                     const TraceOptions &options)
{
    const AdjacencyView &adj =
        direction == Direction::In ? graph.in() : graph.out();
    const AccessPhase phase = direction == Direction::In
                                  ? AccessPhase::Pull
                                  : AccessPhase::Push;
    std::vector<VertexRange> parts =
        edgeBalancedPartitions(graph, direction, options.numThreads);

    ProducerSet producers;
    producers.reserve(parts.size());
    for (VertexRange range : parts) {
        // One producer per partition at trace setup, not per access.
        // gral-analyzer: off(hot-path-alloc)
        producers.push_back(std::make_unique<SpmvTraceProducer>(
            adj, phase, range, options));
    }
    return producers;
}

KernelRunInfo
SpmvKernel::run(const GraphView &graph)
{
    std::vector<double> src(graph.numVertices(), 1.0);
    std::vector<double> dst(graph.numVertices(), 0.0);
    spmvPull(graph, src, dst);

    KernelRunInfo info;
    info.iterations = 1;
    for (double value : dst)
        info.checksum += value;
    return info;
}

ProducerSet
SpmvKernel::makeProducers(const GraphView &graph,
                           const TraceOptions &options)
{
    return makePullProducers(graph, options);
}

} // namespace gral
