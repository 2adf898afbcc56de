#include "spmv/trace_gen.h"

#include "common/check.h"
#include "graph/partition.h"

namespace gral
{

namespace
{

/**
 * Resumable instrumented traversal of one thread's vertex range.
 *
 * A small state machine replaces the materialize-everything loop: the
 * cursor is (current vertex, neighbour index, stage), so the producer
 * holds O(1) state regardless of how many accesses the range yields.
 * Kind::ReadSum covers the pull SpMV and both Table-VI read-sum
 * traversals (they differ only in the adjacency walked); Kind::Push
 * is the push SpMV with its random read-modify-writes.
 */
class SpmvTraceProducer final : public AccessProducer
{
  public:
    enum class Kind : std::uint8_t
    {
        ReadSum, ///< offsets, [edges, dataOld(u)]*, store dataNew(v)
        Push,    ///< offsets, dataOld(v), [edges, store dataNew(u)]*
    };

    SpmvTraceProducer(const AdjacencyView &adj, Kind kind,
                      AccessPhase phase, VertexRange range,
                      EdgeId range_edges, const TraceOptions &options)
        : adj_(adj), options_(options), range_(range),
          rangeEdges_(range_edges), kind_(kind), phase_(phase),
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

    std::size_t
    sizeHint() const override
    {
        std::size_t per_edge = 1 + (options_.traceEdges ? 1 : 0);
        std::size_t per_vertex = 1 + (options_.traceOffsets ? 1 : 0);
        return static_cast<std::size_t>(rangeEdges_) * per_edge +
               static_cast<std::size_t>(range_.size()) * per_vertex;
    }

  private:
    enum class Stage : std::uint8_t
    {
        VertexBegin, ///< entering v: offsets load
        OwnData,     ///< push only: sequential dataOld[v] load
        EdgeTopo,    ///< next edge: edges-array load
        EdgeData,    ///< the random vertex-data access of that edge
        Store,       ///< read-sum only: sequential dataNew[v] store
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
                stage_ = kind_ == Kind::Push ? Stage::OwnData
                                             : Stage::EdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, phase_};
                    return true;
                }
                break;
              case Stage::OwnData:
                // Sequential load of the source's own (old) data.
                stage_ = Stage::EdgeTopo;
                out = {options_.map.dataOldAddr(v_), v_, v_,
                       kVertexDataBytes, false, AccessRegion::DataOld,
                       phase_};
                return true;
              case Stage::EdgeTopo:
                if (nbrIndex_ >= neighbours_.size()) {
                    if (kind_ == Kind::Push) {
                        ++v_;
                        stage_ = Stage::VertexBegin;
                    } else {
                        stage_ = Stage::Store;
                    }
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
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::EdgeTopo;
                if (kind_ == Kind::Push) {
                    // Random read-modify-write of the destination's
                    // data; one store access models the cache
                    // behaviour of the atomic update
                    // (write-allocate).
                    out = {options_.map.dataNewAddr(u), u, v_,
                           kVertexDataBytes, true,
                           AccessRegion::DataNew, phase_};
                } else {
                    // The random access RAs target: load neighbour
                    // data.
                    out = {options_.map.dataOldAddr(u), u, v_,
                           kVertexDataBytes, false,
                           AccessRegion::DataOld, phase_};
                }
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
    EdgeId rangeEdges_;
    Kind kind_;
    AccessPhase phase_;
    VertexId v_;
    std::span<const VertexId> neighbours_;
    std::size_t nbrIndex_ = 0;
    EdgeId edge_ = 0;
    Stage stage_ = Stage::VertexBegin;
};

/** One producer per edge-balanced partition of @p direction. Pull
 *  phases walk the CSC (In), push phases the CSR (Out). */
ProducerSet
makeProducers(const GraphView &graph, Direction direction,
              SpmvTraceProducer::Kind kind,
              const TraceOptions &options)
{
    GRAL_CHECK(!graph.isCompressed())
        << "makeProducers: decode compressed storage through "
           "graph/storage first";
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
            adj, kind, phase, range,
            edgesInRange(graph, direction, range), options));
    }
    return producers;
}

/** Drain every producer into its own materialized per-thread log. */
std::vector<ThreadTrace>
drainAll(ProducerSet producers)
{
    std::vector<ThreadTrace> traces;
    traces.reserve(producers.size());
    for (const std::unique_ptr<AccessProducer> &producer : producers)
        traces.push_back(drainProducer(*producer));
    return traces;
}

} // namespace

ProducerSet
makePullProducers(const GraphView &graph, const TraceOptions &options)
{
    return makeReadSumProducers(graph, Direction::In, options);
}

ProducerSet
makePushProducers(const GraphView &graph, const TraceOptions &options)
{
    return makeProducers(graph, Direction::Out,
                         SpmvTraceProducer::Kind::Push, options);
}

ProducerSet
makeReadSumProducers(const GraphView &graph, Direction direction,
                     const TraceOptions &options)
{
    return makeProducers(graph, direction,
                         SpmvTraceProducer::Kind::ReadSum, options);
}

std::vector<ThreadTrace>
generatePullTrace(const GraphView &graph, const TraceOptions &options)
{
    return drainAll(makePullProducers(graph, options));
}

std::vector<ThreadTrace>
generatePushTrace(const GraphView &graph, const TraceOptions &options)
{
    return drainAll(makePushProducers(graph, options));
}

std::vector<ThreadTrace>
generateReadSumTrace(const GraphView &graph, Direction direction,
                     const TraceOptions &options)
{
    return drainAll(makeReadSumProducers(graph, direction, options));
}

std::size_t
traceAccessCount(const std::vector<ThreadTrace> &traces)
{
    std::size_t total = 0;
    for (const ThreadTrace &trace : traces)
        total += trace.size();
    return total;
}

} // namespace gral
