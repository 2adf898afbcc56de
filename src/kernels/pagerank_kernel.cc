#include "kernels/pagerank_kernel.h"

#include <algorithm>
#include <cmath>

#include "graph/partition.h"

namespace gral
{

namespace
{

/**
 * Resumable trace of one thread's share of every PageRank iteration:
 * the pull read-sum sweep (offsets, [edges, read src(u)]*, store
 * dst(v)) repeated per iteration with the score buffers ping-ponged —
 * even iterations read dataOld and write dataNew, odd iterations the
 * reverse, matching the solver's swap.
 */
class PageRankTraceProducer final : public AccessProducer
{
  public:
    PageRankTraceProducer(const AdjacencyView &adj, unsigned iterations,
                          VertexRange range, const TraceOptions &options)
        : adj_(adj), options_(options), range_(range),
          iterations_(iterations), v_(range.begin)
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
        EdgeData,    ///< random read of the in-neighbour's score
        Store,       ///< sequential store of v's new score
    };

    /** Iteration-parity source score address/region. */
    std::uint64_t
    srcAddr(VertexId u) const
    {
        return iteration_ % 2 == 0 ? options_.map.dataOldAddr(u)
                                   : options_.map.dataNewAddr(u);
    }

    AccessRegion
    srcRegion() const
    {
        return iteration_ % 2 == 0 ? AccessRegion::DataOld
                                   : AccessRegion::DataNew;
    }

    /** Emit the next access into @p out; false when exhausted. */
    bool
    next(MemoryAccess &out)
    {
        for (;;) {
            switch (stage_) {
              case Stage::VertexBegin:
                if (v_ >= range_.end) {
                    if (++iteration_ >= iterations_)
                        return false;
                    v_ = range_.begin;
                    break;
                }
                neighbours_ = adj_.neighbours(v_);
                nbrIndex_ = 0;
                edge_ = adj_.beginEdge(v_);
                stage_ = Stage::EdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, AccessPhase::Pull};
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
                           AccessRegion::EdgesArr, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::EdgeData: {
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::EdgeTopo;
                // The random gather RAs target: the in-neighbour's
                // score from the parity-selected buffer.
                out = {srcAddr(u), u, v_, kVertexDataBytes, false,
                       srcRegion(), AccessPhase::Pull};
                return true;
              }
              case Stage::Store: {
                // Sequential store of the damped sum into the
                // opposite-parity buffer.
                bool even = iteration_ % 2 == 0;
                out = {even ? options_.map.dataNewAddr(v_)
                            : options_.map.dataOldAddr(v_),
                       v_, v_, kVertexDataBytes, true,
                       even ? AccessRegion::DataNew
                            : AccessRegion::DataOld,
                       AccessPhase::Pull};
                ++v_;
                stage_ = Stage::VertexBegin;
                return true;
              }
            }
        }
    }

    AdjacencyView adj_;
    TraceOptions options_;
    VertexRange range_;
    unsigned iterations_;
    unsigned iteration_ = 0;
    VertexId v_;
    std::span<const VertexId> neighbours_;
    std::size_t nbrIndex_ = 0;
    EdgeId edge_ = 0;
    Stage stage_ = Stage::VertexBegin;
};

} // namespace

PageRankResult
pageRank(const GraphView &graph, const PageRankOptions &options)
{
    const VertexId n = graph.numVertices();
    PageRankResult result;
    if (n == 0)
        return result;

    const double base = (1.0 - options.damping) / n;
    std::vector<double> current(n, 1.0 / n);
    std::vector<double> next(n, 0.0);
    // Contribution of each vertex: score / out-degree.
    std::vector<double> contribution(n, 0.0);

    for (unsigned iteration = 0; iteration < options.maxIterations;
         ++iteration) {
        double dangling = 0.0;
        for (VertexId v = 0; v < n; ++v) {
            EdgeId out = graph.outDegree(v);
            if (out == 0) {
                dangling += current[v];
                contribution[v] = 0.0;
            } else {
                contribution[v] =
                    current[v] / static_cast<double>(out);
            }
        }
        double dangling_share = options.damping * dangling / n;

        // The Algorithm-1 pull gather: random reads of in-neighbour
        // contributions.
        for (VertexId v = 0; v < n; ++v) {
            double sum = 0.0;
            for (VertexId u : graph.inNeighbours(v))
                sum += contribution[u];
            next[v] = base + dangling_share + options.damping * sum;
        }

        double delta = 0.0;
        for (VertexId v = 0; v < n; ++v)
            delta += std::abs(next[v] - current[v]);
        std::swap(current, next);
        result.iterations = iteration + 1;
        result.lastDelta = delta;
        if (delta < options.tolerance)
            break;
    }

    result.scores = std::move(current);
    return result;
}

void
PageRankKernel::prepare(const GraphView &graph)
{
    if (prepared_ == graph.key())
        return;
    result_ = pageRank(graph, options_);
    prepared_ = graph.key();
}

const PageRankResult &
PageRankKernel::result(const GraphView &graph)
{
    prepare(graph);
    return result_;
}

KernelRunInfo
PageRankKernel::run(const GraphView &graph)
{
    // Always execute (run() is the timed real kernel); refresh the
    // cached state subsequent makeProducers calls reuse.
    result_ = pageRank(graph, options_);
    prepared_ = graph.key();
    KernelRunInfo info;
    info.iterations = result_.iterations;
    info.checksum = result_.lastDelta;
    return info;
}

ProducerSet
PageRankKernel::makeProducers(const GraphView &graph,
                               const TraceOptions &options)
{
    // The real run decides how many sweeps the trace replays.
    prepare(graph);
    const unsigned iterations = std::max(1u, result_.iterations);

    std::vector<VertexRange> parts =
        edgeBalancedPartitions(graph, Direction::In,
                               options.numThreads);
    ProducerSet producers;
    producers.reserve(parts.size());
    for (VertexRange range : parts) {
        // One producer per partition at trace setup, not per access.
        // gral-analyzer: off(hot-path-alloc)
        producers.push_back(std::make_unique<PageRankTraceProducer>(
            graph.in(), iterations, range, options));
    }
    return producers;
}

} // namespace gral
