#include "kernels/bfs_kernel.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"

namespace gral
{

namespace
{

/**
 * Resumable replay of one simulated thread's share of every BFS
 * round, reconstructed from the final traversal state.
 *
 * Push round r: this thread's slice of the depth-(r-1) frontier
 * relaxes its out-edges through the primary topology; the distance
 * check of each target is a random access to the distance array, a
 * store exactly when the real run claimed that target through this
 * edge (distance == r and parent == the frontier vertex).
 *
 * Pull round r: this thread's static vertex range is scanned — the
 * real loop reads every distance once sequentially — and each
 * still-unreached vertex (final distance >= r) walks its in-edges
 * through the alt topology, randomly reading neighbour distances and
 * stopping at the first depth-(r-1) neighbour, which stores its new
 * distance. Final distances below r were already final when round r
 * ran, so the early exit is exact.
 */
class BfsTraceProducer final : public AccessProducer
{
  public:
    BfsTraceProducer(const GraphView &graph, const BfsResult &bfs,
                     std::span<const VertexId> by_depth,
                     std::span<const std::size_t> depth_offsets,
                     unsigned thread, unsigned num_threads,
                     const TraceOptions &options)
        : graph_(graph), bfs_(bfs), byDepth_(by_depth),
          depthOffsets_(depth_offsets), options_(options),
          thread_(thread), numThreads_(num_threads)
    {
        const VertexId n = graph.numVertices();
        rangeBegin_ = static_cast<VertexId>(
            static_cast<std::uint64_t>(n) * thread / num_threads);
        rangeEnd_ = static_cast<VertexId>(
            static_cast<std::uint64_t>(n) * (thread + 1) /
            num_threads);
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
        RoundBegin,      ///< pick the next round's direction
        PushVertexBegin, ///< next frontier vertex: offsets load
        PushEdgeTopo,    ///< next out-edge: edges-array load
        PushEdgeData,    ///< random distance check of the target
        PullScan,        ///< sequential distance read of the scan
        PullVertexTest,  ///< unreached vertex: offsetsAlt load
        PullEdgeTopo,    ///< next in-edge: edgesAlt load
        PullEdgeData,    ///< random distance read of the neighbour
        PullStore,       ///< claimed: store the new distance
    };

    /** This thread's slice of the depth-(d) frontier bucket. */
    std::span<const VertexId>
    frontierSlice(std::uint32_t d) const
    {
        std::size_t begin = depthOffsets_[d];
        std::size_t len = depthOffsets_[d + 1] - begin;
        std::size_t lo = begin + len * thread_ / numThreads_;
        std::size_t hi = begin + len * (thread_ + 1) / numThreads_;
        return byDepth_.subspan(lo, hi - lo);
    }

    /** Emit the next access into @p out; false when exhausted. */
    bool
    next(MemoryAccess &out)
    {
        for (;;) {
            switch (stage_) {
              case Stage::RoundBegin:
                if (round_ > bfs_.roundDense.size())
                    return false;
                if (bfs_.roundDense[round_ - 1]) {
                    v_ = rangeBegin_;
                    stage_ = Stage::PullScan;
                } else {
                    slice_ = frontierSlice(round_ - 1);
                    sliceIndex_ = 0;
                    stage_ = Stage::PushVertexBegin;
                }
                break;
              case Stage::PushVertexBegin:
                if (sliceIndex_ >= slice_.size()) {
                    ++round_;
                    stage_ = Stage::RoundBegin;
                    break;
                }
                u_ = slice_[sliceIndex_++];
                neighbours_ = graph_.outNeighbours(u_);
                nbrIndex_ = 0;
                edge_ = graph_.out().beginEdge(u_);
                stage_ = Stage::PushEdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAddr(u_),
                           kInvalidVertex, u_, kOffsetBytes, false,
                           AccessRegion::Offsets, AccessPhase::Push};
                    return true;
                }
                break;
              case Stage::PushEdgeTopo:
                if (nbrIndex_ >= neighbours_.size()) {
                    stage_ = Stage::PushVertexBegin;
                    break;
                }
                stage_ = Stage::PushEdgeData;
                if (options_.traceEdges) {
                    out = {options_.map.edgesAddr(edge_),
                           kInvalidVertex, u_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, AccessPhase::Push};
                    return true;
                }
                break;
              case Stage::PushEdgeData: {
                VertexId v = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::PushEdgeTopo;
                // Random distance check; the claiming edge writes.
                bool claims = bfs_.distance[v] == round_ &&
                              bfs_.parent[v] == u_;
                out = {options_.map.dataNewAddr(v), v, u_,
                       kVertexDataBytes, claims,
                       AccessRegion::DataNew, AccessPhase::Push};
                return true;
              }
              case Stage::PullScan:
                if (v_ >= rangeEnd_) {
                    ++round_;
                    stage_ = Stage::RoundBegin;
                    break;
                }
                // The scan's own sequential distance read (the
                // "already reached?" check of every vertex).
                stage_ = Stage::PullVertexTest;
                out = {options_.map.dataNewAddr(v_), v_, v_,
                       kVertexDataBytes, false, AccessRegion::DataNew,
                       AccessPhase::Pull};
                return true;
              case Stage::PullVertexTest:
                if (bfs_.distance[v_] < round_) {
                    // Was already reached when this round ran.
                    ++v_;
                    stage_ = Stage::PullScan;
                    break;
                }
                neighbours_ = graph_.inNeighbours(v_);
                nbrIndex_ = 0;
                edge_ = graph_.in().beginEdge(v_);
                stage_ = Stage::PullEdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAltAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::PullEdgeTopo:
                if (nbrIndex_ >= neighbours_.size()) {
                    // No parent found: v stays unreached this round.
                    ++v_;
                    stage_ = Stage::PullScan;
                    break;
                }
                stage_ = Stage::PullEdgeData;
                if (options_.traceEdges) {
                    out = {options_.map.edgesAltAddr(edge_),
                           kInvalidVertex, v_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::PullEdgeData: {
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                // Early exit at the first frontier in-neighbour:
                // distances below the current round were final when
                // the round ran, so this reproduces the real break.
                stage_ = bfs_.distance[u] == round_ - 1
                             ? Stage::PullStore
                             : Stage::PullEdgeTopo;
                out = {options_.map.dataNewAddr(u), u, v_,
                       kVertexDataBytes, false, AccessRegion::DataNew,
                       AccessPhase::Pull};
                return true;
              }
              case Stage::PullStore:
                out = {options_.map.dataNewAddr(v_), v_, v_,
                       kVertexDataBytes, true, AccessRegion::DataNew,
                       AccessPhase::Pull};
                ++v_;
                stage_ = Stage::PullScan;
                return true;
            }
        }
    }

    GraphView graph_;
    const BfsResult &bfs_;
    std::span<const VertexId> byDepth_;
    std::span<const std::size_t> depthOffsets_;
    TraceOptions options_;
    unsigned thread_;
    unsigned numThreads_;
    VertexId rangeBegin_ = 0;
    VertexId rangeEnd_ = 0;
    std::uint32_t round_ = 1;
    Stage stage_ = Stage::RoundBegin;
    std::span<const VertexId> slice_;
    std::size_t sliceIndex_ = 0;
    VertexId u_ = 0;
    VertexId v_ = 0;
    std::span<const VertexId> neighbours_;
    std::size_t nbrIndex_ = 0;
    EdgeId edge_ = 0;
};

/** Highest-out-degree vertex (lowest ID on ties); 0 if empty. */
VertexId
defaultSource(const GraphView &graph)
{
    VertexId best = 0;
    EdgeId best_degree = 0;
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        if (graph.outDegree(v) > best_degree) {
            best = v;
            best_degree = graph.outDegree(v);
        }
    }
    return best;
}

} // namespace

BfsResult
bfs(const GraphView &graph, VertexId source, const BfsOptions &options)
{
    const VertexId n = graph.numVertices();
    if (source >= n)
        throw std::invalid_argument("bfs: source out of range");

    BfsResult result;
    result.distance.assign(n, kUnreached);
    result.parent.assign(n, kInvalidVertex);
    result.distance[source] = 0;
    result.reached = 1;

    std::vector<VertexId> frontier = {source};
    std::vector<VertexId> next;
    std::uint32_t depth = 0;

    while (!frontier.empty()) {
        ++depth;
        // std::vector::clear, once per BFS round; the analyzer matches
        // the name to TraceRecorder::clear, which locks.
        // gral-analyzer: off-next-line(hot-path-lock)
        next.clear();

        // Unexplored out-edges hanging off the frontier decide the
        // direction (Beamer-style optimization; the dense phase is
        // the paper's "majority of edges processed" regime).
        EdgeId frontier_edges = 0;
        for (VertexId v : frontier)
            frontier_edges += graph.outDegree(v);
        bool dense =
            frontier_edges > graph.numEdges() / options.denseThreshold;
        if (options.mode == BfsMode::PushOnly)
            dense = false;
        else if (options.mode == BfsMode::PullOnly)
            dense = true;
        result.roundDense.push_back(dense ? 1 : 0);

        if (dense) {
            ++result.denseRounds;
            // Pull: every unreached vertex scans its in-neighbours
            // for a frontier member.
            for (VertexId v = 0; v < n; ++v) {
                if (result.distance[v] != kUnreached)
                    continue;
                for (VertexId u : graph.inNeighbours(v)) {
                    ++result.denseEdges;
                    if (result.distance[u] == depth - 1) {
                        result.distance[v] = depth;
                        result.parent[v] = u;
                        next.push_back(v);
                        ++result.reached;
                        break;
                    }
                }
            }
        } else {
            // Push: frontier members relax their out-edges.
            for (VertexId u : frontier) {
                for (VertexId v : graph.outNeighbours(u)) {
                    ++result.sparseEdges;
                    if (result.distance[v] == kUnreached) {
                        result.distance[v] = depth;
                        result.parent[v] = u;
                        next.push_back(v);
                        ++result.reached;
                    }
                }
            }
        }
        frontier.swap(next);
    }
    return result;
}

void
BfsKernel::execute(const GraphView &graph)
{
    GRAL_CHECK(graph.numVertices() > 0)
        << "BfsKernel: cannot traverse an empty graph";
    resolvedSource_ =
        source_ == kInvalidVertex ? defaultSource(graph) : source_;
    bfs_ = bfs(graph, resolvedSource_, options_);

    // Counting-sort reached vertices by distance so each round's
    // frontier is a contiguous bucket.
    std::uint32_t max_depth = 0;
    for (std::uint32_t d : bfs_.distance)
        if (d != kUnreached)
            max_depth = std::max(max_depth, d);
    depthOffsets_.assign(max_depth + 2, 0);
    for (std::uint32_t d : bfs_.distance)
        if (d != kUnreached)
            ++depthOffsets_[d + 1];
    for (std::size_t d = 1; d < depthOffsets_.size(); ++d)
        depthOffsets_[d] += depthOffsets_[d - 1];
    byDepth_.resize(depthOffsets_.back());
    std::vector<std::size_t> cursor(depthOffsets_.begin(),
                                    depthOffsets_.end() - 1);
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        if (bfs_.distance[v] != kUnreached)
            byDepth_[cursor[bfs_.distance[v]]++] = v;

    prepared_ = graph.key();
}

void
BfsKernel::prepare(const GraphView &graph)
{
    if (prepared_ != graph.key())
        execute(graph);
}

const BfsResult &
BfsKernel::result(const GraphView &graph)
{
    prepare(graph);
    return bfs_;
}

bool
BfsKernel::resolveAutoRelabel(const GraphView &graph)
{
    prepare(graph);
    return bfs_.denseEdges >= bfs_.sparseEdges;
}

KernelRunInfo
BfsKernel::run(const GraphView &graph)
{
    // Always execute (run() is the timed real kernel); refresh the
    // cached state subsequent makeProducers calls reuse.
    execute(graph);
    KernelRunInfo info;
    info.iterations =
        static_cast<unsigned>(bfs_.roundDense.size());
    info.checksum = static_cast<double>(bfs_.reached);
    return info;
}

ProducerSet
BfsKernel::makeProducers(const GraphView &graph,
                          const TraceOptions &options)
{
    prepare(graph);
    const unsigned threads = std::max(1u, options.numThreads);
    ProducerSet producers;
    producers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        // One producer per simulated thread at trace setup.
        // gral-analyzer: off(hot-path-alloc)
        producers.push_back(std::make_unique<BfsTraceProducer>(
            graph, bfs_, byDepth_, depthOffsets_, t, threads,
            options));
    }
    return producers;
}

} // namespace gral
