#include "kernels/ihtl.h"

#include <algorithm>
#include <numeric>

#include "graph/partition.h"

namespace gral
{

IhtlGraph::IhtlGraph(const GraphView &graph, const IhtlConfig &config)
    : graph_(graph), hubIndex_(graph.numVertices(), kInvalidVertex)
{
    const VertexId n = graph.numVertices();

    VertexId num_hubs = config.numHubs;
    if (num_hubs == 0) {
        num_hubs = static_cast<VertexId>(
            config.cacheFraction *
            static_cast<double>(config.cacheBytes) /
            kVertexDataBytes);
    }
    num_hubs = std::min(num_hubs, n);

    // Select the top in-degree vertices as flipped-block hubs.
    std::vector<VertexId> by_in_degree(n);
    std::iota(by_in_degree.begin(), by_in_degree.end(), VertexId{0});
    std::stable_sort(by_in_degree.begin(), by_in_degree.end(),
                     [&](VertexId a, VertexId b) {
                         return graph.inDegree(a) > graph.inDegree(b);
                     });
    hubs_.assign(by_in_degree.begin(),
                 by_in_degree.begin() + num_hubs);
    for (VertexId slot = 0; slot < num_hubs; ++slot)
        hubIndex_[hubs_[slot]] = slot;

    // Flipped block: per *source* vertex, the dense hub slots it
    // feeds (push layout). Sparse block: per vertex, its non-hub
    // in-neighbours (pull layout).
    std::vector<EdgeId> flipped_offsets(static_cast<std::size_t>(n) +
                                        1);
    std::vector<EdgeId> sparse_offsets(static_cast<std::size_t>(n) +
                                       1);
    for (VertexId v = 0; v < n; ++v) {
        EdgeId to_hubs = 0;
        for (VertexId u : graph.outNeighbours(v))
            to_hubs += hubIndex_[u] != kInvalidVertex ? 1 : 0;
        flipped_offsets[v + 1] = flipped_offsets[v] + to_hubs;

        EdgeId from_non = 0;
        if (hubIndex_[v] == kInvalidVertex)
            from_non = graph.inDegree(v);
        sparse_offsets[v + 1] = sparse_offsets[v] + from_non;
    }

    std::vector<VertexId> flipped_edges(flipped_offsets.back());
    std::vector<VertexId> sparse_edges(sparse_offsets.back());
    for (VertexId v = 0; v < n; ++v) {
        EdgeId cursor = flipped_offsets[v];
        for (VertexId u : graph.outNeighbours(v))
            if (hubIndex_[u] != kInvalidVertex)
                flipped_edges[cursor++] = hubIndex_[u];
        if (hubIndex_[v] == kInvalidVertex) {
            EdgeId scursor = sparse_offsets[v];
            for (VertexId u : graph.inNeighbours(v))
                sparse_edges[scursor++] = u;
        }
    }

    flipped_ =
        Adjacency(std::move(flipped_offsets), std::move(flipped_edges));
    sparse_ =
        Adjacency(std::move(sparse_offsets), std::move(sparse_edges));
}

void
IhtlGraph::spmv(std::span<const double> src,
                std::span<double> dst) const
{
    const VertexId n = graph_.numVertices();

    // Push pass over the flipped block: hub accumulators are a dense
    // array of numHubs() doubles — the structure sized to the cache.
    std::vector<double> hub_accumulator(hubs_.size(), 0.0);
    for (VertexId v = 0; v < n; ++v) {
        double value = src[v];
        for (VertexId slot : flipped_.neighbours(v))
            hub_accumulator[slot] += value;
    }
    for (VertexId slot = 0;
         slot < static_cast<VertexId>(hubs_.size()); ++slot)
        dst[hubs_[slot]] = hub_accumulator[slot];

    // Pull pass over the sparse block.
    for (VertexId v = 0; v < n; ++v) {
        if (hubIndex_[v] != kInvalidVertex)
            continue;
        double sum = 0.0;
        for (VertexId u : sparse_.neighbours(v))
            sum += src[u];
        dst[v] = sum;
    }
}

namespace
{

/**
 * Resumable instrumented iHTL traversal of one thread's vertex range:
 * its share of the push pass over the flipped block (sequential own
 * reads, near-resident hub-accumulator writes), then its share of the
 * pull pass over the sparse block. Hub accumulators live where the
 * relabeled vertex data would be: the first numHubs() slots of the
 * data array, i.e. a compact cache-resident range.
 */
class IhtlTraceProducer final : public AccessProducer
{
  public:
    IhtlTraceProducer(std::span<const VertexId> hubs,
                      std::span<const VertexId> hub_index,
                      const Adjacency &flipped, const Adjacency &sparse,
                      VertexId begin, VertexId end,
                      const TraceOptions &options)
        : hubs_(hubs), hubIndex_(hub_index), flipped_(flipped),
          sparse_(sparse), options_(options), begin_(begin), end_(end),
          v_(begin)
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
        PushVertex, ///< entering v in the push pass: own-data load
        PushEdge,   ///< next flipped edge: edges-array load
        PushWrite,  ///< hub-accumulator write of that edge
        PullVertex, ///< entering v in the pull pass: offsets load
        PullEdge,   ///< next sparse edge: edges-array load
        PullLoad,   ///< random dataOld load of that edge
        PullStore,  ///< sequential result store
    };

    bool
    next(MemoryAccess &out)
    {
        for (;;) {
            switch (stage_) {
              case Stage::PushVertex:
                if (v_ >= end_) {
                    v_ = begin_;
                    stage_ = Stage::PullVertex;
                    break;
                }
                neighbours_ = flipped_.neighbours(v_);
                nbrIndex_ = 0;
                edge_ = flipped_.beginEdge(v_);
                stage_ = Stage::PushEdge;
                out = {options_.map.dataOldAddr(v_), v_, v_,
                       kVertexDataBytes, false, AccessRegion::DataOld,
                       AccessPhase::Push};
                return true;
              case Stage::PushEdge:
                if (nbrIndex_ >= neighbours_.size()) {
                    ++v_;
                    stage_ = Stage::PushVertex;
                    break;
                }
                stage_ = Stage::PushWrite;
                if (options_.traceEdges) {
                    out = {options_.map.edgesAddr(edge_),
                           kInvalidVertex, v_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, AccessPhase::Push};
                    return true;
                }
                break;
              case Stage::PushWrite: {
                VertexId slot = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::PushEdge;
                out = {options_.map.dataNewAddr(slot), hubs_[slot],
                       v_, kVertexDataBytes, true,
                       AccessRegion::DataNew, AccessPhase::Push};
                return true;
              }
              case Stage::PullVertex:
                if (v_ >= end_)
                    return false;
                if (hubIndex_[v_] != kInvalidVertex) {
                    ++v_;
                    break;
                }
                neighbours_ = sparse_.neighbours(v_);
                nbrIndex_ = 0;
                edge_ = sparse_.beginEdge(v_);
                stage_ = Stage::PullEdge;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::PullEdge:
                if (nbrIndex_ >= neighbours_.size()) {
                    stage_ = Stage::PullStore;
                    break;
                }
                stage_ = Stage::PullLoad;
                if (options_.traceEdges) {
                    // Sparse-block edges live after the flipped block
                    // in the synthetic edges array.
                    out = {options_.map.edgesAddr(flipped_.numEdges() +
                                                  edge_),
                           kInvalidVertex, v_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::PullLoad: {
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::PullEdge;
                out = {options_.map.dataOldAddr(u), u, v_,
                       kVertexDataBytes, false, AccessRegion::DataOld,
                       AccessPhase::Pull};
                return true;
              }
              case Stage::PullStore:
                out = {options_.map.dataNewAddr(
                           static_cast<VertexId>(hubs_.size()) + v_),
                       v_, v_, kVertexDataBytes, true,
                       AccessRegion::DataNew, AccessPhase::Pull};
                ++v_;
                stage_ = Stage::PullVertex;
                return true;
            }
        }
    }

    std::span<const VertexId> hubs_;
    std::span<const VertexId> hubIndex_;
    const Adjacency &flipped_;
    const Adjacency &sparse_;
    TraceOptions options_;
    VertexId begin_;
    VertexId end_;
    VertexId v_;
    std::span<const VertexId> neighbours_;
    std::size_t nbrIndex_ = 0;
    EdgeId edge_ = 0;
    Stage stage_ = Stage::PushVertex;
};

} // namespace

ProducerSet
IhtlGraph::makeTraceProducers(const TraceOptions &options) const
{
    const VertexId n = graph_.numVertices();
    // One simulated thread per contiguous vertex range; each thread
    // performs its share of the push pass then of the pull pass.
    VertexId num_threads = std::max(1u, options.numThreads);

    ProducerSet producers;
    producers.reserve(num_threads);
    for (VertexId t = 0; t < num_threads; ++t) {
        VertexId begin = static_cast<VertexId>(
            static_cast<std::uint64_t>(n) * t / num_threads);
        VertexId end = static_cast<VertexId>(
            static_cast<std::uint64_t>(n) * (t + 1) / num_threads);
        // One producer per thread at trace setup, not per access.
        // gral-analyzer: off(hot-path-alloc)
        producers.push_back(std::make_unique<IhtlTraceProducer>(
            hubs_, hubIndex_, flipped_, sparse_, begin, end,
            options));
    }
    return producers;
}

} // namespace gral
