#include "kernels/cc_kernel.h"

#include <algorithm>

#include "graph/partition.h"

namespace gral
{

namespace
{

/**
 * Resumable trace of one thread's share of every propagation sweep.
 * Per vertex and sweep: the own-label read, the in-neighbour gather
 * over the primary topology (Pull), the out-neighbour gather over
 * the alt topology (Push), and — exactly when the recorded run
 * lowered this vertex's label in this sweep — the update store.
 */
class CcTraceProducer final : public AccessProducer
{
  public:
    CcTraceProducer(
        const GraphView &graph,
        std::span<const std::vector<std::uint8_t>> changed,
        VertexRange range, const TraceOptions &options)
        : graph_(graph), changed_(changed), options_(options),
          range_(range), v_(range.begin)
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
        VertexBegin, ///< entering v: own-label read
        InOffsets,   ///< primary offsets load
        InEdgeTopo,  ///< next in-edge: primary edges load
        InEdgeData,  ///< random read of the in-neighbour's label
        OutOffsets,  ///< alt offsets load
        OutEdgeTopo, ///< next out-edge: alt edges load
        OutEdgeData, ///< random read of the out-neighbour's label
        MaybeStore,  ///< store iff this sweep lowered v's label
    };

    /** Emit the next access into @p out; false when exhausted. */
    bool
    next(MemoryAccess &out)
    {
        for (;;) {
            switch (stage_) {
              case Stage::VertexBegin:
                if (v_ >= range_.end) {
                    if (++sweep_ >= changed_.size())
                        return false;
                    v_ = range_.begin;
                    break;
                }
                stage_ = Stage::InOffsets;
                // Sequential read of v's own label.
                out = {options_.map.dataNewAddr(v_), v_, v_,
                       kVertexDataBytes, false, AccessRegion::DataNew,
                       AccessPhase::None};
                return true;
              case Stage::InOffsets:
                neighbours_ = graph_.inNeighbours(v_);
                nbrIndex_ = 0;
                edge_ = graph_.in().beginEdge(v_);
                stage_ = Stage::InEdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::InEdgeTopo:
                if (nbrIndex_ >= neighbours_.size()) {
                    stage_ = Stage::OutOffsets;
                    break;
                }
                stage_ = Stage::InEdgeData;
                if (options_.traceEdges) {
                    out = {options_.map.edgesAddr(edge_),
                           kInvalidVertex, v_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, AccessPhase::Pull};
                    return true;
                }
                break;
              case Stage::InEdgeData: {
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::InEdgeTopo;
                out = {options_.map.dataNewAddr(u), u, v_,
                       kVertexDataBytes, false, AccessRegion::DataNew,
                       AccessPhase::Pull};
                return true;
              }
              case Stage::OutOffsets:
                neighbours_ = graph_.outNeighbours(v_);
                nbrIndex_ = 0;
                edge_ = graph_.out().beginEdge(v_);
                stage_ = Stage::OutEdgeTopo;
                if (options_.traceOffsets) {
                    out = {options_.map.offsetsAltAddr(v_),
                           kInvalidVertex, v_, kOffsetBytes, false,
                           AccessRegion::Offsets, AccessPhase::Push};
                    return true;
                }
                break;
              case Stage::OutEdgeTopo:
                if (nbrIndex_ >= neighbours_.size()) {
                    stage_ = Stage::MaybeStore;
                    break;
                }
                stage_ = Stage::OutEdgeData;
                if (options_.traceEdges) {
                    out = {options_.map.edgesAltAddr(edge_),
                           kInvalidVertex, v_, kEdgeBytes, false,
                           AccessRegion::EdgesArr, AccessPhase::Push};
                    return true;
                }
                break;
              case Stage::OutEdgeData: {
                VertexId u = neighbours_[nbrIndex_++];
                ++edge_;
                stage_ = Stage::OutEdgeTopo;
                out = {options_.map.dataNewAddr(u), u, v_,
                       kVertexDataBytes, false, AccessRegion::DataNew,
                       AccessPhase::Push};
                return true;
              }
              case Stage::MaybeStore: {
                bool stores = changed_[sweep_][v_] != 0;
                VertexId v = v_;
                ++v_;
                stage_ = Stage::VertexBegin;
                if (stores) {
                    out = {options_.map.dataNewAddr(v), v, v,
                           kVertexDataBytes, true,
                           AccessRegion::DataNew, AccessPhase::None};
                    return true;
                }
                break;
              }
            }
        }
    }

    GraphView graph_;
    std::span<const std::vector<std::uint8_t>> changed_;
    TraceOptions options_;
    VertexRange range_;
    std::size_t sweep_ = 0;
    VertexId v_;
    std::span<const VertexId> neighbours_;
    std::size_t nbrIndex_ = 0;
    EdgeId edge_ = 0;
    Stage stage_ = Stage::VertexBegin;
};

} // namespace

void
CcKernel::execute(const GraphView &graph)
{
    const VertexId n = graph.numVertices();
    label_.resize(n);
    for (VertexId v = 0; v < n; ++v)
        label_[v] = v;
    changed_.clear();
    numComponents_ = 0;

    // Min-label sweeps to the fixpoint, with a per-sweep changed mask
    // recorded so the producers can replay which stores happened.
    bool any_changed = n > 0;
    while (any_changed && (maxIterations_ == 0 ||
                           changed_.size() < maxIterations_)) {
        any_changed = false;
        std::vector<std::uint8_t> mask(n, 0);
        for (VertexId v = 0; v < n; ++v) {
            VertexId best = label_[v];
            for (VertexId u : graph.inNeighbours(v))
                best = std::min(best, label_[u]);
            for (VertexId u : graph.outNeighbours(v))
                best = std::min(best, label_[u]);
            if (best < label_[v]) {
                label_[v] = best;
                mask[v] = 1;
                any_changed = true;
            }
        }
        changed_.push_back(std::move(mask));
    }

    // Compress to final labels and count roots.
    for (VertexId v = 0; v < n; ++v) {
        VertexId l = label_[v];
        while (label_[l] != l)
            l = label_[l];
        label_[v] = l;
    }
    for (VertexId v = 0; v < n; ++v)
        if (label_[v] == v)
            ++numComponents_;

    prepared_ = graph.key();
}

void
CcKernel::prepare(const GraphView &graph)
{
    if (prepared_ != graph.key())
        execute(graph);
}

const std::vector<VertexId> &
CcKernel::labels(const GraphView &graph)
{
    prepare(graph);
    return label_;
}

VertexId
CcKernel::numComponents(const GraphView &graph)
{
    prepare(graph);
    return numComponents_;
}

KernelRunInfo
CcKernel::run(const GraphView &graph)
{
    // Always execute (run() is the timed real kernel); refresh the
    // cached state subsequent makeProducers calls reuse.
    execute(graph);
    KernelRunInfo info;
    info.iterations = static_cast<unsigned>(changed_.size());
    info.checksum = static_cast<double>(numComponents_);
    return info;
}

ProducerSet
CcKernel::makeProducers(const GraphView &graph,
                         const TraceOptions &options)
{
    prepare(graph);
    std::vector<VertexRange> parts = edgeBalancedPartitions(
        graph, Direction::In, options.numThreads);
    ProducerSet producers;
    producers.reserve(parts.size());
    for (VertexRange range : parts) {
        // One producer per partition at trace setup, not per access.
        // gral-analyzer: off(hot-path-alloc)
        producers.push_back(std::make_unique<CcTraceProducer>(
            graph, changed_, range, options));
    }
    return producers;
}

} // namespace gral
