/**
 * @file
 * Streaming memory-access pipeline: producers, sinks, and the
 * round-robin interleaving scheduler.
 *
 * The paper's simulator (Section V-B) runs in two phases: per-thread
 * access logging followed by round-robin replay through the shared L3
 * model. Materializing phase 1 costs O(E) memory (~32 B per access,
 * several per edge), which forbids the paper's 10^8-10^9-edge regime.
 * This layer keeps phase-2 semantics exactly while streaming phase 1:
 * resumable AccessProducer generators are polled a fixed-size chunk at
 * a time by the InterleavingScheduler and fed to an AccessSink, so
 * resident trace memory is O(chunk), not O(E).
 */

#ifndef GRAL_CACHESIM_ACCESS_STREAM_H
#define GRAL_CACHESIM_ACCESS_STREAM_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cachesim/trace.h"
#include "common/check.h"

namespace gral
{

/**
 * Consumer end of the streaming pipeline for custom consumers: a sink
 * passed to InterleavingScheduler::drainTo sees every access of the
 * merged stream, at one virtual call per access. The library's own
 * cache replay (replayStream, interleave.h) is instead a visitor of
 * InterleavingScheduler::forEach, inlined into the scheduler's loop.
 */
class AccessSink
{
  public:
    virtual ~AccessSink() = default;

    /** Observe one access of the merged stream. */
    virtual void consume(const MemoryAccess &access) = 0;
};

/**
 * Producer end: a resumable generator of one thread's access log.
 *
 * A producer stands in for one logging thread of the paper's phase 1.
 * It is polled incrementally, so implementations keep O(1) cursor
 * state instead of a materialized log.
 */
class AccessProducer
{
  public:
    virtual ~AccessProducer() = default;

    /**
     * Write the next accesses of this thread's stream into @p out.
     *
     * @return the number of records written. A return value of 0
     *         means the stream is exhausted; a short (non-zero) fill
     *         does NOT imply exhaustion — callers keep polling until
     *         they see 0 or their quota is met.
     */
    virtual std::size_t fill(std::span<MemoryAccess> out) = 0;
};

/** Owning set of per-thread producers (one per simulated thread). */
using ProducerSet = std::vector<std::unique_ptr<AccessProducer>>;

/**
 * Bounded round-robin scheduler — the paper's phase-2 interleaving
 * over live producers instead of materialized logs.
 *
 * Visits each live producer in turn, pulling up to chunkSize()
 * accesses into an internal buffer and forwarding them downstream,
 * "dividing execution duration between threads where for each
 * interval a thread simulates all logged accesses by parallel threads
 * in a round robin way" (Section V-B). Each turn polls one producer
 * until it has delivered chunkSize() accesses or returned 0; a
 * producer that returned 0 leaves the rotation.
 *
 * Resident memory is one chunk buffer plus the producers' O(1)
 * cursors: O(numProducers + chunkSize), independent of stream length.
 * Single-use: the producers are consumed by the first run.
 */
class InterleavingScheduler
{
  public:
    /** @pre chunk_size > 0 (throws std::invalid_argument). */
    InterleavingScheduler(ProducerSet producers, std::size_t chunk_size);

    /** Round-robin chunk size (accesses per thread turn). */
    std::size_t chunkSize() const { return chunkSize_; }

    /** Number of per-thread producers. */
    std::size_t numProducers() const { return producers_.size(); }

    /** Accesses streamed so far. */
    std::uint64_t streamed() const { return streamed_; }

    /** Largest number of MemoryAccess records buffered at once (at
     *  most chunkSize()); the streaming pipeline's resident trace
     *  footprint in records. */
    std::size_t peakResidentAccesses() const { return peakResident_; }

    /** peakResidentAccesses() in bytes. */
    std::size_t
    peakResidentBytes() const
    {
        return peakResident_ * sizeof(MemoryAccess);
    }

    /**
     * Stream every access in interleaved order into @p visit
     * (callable taking const MemoryAccess &). Single-use.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visit)
    {
        if (consumed_)
            throw std::logic_error(
                "InterleavingScheduler: producers already consumed");
        consumed_ = true;

        std::vector<MemoryAccess> buffer(chunkSize_);
        std::vector<AccessProducer *> live;
        live.reserve(producers_.size());
        for (const std::unique_ptr<AccessProducer> &producer :
             producers_)
            live.push_back(producer.get());

        while (!live.empty()) {
            std::size_t survivors = 0;
            for (std::size_t t = 0; t < live.size(); ++t) {
                std::size_t got = 0;
                bool exhausted = false;
                while (got < chunkSize_) {
                    // Batched: each virtual fill() delivers up to a
                    // whole chunk, amortizing the dispatch.
                    // gral-analyzer: off-next-line(hot-path-virtual)
                    std::size_t n = live[t]->fill(
                        std::span(buffer).subspan(got,
                                                  chunkSize_ - got));
                    if (n == 0) {
                        exhausted = true;
                        break;
                    }
                    GRAL_DCHECK(n <= chunkSize_ - got)
                        << "producer overfilled its span: wrote " << n
                        << " records into " << (chunkSize_ - got);
                    got += n;
                }
                if (got > peakResident_)
                    peakResident_ = got;
                streamed_ += got;
                for (std::size_t i = 0; i < got; ++i)
                    visit(std::as_const(buffer)[i]);
                if (!exhausted)
                    live[survivors++] = live[t];
            }
            live.resize(survivors);
        }
    }

    /** Stream everything into @p sink. Single-use. */
    void drainTo(AccessSink &sink);

  private:
    ProducerSet producers_;
    std::size_t chunkSize_;
    std::uint64_t streamed_ = 0;
    std::size_t peakResident_ = 0;
    bool consumed_ = false;
};

} // namespace gral

#endif // GRAL_CACHESIM_ACCESS_STREAM_H
