/**
 * @file
 * Test-only trace helpers: materialize producer streams, stream
 * materialized logs back, and check a merged stream against a
 * reference order.
 *
 * The library feeds its simulator one way only: per-thread
 * AccessProducers through the InterleavingScheduler. Tests that want
 * to look at a whole trace drain the producers into vectors here, and
 * tests that want hand-written traces wrap them as producers here.
 */

#ifndef GRAL_TESTS_SUPPORT_TRACE_SUPPORT_H
#define GRAL_TESTS_SUPPORT_TRACE_SUPPORT_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cachesim/access_stream.h"
#include "cachesim/trace.h"
#include "graph/validate.h"

namespace gral
{

/** One simulated thread's access log, materialized. */
using ThreadTrace = std::vector<MemoryAccess>;

/** Streams a materialized ThreadTrace; the storage must outlive it. */
class VectorProducer final : public AccessProducer
{
  public:
    explicit VectorProducer(std::span<const MemoryAccess> trace)
        : trace_(trace)
    {
    }

    std::size_t
    fill(std::span<MemoryAccess> out) override
    {
        std::size_t n = std::min(out.size(), trace_.size() - cursor_);
        std::copy_n(trace_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                    n, out.begin());
        cursor_ += n;
        return n;
    }

  private:
    std::span<const MemoryAccess> trace_;
    std::size_t cursor_ = 0;
};

/** Collects every consumed access into a vector. */
class VectorSink final : public AccessSink
{
  public:
    explicit VectorSink(std::vector<MemoryAccess> &out) : out_(out) {}

    void
    consume(const MemoryAccess &access) override
    {
        out_.push_back(access);
    }

  private:
    std::vector<MemoryAccess> &out_;
};

/** Wrap per-thread logs as a ProducerSet; @p traces must outlive it. */
inline ProducerSet
producersFromTraces(std::span<const ThreadTrace> traces)
{
    ProducerSet producers;
    for (const ThreadTrace &trace : traces)
        producers.push_back(std::make_unique<VectorProducer>(trace));
    return producers;
}

/** Run one producer to exhaustion, @p step records per poll. */
inline ThreadTrace
drainProducer(AccessProducer &producer, std::size_t step = 1024)
{
    ThreadTrace trace;
    std::vector<MemoryAccess> buffer(step);
    std::size_t n;
    while ((n = producer.fill(buffer)) > 0)
        trace.insert(trace.end(), buffer.begin(),
                     buffer.begin() + static_cast<std::ptrdiff_t>(n));
    return trace;
}

/** Drain every producer into its own per-thread log. */
inline std::vector<ThreadTrace>
drainAll(ProducerSet producers)
{
    std::vector<ThreadTrace> traces;
    for (const std::unique_ptr<AccessProducer> &producer : producers)
        traces.push_back(drainProducer(*producer));
    return traces;
}

/** Total accesses across all threads. */
inline std::size_t
accessCount(std::span<const ThreadTrace> traces)
{
    std::size_t total = 0;
    for (const ThreadTrace &trace : traces)
        total += trace.size();
    return total;
}

/** The scheduler's merged order for @p producers, collected. */
inline std::vector<MemoryAccess>
scheduledOrder(ProducerSet producers, std::size_t chunk_size)
{
    std::vector<MemoryAccess> merged;
    InterleavingScheduler scheduler(std::move(producers), chunk_size);
    VectorSink sink(merged);
    scheduler.drainTo(sink);
    return merged;
}

/**
 * The paper's round-robin order written out plainly (Section V-B):
 * in each round, every thread with accesses left contributes its next
 * @p chunk_size of them, in thread order.
 */
inline std::vector<MemoryAccess>
referenceInterleave(std::span<const ThreadTrace> traces,
                    std::size_t chunk_size)
{
    std::vector<MemoryAccess> merged;
    std::vector<std::size_t> cursor(traces.size(), 0);
    for (bool any = true; any;) {
        any = false;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            for (std::size_t i = 0;
                 i < chunk_size && cursor[t] < traces[t].size(); ++i)
                merged.push_back(traces[t][cursor[t]++]);
            any = any || cursor[t] < traces[t].size();
        }
    }
    return merged;
}

/**
 * Sink decorator asserting a reference order: forwards every access
 * to the wrapped sink after checking it equals the next record of
 * @p expected. Throws ValidationError on the first out-of-order,
 * mutated or surplus access; call finish() after the drain to catch
 * truncation.
 */
class OrderCheckSink final : public AccessSink
{
  public:
    OrderCheckSink(AccessSink &inner,
                   std::span<const MemoryAccess> expected)
        : inner_(inner), expected_(expected)
    {
    }

    void
    consume(const MemoryAccess &access) override
    {
        if (position_ >= expected_.size())
            throw ValidationError(
                "access stream: surplus access at position " +
                std::to_string(position_));
        if (!(access == expected_[position_]))
            throw ValidationError(
                "access stream: diverges from the reference order at "
                "position " +
                std::to_string(position_));
        ++position_;
        inner_.consume(access);
    }

    /** @throws ValidationError unless every expected access came. */
    void
    finish() const
    {
        if (position_ != expected_.size())
            throw ValidationError(
                "access stream: ended after " +
                std::to_string(position_) + " of " +
                std::to_string(expected_.size()) + " accesses");
    }

  private:
    AccessSink &inner_;
    std::span<const MemoryAccess> expected_;
    std::size_t position_ = 0;
};

} // namespace gral

#endif // GRAL_TESTS_SUPPORT_TRACE_SUPPORT_H
