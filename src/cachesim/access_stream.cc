#include "cachesim/access_stream.h"

namespace gral
{

std::size_t
producerSizeHint(const ProducerSet &producers)
{
    std::size_t total = 0;
    for (const std::unique_ptr<AccessProducer> &producer : producers)
        // Once per producer at setup time, not per element.
        // gral-analyzer: off-next-line(hot-path-virtual)
        total += producer->sizeHint();
    return total;
}

InterleavingScheduler::InterleavingScheduler(ProducerSet producers,
                                             std::size_t chunk_size)
    : producers_(std::move(producers)), chunkSize_(chunk_size)
{
    if (chunk_size == 0)
        throw std::invalid_argument(
            "InterleavingScheduler: zero chunk");
}

void
InterleavingScheduler::drainTo(AccessSink &sink)
{
    forEach([&](const MemoryAccess &access) { sink.consume(access); });
}

} // namespace gral
