#include "cachesim/access_stream.h"

namespace gral
{

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
