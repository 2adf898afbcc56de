#include "cachesim/interleave.h"

namespace gral
{

ReplayResult
replayStreamSimple(InterleavingScheduler &scheduler, Cache &cache,
                   Tlb *tlb)
{
    return replayStream(
        scheduler, cache, tlb,
        [](const MemoryAccess &, const AccessOutcome &) {}, 0,
        [](const Cache &) {});
}

} // namespace gral
