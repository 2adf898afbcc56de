/**
 * @file
 * Streamed trace replay through the cache model.
 *
 * The paper performs parallel simulation in two phases (Section V-B):
 * "(1) logging memory accesses during graph processing by each of the
 * parallel threads, and (2) dividing execution duration between
 * threads where for each interval a thread simulates all logged
 * accesses by parallel threads in a round robin way."
 *
 * Phase 2 is implemented by InterleavingScheduler (access_stream.h),
 * which pulls fixed-size chunks from resumable per-thread producers.
 * This header provides replayStream, which drives the cache/TLB
 * models from that stream.
 */

#ifndef GRAL_CACHESIM_INTERLEAVE_H
#define GRAL_CACHESIM_INTERLEAVE_H

#include <cstdint>
#include <utility>

#include "cachesim/access_stream.h"
#include "cachesim/cache.h"
#include "cachesim/tlb.h"
#include "cachesim/trace.h"

namespace gral
{

/** Outcome of one replayed access. */
struct AccessOutcome
{
    bool cacheHit = false;
    bool tlbHit = true;
};

/** Counters accumulated by replayStream(). */
struct ReplayResult
{
    CacheStats cache;
    TlbStats tlb;
    std::uint64_t accessCount = 0;
    /** Peak MemoryAccess records resident at once during the replay:
     *  the scheduler's chunk buffer, never the whole trace. */
    std::uint64_t peakResidentAccesses = 0;

    /** peakResidentAccesses in bytes. */
    std::uint64_t
    peakResidentBytes() const
    {
        return peakResidentAccesses * sizeof(MemoryAccess);
    }
};

/**
 * Replay a streamed interleaving through a cache (and optional TLB).
 *
 * The per-access work is one visitor of InterleavingScheduler::forEach,
 * a template instantiated per hook pair, so the cache, the TLB and
 * both hooks inline into the scheduler's loop with no virtual call per
 * access. Resident trace memory is the scheduler's chunk buffer,
 * O(numProducers + chunkSize), not O(E).
 *
 * @param scheduler  interleaving over live producers (single-use).
 * @param cache      the (usually L3) model; stats accumulate into it.
 * @param tlb        optional TLB model.
 * @param on_access  callable (const MemoryAccess &, AccessOutcome),
 *                   invoked after the models saw the access; pass a
 *                   no-op lambda when not needed.
 * @param scan_every when > 0, @p on_scan is invoked with the cache
 *                   after every @p scan_every accesses (the paper's
 *                   periodic cache-content scan for ECS, Section
 *                   VI-F), after that access's @p on_access.
 * @param on_scan    callable (const Cache &).
 */
template <typename OnAccess, typename OnScan>
ReplayResult
replayStream(InterleavingScheduler &scheduler, Cache &cache, Tlb *tlb,
             OnAccess &&on_access, std::uint64_t scan_every,
             OnScan &&on_scan)
{
    std::uint64_t replayed = 0;
    std::uint64_t until_scan = scan_every;
    scheduler.forEach([&](const MemoryAccess &access) {
        AccessOutcome outcome;
        outcome.cacheHit =
            cache.accessRange(access.addr, access.size, access.isWrite);
        if (tlb != nullptr)
            outcome.tlbHit = tlb->access(access.addr);
        ++replayed;
        on_access(access, outcome);
        if (until_scan != 0 && --until_scan == 0) {
            on_scan(std::as_const(cache));
            until_scan = scan_every;
        }
    });

    ReplayResult result;
    result.accessCount = replayed;
    result.peakResidentAccesses = scheduler.peakResidentAccesses();
    result.cache = cache.stats();
    if (tlb != nullptr)
        result.tlb = tlb->stats();
    return result;
}

/** Streamed replay without hooks (single-use scheduler). */
ReplayResult replayStreamSimple(InterleavingScheduler &scheduler,
                                Cache &cache, Tlb *tlb = nullptr);

} // namespace gral

#endif // GRAL_CACHESIM_INTERLEAVE_H
