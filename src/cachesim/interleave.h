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
 * This header provides the replay sinks that drive the cache/TLB
 * models from that stream.
 */

#ifndef GRAL_CACHESIM_INTERLEAVE_H
#define GRAL_CACHESIM_INTERLEAVE_H

#include <cstddef>
#include <functional>
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
 * Replay sink: drives the (usually L3) cache model and optional TLB
 * from the merged stream, counting accesses. Subclasses observe
 * per-access outcomes through onOutcome().
 */
class CacheReplaySink : public AccessSink
{
  public:
    explicit CacheReplaySink(Cache &cache, Tlb *tlb = nullptr)
        : cache_(cache), tlb_(tlb)
    {
    }

    void
    consume(const MemoryAccess &access) final
    {
        AccessOutcome outcome;
        outcome.cacheHit =
            cache_.accessRange(access.addr, access.size,
                               access.isWrite);
        if (tlb_)
            outcome.tlbHit = tlb_->access(access.addr);
        ++accessCount_;
        onOutcome(access, outcome);
    }

    /** Accesses replayed so far. */
    std::uint64_t accessCount() const { return accessCount_; }

    /** The driven cache model. */
    const Cache &cache() const { return cache_; }

  protected:
    /** Hook invoked after every access with its hit/miss outcome. */
    virtual void
    onOutcome(const MemoryAccess &access, const AccessOutcome &outcome)
    {
        (void)access;
        (void)outcome;
    }

  private:
    Cache &cache_;
    Tlb *tlb_;
    std::uint64_t accessCount_ = 0;
};

/**
 * Sink decorator implementing the paper's periodic cache-content scan
 * (Section VI-F, the ECS measurement): forwards every access to the
 * wrapped sink and invokes @p on_scan with the cache after every
 * @p scan_every accesses.
 */
class PeriodicScanSink final : public AccessSink
{
  public:
    PeriodicScanSink(AccessSink &inner, const Cache &cache,
                     std::uint64_t scan_every,
                     std::function<void(const Cache &)> on_scan)
        : inner_(inner), cache_(cache), scanEvery_(scan_every),
          untilScan_(scan_every), onScan_(std::move(on_scan))
    {
    }

    void
    consume(const MemoryAccess &access) override
    {
        inner_.consume(access);
        if (scanEvery_ > 0 && --untilScan_ == 0) {
            onScan_(cache_);
            untilScan_ = scanEvery_;
        }
    }

  private:
    AccessSink &inner_;
    const Cache &cache_;
    std::uint64_t scanEvery_;
    std::uint64_t untilScan_;
    std::function<void(const Cache &)> onScan_;
};

namespace detail
{

/** CacheReplaySink forwarding outcomes to a caller-supplied hook. */
template <typename OnAccess>
class HookedReplaySink final : public CacheReplaySink
{
  public:
    HookedReplaySink(Cache &cache, Tlb *tlb, OnAccess &hook)
        : CacheReplaySink(cache, tlb), hook_(hook)
    {
    }

  protected:
    void
    onOutcome(const MemoryAccess &access,
              const AccessOutcome &outcome) override
    {
        hook_(access, outcome);
    }

  private:
    OnAccess &hook_;
};

} // namespace detail

/**
 * Replay a streamed interleaving through a cache (and optional TLB).
 *
 * Resident trace memory is the scheduler's chunk buffer,
 * O(numProducers + chunkSize), not O(E).
 *
 * @param scheduler  interleaving over live producers (single-use).
 * @param cache      the (usually L3) model; stats accumulate into it.
 * @param tlb        optional TLB model.
 * @param on_access  callable (const MemoryAccess &, AccessOutcome);
 *                   pass a no-op lambda when not needed.
 * @param scan_every when > 0, @p on_scan is invoked with the cache
 *                   after every @p scan_every accesses (the paper's
 *                   periodic cache-content scan for ECS).
 * @param on_scan    callable (const Cache &).
 */
template <typename OnAccess, typename OnScan>
ReplayResult
replayStream(InterleavingScheduler &scheduler, Cache &cache, Tlb *tlb,
             OnAccess &&on_access, std::uint64_t scan_every,
             OnScan &&on_scan)
{
    detail::HookedReplaySink<OnAccess> sink(cache, tlb, on_access);
    if (scan_every > 0) {
        PeriodicScanSink scanner(
            sink, cache, scan_every,
            [&](const Cache &snapshot) { on_scan(snapshot); });
        scheduler.drainTo(scanner);
    } else {
        scheduler.drainTo(sink);
    }

    ReplayResult result;
    result.accessCount = sink.accessCount();
    result.peakResidentAccesses = scheduler.peakResidentAccesses();
    result.cache = cache.stats();
    if (tlb)
        result.tlb = tlb->stats();
    return result;
}

/** Streamed replay without hooks (single-use scheduler). */
ReplayResult replayStreamSimple(InterleavingScheduler &scheduler,
                                Cache &cache, Tlb *tlb = nullptr);

} // namespace gral

#endif // GRAL_CACHESIM_INTERLEAVE_H
