/**
 * @file
 * Data-TLB model.
 *
 * The paper reports DTLB misses as a coarse-grained locality signal
 * (Section VI-E): "DTLB misses show locality of RA at larger
 * granularity, i.e., at longer reuse distances than L3 misses."
 * The model is a set-associative LRU translation cache with a
 * configurable page size (4 KB or 2 MB huge pages).
 */

#ifndef GRAL_CACHESIM_TLB_H
#define GRAL_CACHESIM_TLB_H

#include <cstdint>
#include <vector>

namespace gral
{

/** Geometry of a TLB. */
struct TlbConfig
{
    /** Total entries. */
    std::uint32_t entries = 1536;
    /** Ways per set. */
    std::uint32_t associativity = 12;
    /** Page size in bytes (power of two). 2 MB huge pages by default,
     *  as the paper's framework uses huge pages. */
    std::uint64_t pageBytes = 2ULL * 1024 * 1024;
};

/** Xeon-Gold-6130-like second-level TLB for 4 KB pages. */
TlbConfig stlb4kConfig();

/** Xeon-Gold-6130-like TLB capacity for 2 MB huge pages. */
TlbConfig tlb2mConfig();

/** Hit/miss counters. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }

    double
    missRate() const
    {
        return accesses() == 0 ? 0.0
                               : static_cast<double>(misses) /
                                     static_cast<double>(accesses());
    }
};

/**
 * Set-associative LRU TLB.
 *
 * Flat, set-major state like Cache's. Each set keeps its valid page
 * numbers in recency order: way 0 holds the most recently used page
 * and the last valid way the least recently used one. A hit moves its
 * page to the front and a miss evicts the back, which is true LRU
 * without per-entry stamps; the common hit on the most recent page of
 * a set costs one compare.
 */
class Tlb
{
  public:
    /** @throws std::invalid_argument on broken geometry. */
    explicit Tlb(const TlbConfig &config);

    /** Translate the page of @p addr. @return true on TLB hit. */
    bool access(std::uint64_t addr);

    /** Invalidate all entries (not stats). */
    void flush();

    /** Reset statistics. */
    void resetStats();

    /** Counters. */
    const TlbStats &stats() const { return stats_; }

    /** Geometry in use. */
    const TlbConfig &config() const { return config_; }

  private:
    /** Hit below the front or miss: reorder the set and count. */
    bool accessBehindFront(std::uint64_t vpn, std::uint64_t set);

    TlbConfig config_;
    std::uint32_t ways_;
    std::uint32_t pageShift_;
    std::uint64_t setMask_;
    /** Page numbers, set-major, most recent first within a set. */
    std::vector<std::uint64_t> vpns_;
    /** Valid ways per set: [0, filled). */
    std::vector<std::uint32_t> filled_;
    TlbStats stats_;
};

inline bool
Tlb::access(std::uint64_t addr)
{
    const std::uint64_t vpn = addr >> pageShift_;
    const std::uint64_t set = vpn & setMask_;
    if (filled_[set] != 0 && vpns_[set * ways_] == vpn) {
        ++stats_.hits;
        return true;
    }
    return accessBehindFront(vpn, set);
}

} // namespace gral

#endif // GRAL_CACHESIM_TLB_H
