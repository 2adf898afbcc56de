/**
 * @file
 * Set-associative cache model with RRIP-family replacement.
 *
 * Follows the paper's simulator (Section V-B): a SimpleScalar-style
 * trace-driven cache "equipped with an accurate implementation of the
 * dueling BRRIP and SRRIP cache replacement policies" (i.e. DRRIP,
 * Jaleel et al., ISCA 2010), configured like the shared L3 of one
 * NUMA node of the evaluation machine.
 */

#ifndef GRAL_CACHESIM_CACHE_H
#define GRAL_CACHESIM_CACHE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "cachesim/trace.h"

namespace gral
{

/** Replacement policy selector. */
enum class ReplacementPolicy : std::uint8_t
{
    LRU,   ///< least recently used
    SRRIP, ///< static RRIP, hit-priority (Jaleel et al.)
    BRRIP, ///< bimodal RRIP
    DRRIP, ///< set-dueling dynamic RRIP (the paper's configuration)
};

/** Human-readable policy name. */
const char *toString(ReplacementPolicy policy);

/** Geometry and policy of one cache. */
struct CacheConfig
{
    /** Total capacity in bytes. @pre power-of-two sets result. */
    std::uint64_t sizeBytes = 22ULL * 1024 * 1024;
    /** Ways per set. */
    std::uint32_t associativity = 11;
    /** Line size in bytes (power of two). */
    std::uint32_t lineBytes = 64;
    /** Replacement policy. */
    ReplacementPolicy policy = ReplacementPolicy::DRRIP;
    /** RRIP counter width (M); max RRPV is 2^M - 1. */
    std::uint32_t rrpvBits = 2;
    /** BRRIP inserts with distant RRPV except 1-in-epsilon accesses. */
    std::uint32_t brripEpsilon = 32;
    /** Leader sets per team for DRRIP set dueling. */
    std::uint32_t duelingLeaderSets = 32;

    /** Number of sets implied by the geometry (0 when degenerate). */
    std::uint64_t
    numSets() const
    {
        std::uint64_t way_bytes =
            static_cast<std::uint64_t>(associativity) * lineBytes;
        return way_bytes == 0 ? 0 : sizeBytes / way_bytes;
    }
};

/** The paper's L3: 22 MB shared, DRRIP (one Xeon Gold 6130 socket). */
CacheConfig paperL3Config();

/** The paper machine's L2: 1 MB per core, here modeled with LRU. */
CacheConfig paperL2Config();

/** The paper machine's L1D: 32 KB per core, LRU. */
CacheConfig paperL1Config();

/** One sampled reading of the DRRIP policy-select counter. Plotted
 *  over the access index, the samples show the set-dueling
 *  convergence trajectory (PSEL above midpoint = SRRIP losing). */
struct PselSample
{
    /** Access clock at sampling time. */
    std::uint64_t access = 0;
    /** PSEL value at that access. */
    std::uint32_t psel = 0;
};

/** Set-dueling role of a cache set under DRRIP. */
enum class SetClass : std::uint8_t
{
    SrripLeader = 0, ///< always SRRIP, misses push PSEL up
    BrripLeader = 1, ///< always BRRIP, misses push PSEL down
    Follower = 2,    ///< follows the PSEL majority vote
};

/** Number of SetClass values. */
inline constexpr std::size_t kNumSetClasses = 3;

/** Human-readable set-class name. */
const char *toString(SetClass set_class);

/** Hit/miss counters of a cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    /** Total accesses observed. */
    std::uint64_t accesses() const { return hits + misses; }

    /** misses / accesses, 0 when empty. */
    double
    missRate() const
    {
        return accesses() == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses());
    }
};

/**
 * A single-level set-associative cache.
 *
 * Not thread-safe: the paper serializes parallel traces through one
 * model via round-robin interleaving (Section V-B), which is what the
 * InterleavingScheduler provides.
 */
class Cache
{
  public:
    /** Build an empty cache. @throws std::invalid_argument on broken
     *  geometry (non-power-of-two sets/line, zero ways). */
    explicit Cache(const CacheConfig &config);

    /**
     * Access one byte address.
     * @return true on hit. A line-crossing access should be split by
     *         the caller (accessRange does this).
     */
    bool access(std::uint64_t addr, bool is_write);

    /**
     * Access @p size bytes starting at @p addr, splitting across
     * lines. @return true when every touched line hit.
     */
    bool accessRange(std::uint64_t addr, std::uint32_t size,
                     bool is_write);

    /** True when the line containing @p addr is resident (no state
     *  update — used by tests and the ECS scanner). */
    bool contains(std::uint64_t addr) const;

    /** Invalidate everything and reset per-line state (not stats). */
    void flush();

    /** Reset statistics only. */
    void resetStats();

    /** Aggregate statistics. */
    const CacheStats &stats() const { return stats_; }

    /** Geometry in use. */
    const CacheConfig &config() const { return config_; }

    /** Number of currently valid lines. */
    std::uint64_t numValidLines() const;

    /**
     * Visit the base address of every valid line (ECS scanner,
     * Section VI-F of the paper).
     */
    void forEachValidLine(
        const std::function<void(std::uint64_t line_addr)> &visit) const;

    /** Value of the DRRIP policy-select counter (for tests). */
    std::uint32_t pselValue() const { return psel_; }

    /** Largest representable PSEL value. */
    std::uint32_t pselMax() const { return pselMax_; }

    /**
     * Record a PselSample every @p every accesses (0 disables), at
     * most @p max_samples of them: when full, the retained set is
     * halved and the interval doubled, so long runs stay bounded while
     * covering the whole trace. Enables the exported DRRIP dueling
     * trajectory (see MissProfileResult::pselSamples).
     */
    void enablePselSampling(std::uint64_t every,
                            std::size_t max_samples = 2048);

    /** Samples collected so far (empty unless sampling enabled). */
    const std::vector<PselSample> &
    pselSamples() const
    {
        return pselSamples_;
    }

    /** Counters of accesses landing in @p set_class sets. Under
     *  non-DRRIP policies everything counts as Follower. */
    const CacheStats &
    classStats(SetClass set_class) const
    {
        return classStats_[static_cast<std::size_t>(set_class)];
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
        std::uint8_t rrpv = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;

    /** Set-dueling role of @p set. */
    SetClass setClassOf(std::uint64_t set) const;

    /** Which policy governs @p set under DRRIP dueling. */
    ReplacementPolicy setPolicy(std::uint64_t set) const;

    /** Push one PSEL sample, decimating on overflow. */
    void samplePsel();

    Line *findLine(std::uint64_t set, std::uint64_t tag);
    const Line *findLine(std::uint64_t set, std::uint64_t tag) const;
    Line &chooseVictim(std::uint64_t set, ReplacementPolicy policy);

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint32_t lineShift_;
    std::uint8_t rrpvMax_;
    std::vector<Line> lines_; // set-major: lines_[set * ways + way]
    CacheStats stats_;
    std::uint64_t accessClock_ = 0;
    std::uint32_t psel_;          // DRRIP policy selector
    std::uint32_t pselMax_;
    std::uint64_t brripCounter_ = 0;
    CacheStats classStats_[kNumSetClasses];
    std::vector<PselSample> pselSamples_;
    std::uint64_t pselSampleEvery_ = 0; // 0 = sampling disabled
    std::size_t pselSampleCap_ = 0;
};

} // namespace gral

#endif // GRAL_CACHESIM_CACHE_H
