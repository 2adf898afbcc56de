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

#include <algorithm>
#include <bit>
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
 * State is flat and set-major: way w of set s lives at index
 * s * associativity + w of each per-way array (tags, RRPVs, dirty
 * bits, and LRU stamps, which exist only under LRU). A miss always
 * fills the first invalid way and only flush() invalidates, so the
 * valid ways of a set are the prefix [0, filled) and need no per-way
 * valid bit. A per-set table built in the constructor holds that fill
 * count and the set's dueling class, so an access costs two shifts
 * and a mask, never a division.
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
    std::uint32_t pselMax() const { return kPselMax; }

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
    /** 10-bit DRRIP policy selector; followers use BRRIP above half. */
    static constexpr std::uint32_t kPselMax = 1023;

    /** Ways findWay compares per step; tags_ carries kTagBlock - 1
     *  padding entries so a step never reads past its end. */
    static constexpr std::uint32_t kTagBlock = 8;

    /** Per-set table entry. */
    struct SetState
    {
        /** Valid ways: [0, filled). */
        std::uint32_t filled = 0;
        SetClass setClass = SetClass::Follower;
    };

    /** Way of @p set holding @p tag, or associativity when absent. */
    std::uint32_t findWay(std::uint64_t set, std::uint64_t tag) const;

    /** Miss path: update the duel, pick a way, install @p tag. */
    void install(std::uint64_t set, std::uint64_t tag, bool is_write);

    /** First way holding the oldest LRU stamp of a full set. */
    std::uint32_t lruVictim(std::size_t base) const;

    /** Age a full set once, by max minus its largest RRPV, and return
     *  its first way at max. */
    std::uint32_t rripVictim(std::size_t base);

    /** RRPV of a line installed under @p policy. */
    std::uint8_t insertionRrpv(ReplacementPolicy policy);

    /** Push one PSEL sample, decimating on overflow, and count down
     *  to the next one. */
    void samplePsel();

    /** Accesses until the clock next reaches a multiple of the sample
     *  interval (0 = sampling off). */
    std::uint64_t accessesToNextSample() const;

    CacheConfig config_;
    std::uint32_t ways_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;
    std::uint64_t setMask_;
    std::uint8_t rrpvMax_;
    bool lru_;
    std::vector<SetState> sets_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> rrpv_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> lruStamps_; // empty unless LRU
    CacheStats stats_;
    CacheStats classStats_[kNumSetClasses];
    std::uint64_t accessClock_ = 0;
    std::uint32_t psel_ = kPselMax / 2;
    /** BRRIP insertions until the next one at max-1. */
    std::uint32_t brripUntilLong_;
    std::vector<PselSample> pselSamples_;
    std::uint64_t pselSampleEvery_ = 0; // 0 = sampling disabled
    std::size_t pselSampleCap_ = 0;
    /** Accesses until the next PSEL sample (0 = sampling disabled). */
    std::uint64_t untilPselSample_ = 0;
};

inline std::uint32_t
Cache::findWay(std::uint64_t set, std::uint64_t tag) const
{
    // Compare a fixed block of ways into a bit mask, then branch once:
    // which way hits is data-dependent, so a per-way early exit would
    // mispredict often. A block may run past the set's valid ways
    // (into the next set, or the tag array's padding); the mask drops
    // those lanes.
    const std::uint64_t *tags = tags_.data() + set * ways_;
    const std::uint32_t filled = sets_[set].filled;
    for (std::uint32_t block = 0; block < filled; block += kTagBlock) {
        const std::uint64_t *lanes = tags + block;
        std::uint32_t match = 0;
        for (std::uint32_t i = 0; i < kTagBlock; ++i)
            match |= std::uint32_t{lanes[i] == tag} << i;
        const std::uint32_t valid = filled - block;
        if (valid < kTagBlock)
            match &= (1u << valid) - 1;
        if (match != 0)
            return block + static_cast<std::uint32_t>(std::countr_zero(match));
    }
    return ways_;
}

inline std::uint32_t
Cache::lruVictim(std::size_t base) const
{
    const std::uint64_t *stamps = lruStamps_.data() + base;
    std::uint32_t victim = 0;
    for (std::uint32_t way = 1; way < ways_; ++way)
        if (stamps[way] < stamps[victim])
            victim = way;
    return victim;
}

inline std::uint32_t
Cache::rripVictim(std::size_t base)
{
    // Aging one step at a time until some line reaches max ends with
    // every line raised by max - top, and the victim is the first way
    // that held top. Members are read into locals first: the byte
    // stores below may alias them.
    std::uint8_t *rrpv = rrpv_.data() + base;
    const std::uint32_t ways = ways_;
    const std::uint8_t max = rrpvMax_;
    std::uint32_t victim = 0;
    std::uint8_t top = rrpv[0];
    for (std::uint32_t way = 1; way < ways; ++way) {
        if (rrpv[way] > top) {
            top = rrpv[way];
            victim = way;
        }
    }
    if (top != max) {
        const auto age = static_cast<std::uint8_t>(max - top);
        for (std::uint32_t way = 0; way < ways; ++way)
            rrpv[way] = static_cast<std::uint8_t>(rrpv[way] + age);
    }
    return victim;
}

inline std::uint8_t
Cache::insertionRrpv(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::LRU:
        return 0;
      case ReplacementPolicy::BRRIP:
        // Mostly distant; every epsilon-th BRRIP insertion is long.
        if (--brripUntilLong_ != 0)
            return rrpvMax_;
        brripUntilLong_ = config_.brripEpsilon;
        return static_cast<std::uint8_t>(rrpvMax_ - 1);
      case ReplacementPolicy::SRRIP:
      case ReplacementPolicy::DRRIP:
        break;
    }
    // SRRIP: "long" re-reference interval. DRRIP never reaches here
    // unresolved: install() maps it to SRRIP or BRRIP per set.
    return static_cast<std::uint8_t>(rrpvMax_ - 1);
}

inline void
Cache::install(std::uint64_t set, std::uint64_t tag, bool is_write)
{
    SetState &state = sets_[set];
    CacheStats &class_stats =
        classStats_[static_cast<std::size_t>(state.setClass)];
    ++stats_.misses;
    ++class_stats.misses;

    // Leader misses move the duel; PSEL counts SRRIP-leader misses
    // upward, so high PSEL means SRRIP is losing and followers switch
    // to BRRIP.
    ReplacementPolicy policy = config_.policy;
    switch (state.setClass) {
      case SetClass::SrripLeader:
        policy = ReplacementPolicy::SRRIP;
        if (psel_ < kPselMax)
            ++psel_;
        break;
      case SetClass::BrripLeader:
        policy = ReplacementPolicy::BRRIP;
        if (psel_ > 0)
            --psel_;
        break;
      case SetClass::Follower:
        if (policy == ReplacementPolicy::DRRIP)
            policy = psel_ > kPselMax / 2 ? ReplacementPolicy::BRRIP
                                          : ReplacementPolicy::SRRIP;
        break;
    }

    const std::size_t base = set * ways_;
    std::uint32_t way = state.filled;
    if (way < ways_) {
        ++state.filled;
    } else {
        way = policy == ReplacementPolicy::LRU ? lruVictim(base)
                                               : rripVictim(base);
        ++stats_.evictions;
        ++class_stats.evictions;
        if (dirty_[base + way] != 0) {
            ++stats_.writebacks;
            ++class_stats.writebacks;
        }
    }
    const std::size_t slot = base + way;
    tags_[slot] = tag;
    dirty_[slot] = is_write ? 1 : 0;
    rrpv_[slot] = insertionRrpv(policy);
    if (lru_)
        lruStamps_[slot] = accessClock_;
}

inline bool
Cache::access(std::uint64_t addr, bool is_write)
{
    ++accessClock_;
    if (untilPselSample_ != 0 && --untilPselSample_ == 0)
        samplePsel();

    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t set = line & setMask_;
    const std::uint64_t tag = line >> setShift_;
    const std::uint32_t way = findWay(set, tag);
    if (way == ways_) {
        install(set, tag, is_write);
        return false;
    }
    ++stats_.hits;
    ++classStats_[static_cast<std::size_t>(sets_[set].setClass)].hits;
    const std::size_t slot = set * ways_ + way;
    rrpv_[slot] = 0; // RRIP hit-priority: promote to near
    dirty_[slot] |= is_write ? 1 : 0;
    if (lru_)
        lruStamps_[slot] = accessClock_;
    return true;
}

inline bool
Cache::accessRange(std::uint64_t addr, std::uint32_t size, bool is_write)
{
    const std::uint64_t first = addr >> lineShift_;
    const std::uint64_t last =
        (addr + std::max<std::uint32_t>(size, 1) - 1) >> lineShift_;
    bool all_hit = true;
    for (std::uint64_t line = first; line <= last; ++line)
        all_hit &= access(line << lineShift_, is_write);
    return all_hit;
}

} // namespace gral

#endif // GRAL_CACHESIM_CACHE_H
