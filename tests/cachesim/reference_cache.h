/**
 * @file
 * Test-only reference models of the cache and the TLB.
 *
 * Written for clarity, not speed: every set is a vector of its valid
 * lines in way order, and each rule is spelled out the way Jaleel et
 * al. (ISCA'10, "High Performance Cache Replacement Using
 * Re-Reference Interval Prediction") and the paper's Section V-B
 * describe it. Where the papers leave a choice open, the model pins
 * this repository's conventions:
 *
 * - a miss fills the first invalid way before evicting anything;
 * - LRU evicts the first way holding the oldest stamp;
 * - an RRIP hit sets RRPV to 0; SRRIP inserts at max-1;
 * - BRRIP inserts at max, except that every epsilon-th BRRIP insertion
 *   across the whole cache goes in at max-1;
 * - the RRIP victim is the first way at max after aging the whole set
 *   one step at a time;
 * - DRRIP leader sets sit every max(1, sets / (2 * leaders)) sets;
 *   even slots lead for SRRIP, odd slots for BRRIP;
 * - PSEL is a 10-bit counter starting at 511: SRRIP-leader misses
 *   count it up, BRRIP-leader misses count it down, and followers use
 *   BRRIP iff PSEL > 511;
 * - a PSEL sample is taken when the access clock is a multiple of the
 *   sampling interval; a full sample buffer keeps every other sample
 *   and doubles the interval.
 *
 * The differential tests replay the same traces through these models
 * and through Cache / Tlb and require identical observable state.
 */

#ifndef GRAL_TESTS_CACHESIM_REFERENCE_CACHE_H
#define GRAL_TESTS_CACHESIM_REFERENCE_CACHE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cachesim/cache.h"
#include "cachesim/tlb.h"

namespace gral
{

/** Per-set-vector model of Cache. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), numSets_(config.numSets()),
          rrpvMax_((1u << config.rrpvBits) - 1), sets_(numSets_)
    {
    }

    /** Access the line holding byte @p addr. @return true on hit. */
    bool
    access(std::uint64_t addr, bool is_write)
    {
        ++clock_;
        if (sampleEvery_ != 0 && clock_ % sampleEvery_ == 0)
            samplePsel();

        std::uint64_t line_addr = addr / config_.lineBytes;
        std::uint64_t set = line_addr % numSets_;
        SetClass set_class = setClassOf(set);
        CacheStats &class_stats =
            classStats_[static_cast<std::size_t>(set_class)];
        std::vector<Line> &lines = sets_[set];

        for (Line &line : lines) {
            if (line.lineAddr == line_addr) {
                ++stats_.hits;
                ++class_stats.hits;
                line.lastUse = clock_;
                line.rrpv = 0;
                line.dirty = line.dirty || is_write;
                return true;
            }
        }

        ++stats_.misses;
        ++class_stats.misses;
        ReplacementPolicy policy = policyOf(set_class);
        if (set_class == SetClass::SrripLeader)
            psel_ = std::min(psel_ + 1, kPselMax);
        else if (set_class == SetClass::BrripLeader && psel_ > 0)
            --psel_;

        Line fresh;
        fresh.lineAddr = line_addr;
        fresh.lastUse = clock_;
        fresh.dirty = is_write;
        fresh.rrpv = insertionRrpv(policy);
        if (lines.size() < config_.associativity) {
            lines.push_back(fresh);
            return false;
        }
        Line &victim = lines[victimWay(lines, policy)];
        ++stats_.evictions;
        ++class_stats.evictions;
        if (victim.dirty) {
            ++stats_.writebacks;
            ++class_stats.writebacks;
        }
        victim = fresh;
        return false;
    }

    /** Access every line of [addr, addr + max(size, 1)). @return true
     *  when all of them hit. */
    bool
    accessRange(std::uint64_t addr, std::uint32_t size, bool is_write)
    {
        std::uint64_t first = addr / config_.lineBytes;
        std::uint64_t last =
            (addr + std::max<std::uint32_t>(size, 1) - 1) /
            config_.lineBytes;
        bool all_hit = true;
        for (std::uint64_t line = first; line <= last; ++line)
            all_hit =
                access(line * config_.lineBytes, is_write) && all_hit;
        return all_hit;
    }

    bool
    contains(std::uint64_t addr) const
    {
        std::uint64_t line_addr = addr / config_.lineBytes;
        for (const Line &line : sets_[line_addr % numSets_])
            if (line.lineAddr == line_addr)
                return true;
        return false;
    }

    /** Valid line base addresses, set-major, in way order. */
    std::vector<std::uint64_t>
    validLines() const
    {
        std::vector<std::uint64_t> out;
        for (const std::vector<Line> &lines : sets_)
            for (const Line &line : lines)
                out.push_back(line.lineAddr * config_.lineBytes);
        return out;
    }

    void
    flush()
    {
        for (std::vector<Line> &lines : sets_)
            lines.clear();
        psel_ = kPselMax / 2;
        brripInsertions_ = 0;
        clock_ = 0;
    }

    void
    resetStats()
    {
        stats_ = {};
        for (CacheStats &class_stats : classStats_)
            class_stats = {};
        samples_.clear();
    }

    void
    enablePselSampling(std::uint64_t every, std::size_t max_samples)
    {
        sampleEvery_ = every;
        sampleCap_ = std::max<std::size_t>(max_samples, 2);
        samples_.clear();
    }

    const CacheStats &stats() const { return stats_; }
    const CacheStats &
    classStats(SetClass set_class) const
    {
        return classStats_[static_cast<std::size_t>(set_class)];
    }
    const std::vector<PselSample> &pselSamples() const { return samples_; }
    std::uint32_t pselValue() const { return psel_; }

  private:
    struct Line
    {
        std::uint64_t lineAddr = 0;
        std::uint64_t lastUse = 0;
        std::uint32_t rrpv = 0;
        bool dirty = false;
    };

    static constexpr std::uint32_t kPselMax = 1023;

    SetClass
    setClassOf(std::uint64_t set) const
    {
        if (config_.policy != ReplacementPolicy::DRRIP)
            return SetClass::Follower;
        std::uint64_t region = std::max<std::uint64_t>(
            1, numSets_ / (2ULL * config_.duelingLeaderSets));
        if (set % region != 0)
            return SetClass::Follower;
        return (set / region) % 2 == 0 ? SetClass::SrripLeader
                                       : SetClass::BrripLeader;
    }

    ReplacementPolicy
    policyOf(SetClass set_class) const
    {
        if (config_.policy != ReplacementPolicy::DRRIP)
            return config_.policy;
        if (set_class == SetClass::SrripLeader)
            return ReplacementPolicy::SRRIP;
        if (set_class == SetClass::BrripLeader)
            return ReplacementPolicy::BRRIP;
        return psel_ > kPselMax / 2 ? ReplacementPolicy::BRRIP
                                    : ReplacementPolicy::SRRIP;
    }

    std::uint32_t
    insertionRrpv(ReplacementPolicy policy)
    {
        if (policy == ReplacementPolicy::LRU)
            return 0;
        if (policy == ReplacementPolicy::SRRIP)
            return rrpvMax_ - 1;
        ++brripInsertions_;
        return brripInsertions_ % config_.brripEpsilon == 0
                   ? rrpvMax_ - 1
                   : rrpvMax_;
    }

    std::size_t
    victimWay(std::vector<Line> &lines, ReplacementPolicy policy) const
    {
        if (policy == ReplacementPolicy::LRU) {
            std::size_t victim = 0;
            for (std::size_t way = 1; way < lines.size(); ++way)
                if (lines[way].lastUse < lines[victim].lastUse)
                    victim = way;
            return victim;
        }
        // Jaleel et al.: look for a distant (max) RRPV; when there is
        // none, age every line by one and look again.
        for (;;) {
            for (std::size_t way = 0; way < lines.size(); ++way)
                if (lines[way].rrpv == rrpvMax_)
                    return way;
            for (Line &line : lines)
                ++line.rrpv;
        }
    }

    void
    samplePsel()
    {
        if (samples_.size() >= sampleCap_) {
            std::vector<PselSample> kept;
            for (std::size_t i = 0; i < samples_.size(); i += 2)
                kept.push_back(samples_[i]);
            samples_ = kept;
            sampleEvery_ *= 2;
        }
        samples_.push_back({clock_, psel_});
    }

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint32_t rrpvMax_;
    std::vector<std::vector<Line>> sets_;
    CacheStats stats_;
    CacheStats classStats_[kNumSetClasses];
    std::uint64_t clock_ = 0;
    std::uint32_t psel_ = kPselMax / 2;
    std::uint64_t brripInsertions_ = 0;
    std::uint64_t sampleEvery_ = 0;
    std::size_t sampleCap_ = 2;
    std::vector<PselSample> samples_;
};

/** Per-set-vector model of Tlb: set-associative, true LRU. */
class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbConfig &config)
        : pageBytes_(config.pageBytes), ways_(config.associativity),
          sets_(config.entries / config.associativity)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        ++clock_;
        std::uint64_t vpn = addr / pageBytes_;
        std::vector<Entry> &entries = sets_[vpn % sets_.size()];
        for (Entry &entry : entries) {
            if (entry.vpn == vpn) {
                ++stats_.hits;
                entry.lastUse = clock_;
                return true;
            }
        }
        ++stats_.misses;
        if (entries.size() < ways_) {
            entries.push_back({vpn, clock_});
            return false;
        }
        std::size_t victim = 0;
        for (std::size_t way = 1; way < entries.size(); ++way)
            if (entries[way].lastUse < entries[victim].lastUse)
                victim = way;
        entries[victim] = {vpn, clock_};
        return false;
    }

    void
    flush()
    {
        for (std::vector<Entry> &entries : sets_)
            entries.clear();
        clock_ = 0;
    }

    void resetStats() { stats_ = {}; }

    const TlbStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t pageBytes_;
    std::uint32_t ways_;
    std::vector<std::vector<Entry>> sets_;
    TlbStats stats_;
    std::uint64_t clock_ = 0;
};

} // namespace gral

#endif // GRAL_TESTS_CACHESIM_REFERENCE_CACHE_H
