#include "cachesim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "cachesim/validate.h"

namespace gral
{

namespace
{

/** Validate before the member initializers run: rrpvMax_ shifts by
 *  rrpvBits, which must already be known to be in range. */
const CacheConfig &
validated(const CacheConfig &config)
{
    validateCacheConfig(config);
    return config;
}

} // namespace

const char *
toString(SetClass set_class)
{
    switch (set_class) {
      case SetClass::SrripLeader:
        return "srrip_leader";
      case SetClass::BrripLeader:
        return "brrip_leader";
      case SetClass::Follower:
        return "follower";
    }
    return "?";
}

const char *
toString(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::LRU:
        return "LRU";
      case ReplacementPolicy::SRRIP:
        return "SRRIP";
      case ReplacementPolicy::BRRIP:
        return "BRRIP";
      case ReplacementPolicy::DRRIP:
        return "DRRIP";
    }
    return "?";
}

CacheConfig
paperL3Config()
{
    CacheConfig config;
    config.sizeBytes = 22ULL * 1024 * 1024;
    config.associativity = 11;
    config.lineBytes = 64;
    config.policy = ReplacementPolicy::DRRIP;
    return config;
}

CacheConfig
paperL2Config()
{
    CacheConfig config;
    config.sizeBytes = 1ULL * 1024 * 1024;
    config.associativity = 16;
    config.lineBytes = 64;
    config.policy = ReplacementPolicy::LRU;
    return config;
}

CacheConfig
paperL1Config()
{
    CacheConfig config;
    config.sizeBytes = 32ULL * 1024;
    config.associativity = 8;
    config.lineBytes = 64;
    config.policy = ReplacementPolicy::LRU;
    return config;
}

Cache::Cache(const CacheConfig &config)
    : config_(validated(config)), ways_(config.associativity),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(
          static_cast<std::uint64_t>(config.lineBytes)))),
      setShift_(static_cast<std::uint32_t>(
          std::countr_zero(config.numSets()))),
      setMask_(config.numSets() - 1),
      rrpvMax_(static_cast<std::uint8_t>((1u << config.rrpvBits) - 1)),
      lru_(config.policy == ReplacementPolicy::LRU),
      brripUntilLong_(config.brripEpsilon)
{
    const std::uint64_t num_sets = config.numSets();
    const std::uint64_t num_lines = num_sets * ways_;
    sets_.assign(num_sets, SetState{});
    tags_.assign(num_lines + kTagBlock - 1, 0);
    rrpv_.assign(num_lines, 0);
    dirty_.assign(num_lines, 0);
    if (lru_)
        lruStamps_.assign(num_lines, 0);

    if (config.policy != ReplacementPolicy::DRRIP)
        return;
    // Set dueling: spread leader sets evenly; even slots lead for
    // SRRIP, odd slots for BRRIP; everyone else follows PSEL.
    const std::uint64_t region = std::max<std::uint64_t>(
        1, num_sets / (2ULL * config.duelingLeaderSets));
    for (std::uint64_t set = 0; set < num_sets; set += region)
        sets_[set].setClass = (set / region) % 2 == 0
                                  ? SetClass::SrripLeader
                                  : SetClass::BrripLeader;
}

std::uint64_t
Cache::accessesToNextSample() const
{
    if (pselSampleEvery_ == 0)
        return 0;
    return pselSampleEvery_ - accessClock_ % pselSampleEvery_;
}

void
Cache::samplePsel()
{
    if (pselSamples_.size() >= pselSampleCap_) {
        // Keep every other sample and double the interval: bounded
        // memory, whole-trace coverage (same decimation as
        // obs Series).
        std::size_t out = 0;
        for (std::size_t i = 0; i < pselSamples_.size(); i += 2)
            pselSamples_[out++] = pselSamples_[i];
        pselSamples_.resize(out);
        pselSampleEvery_ *= 2;
    }
    pselSamples_.push_back({accessClock_, psel_});
    untilPselSample_ = accessesToNextSample();
}

void
Cache::enablePselSampling(std::uint64_t every, std::size_t max_samples)
{
    pselSampleEvery_ = every;
    pselSampleCap_ = max_samples < 2 ? 2 : max_samples;
    pselSamples_.clear();
    if (every != 0)
        pselSamples_.reserve(pselSampleCap_);
    untilPselSample_ = accessesToNextSample();
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint64_t line = addr >> lineShift_;
    return findWay(line & setMask_, line >> setShift_) != ways_;
}

void
Cache::flush()
{
    for (SetState &state : sets_)
        state.filled = 0;
    psel_ = kPselMax / 2;
    brripUntilLong_ = config_.brripEpsilon;
    accessClock_ = 0;
    untilPselSample_ = accessesToNextSample();
}

void
Cache::resetStats()
{
    stats_ = CacheStats{};
    for (CacheStats &class_stats : classStats_)
        class_stats = CacheStats{};
    pselSamples_.clear();
}

std::uint64_t
Cache::numValidLines() const
{
    std::uint64_t count = 0;
    for (const SetState &state : sets_)
        count += state.filled;
    return count;
}

void
Cache::forEachValidLine(
    const std::function<void(std::uint64_t)> &visit) const
{
    for (std::uint64_t set = 0; set < sets_.size(); ++set) {
        const std::uint64_t *tags = tags_.data() + set * ways_;
        for (std::uint32_t way = 0; way < sets_[set].filled; ++way)
            visit(((tags[way] << setShift_) | set) << lineShift_);
    }
}

} // namespace gral
