#include "cachesim/validate.h"

#include <bit>
#include <cstdint>
#include <string>

namespace gral
{

namespace
{

[[noreturn]] void
fail(const std::string &what, const std::string &detail)
{
    throw ValidationError(what + ": " + detail);
}

std::string
str(std::uint64_t value)
{
    return std::to_string(value);
}

} // namespace

void
validateCacheConfig(const CacheConfig &config)
{
    const std::string what = "cache config";
    if (config.lineBytes == 0 ||
        !std::has_single_bit(
            static_cast<std::uint64_t>(config.lineBytes)))
        fail(what, "line size " + str(config.lineBytes) +
                       " is not a power of 2");
    if (config.associativity == 0)
        fail(what, "zero ways");
    std::uint64_t sets = config.numSets();
    if (sets == 0 || !std::has_single_bit(sets))
        fail(what, "geometry " + str(config.sizeBytes) + " B / " +
                       str(config.associativity) + "-way / " +
                       str(config.lineBytes) +
                       " B lines implies set count " + str(sets) +
                       ", which is not a nonzero power of 2");
    if (config.rrpvBits < 1 || config.rrpvBits > 8)
        fail(what, "RRPV width " + str(config.rrpvBits) +
                       " outside [1, 8]");
    bool rrip = config.policy == ReplacementPolicy::SRRIP ||
                config.policy == ReplacementPolicy::BRRIP ||
                config.policy == ReplacementPolicy::DRRIP;
    if (rrip && config.brripEpsilon == 0)
        fail(what, "BRRIP epsilon must be nonzero");
    if (config.policy == ReplacementPolicy::DRRIP &&
        config.duelingLeaderSets == 0)
        fail(what, "DRRIP needs at least one leader set per team");
}

} // namespace gral
