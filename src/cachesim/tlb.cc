#include "cachesim/tlb.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace gral
{

TlbConfig
stlb4kConfig()
{
    TlbConfig config;
    config.entries = 1536;
    config.associativity = 12;
    config.pageBytes = 4096;
    return config;
}

TlbConfig
tlb2mConfig()
{
    TlbConfig config;
    config.entries = 32;
    config.associativity = 4;
    config.pageBytes = 2ULL * 1024 * 1024;
    return config;
}

Tlb::Tlb(const TlbConfig &config)
    : config_(config), ways_(config.associativity),
      pageShift_(static_cast<std::uint32_t>(
          std::countr_zero(config.pageBytes)))
{
    const std::uint64_t num_sets =
        ways_ == 0 ? 0 : config.entries / ways_;
    if (config.pageBytes == 0 || !std::has_single_bit(config.pageBytes))
        throw std::invalid_argument("Tlb: page size not a power of 2");
    if (ways_ == 0 || num_sets == 0 || !std::has_single_bit(num_sets))
        throw std::invalid_argument(
            "Tlb: set count must be a nonzero power of 2");
    setMask_ = num_sets - 1;
    vpns_.assign(num_sets * ways_, 0);
    filled_.assign(num_sets, 0);
}

bool
Tlb::accessBehindFront(std::uint64_t vpn, std::uint64_t set)
{
    std::uint64_t *vpns = vpns_.data() + set * ways_;
    std::uint32_t &filled = filled_[set];
    std::uint32_t way = 1;
    while (way < filled && vpns[way] != vpn)
        ++way;
    const bool hit = way < filled;
    if (hit) {
        ++stats_.hits;
    } else {
        ++stats_.misses;
        // A full set drops its least recently used page (the back).
        if (filled < ways_)
            ++filled;
        way = filled - 1;
    }
    std::copy_backward(vpns, vpns + way, vpns + way + 1);
    vpns[0] = vpn;
    return hit;
}

void
Tlb::flush()
{
    std::fill(filled_.begin(), filled_.end(), 0);
}

void
Tlb::resetStats()
{
    stats_ = TlbStats{};
}

} // namespace gral
