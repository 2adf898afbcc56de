#include "tests/support/reuse_distance.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace gral
{

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer(std::uint32_t line_bytes)
{
    if (line_bytes == 0 ||
        !std::has_single_bit(static_cast<std::uint64_t>(line_bytes)))
        throw std::invalid_argument(
            "ReuseDistanceAnalyzer: line size not a power of 2");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    tree_.assign(2, 0);
    marks_.assign(2, 0);
}

void
ReuseDistanceAnalyzer::growTo(std::size_t index)
{
    if (index + 1 < tree_.size())
        return;
    std::size_t size = tree_.size();
    while (size <= index + 1)
        size *= 2;
    marks_.resize(size, 0);
    // Rebuild the Fenwick tree from the mark array: O(size), amortized
    // O(1) per access thanks to doubling.
    tree_.assign(size, 0);
    for (std::size_t i = 1; i < size; ++i) {
        tree_[i] += marks_[i];
        std::size_t parent = i + (i & (~i + 1));
        if (parent < size)
            tree_[parent] += tree_[i];
    }
}

void
ReuseDistanceAnalyzer::bitAdd(std::size_t index, std::int64_t delta)
{
    // 1-based position index+1.
    growTo(index + 1);
    marks_[index + 1] = static_cast<std::uint8_t>(
        static_cast<std::int64_t>(marks_[index + 1]) + delta);
    for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
        tree_[i] += delta;
}

std::int64_t
ReuseDistanceAnalyzer::bitPrefixSum(std::size_t index) const
{
    std::int64_t sum = 0;
    std::size_t i = std::min(index + 1, tree_.size() - 1);
    for (; i > 0; i -= i & (~i + 1))
        sum += tree_[i];
    return sum;
}

void
ReuseDistanceAnalyzer::access(std::uint64_t addr)
{
    std::uint64_t line = addr >> lineShift_;
    auto [it, inserted] = lastAccess_.try_emplace(line, time_);
    if (inserted) {
        ++cold_;
    } else {
        std::uint64_t last = it->second;
        // Stack distance = distinct lines whose most-recent access
        // falls strictly after `last` (each such line has exactly one
        // mark in that window).
        std::int64_t after =
            bitPrefixSum(static_cast<std::size_t>(time_)) -
            bitPrefixSum(static_cast<std::size_t>(last));
        auto distance = static_cast<std::uint64_t>(after);
        std::size_t bucket =
            distance == 0 ? 0
                          : static_cast<std::size_t>(
                                std::bit_width(distance)) -
                                1;
        if (bucket >= histogram_.size())
            histogram_.resize(bucket + 1, 0);
        ++histogram_[bucket];
        bitAdd(static_cast<std::size_t>(last), -1);
        it->second = time_;
    }
    bitAdd(static_cast<std::size_t>(time_), +1);
    ++time_;
}

double
ReuseDistanceAnalyzer::hitRateAtCapacity(
    std::uint64_t capacity_lines) const
{
    if (time_ == 0)
        return 0.0;
    std::uint64_t hits = 0;
    for (std::size_t bucket = 0; bucket < histogram_.size(); ++bucket) {
        std::uint64_t upper = 1ULL << (bucket + 1); // exclusive
        if (upper <= capacity_lines)
            hits += histogram_[bucket];
    }
    return static_cast<double>(hits) / static_cast<double>(time_);
}

} // namespace gral
