/**
 * @file
 * Test-only reuse-distance (LRU stack distance) analysis.
 *
 * Reuse-distance curves are the established whole-program locality
 * metric the paper positions its tools against (Section I): "reuse
 * distance curves are practical only for comparing locality of a
 * graph as a whole and do not reveal detailed information about the
 * impact of RAs." The tests use the analyzer as an oracle for a
 * fully-associative LRU cache of any capacity.
 *
 * Implementation: Mattson's algorithm with a Fenwick tree over access
 * timestamps — O(log N) per access, exact distances.
 */

#ifndef GRAL_TESTS_SUPPORT_REUSE_DISTANCE_H
#define GRAL_TESTS_SUPPORT_REUSE_DISTANCE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gral
{

/** Exact LRU stack-distance analyzer over cache-line addresses. */
class ReuseDistanceAnalyzer
{
  public:
    /** @param line_bytes addresses are truncated to this granularity
     *  (power of two). */
    explicit ReuseDistanceAnalyzer(std::uint32_t line_bytes = 64);

    /** Record one access; updates the distance histogram. */
    void access(std::uint64_t addr);

    /** Number of accesses with no prior access to the line. */
    std::uint64_t coldAccesses() const { return cold_; }

    /** Total accesses observed. */
    std::uint64_t totalAccesses() const { return time_; }

    /**
     * Histogram of finite reuse distances in power-of-two buckets:
     * bucket k counts distances in [2^k, 2^(k+1)), bucket 0 also
     * holds distance 0.
     */
    const std::vector<std::uint64_t> &
    histogram() const
    {
        return histogram_;
    }

    /**
     * Fraction of accesses a fully-associative LRU cache of
     * @p capacity_lines lines would hit (distance < capacity;
     * conservative at bucket granularity: a bucket counts as hit only
     * when it lies entirely below the capacity).
     */
    double hitRateAtCapacity(std::uint64_t capacity_lines) const;

  private:
    void growTo(std::size_t index);
    void bitAdd(std::size_t index, std::int64_t delta);
    std::int64_t bitPrefixSum(std::size_t index) const;

    std::uint32_t lineShift_;
    std::uint64_t time_ = 0;
    std::uint64_t cold_ = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> lastAccess_;
    std::vector<std::int64_t> tree_;  // Fenwick tree, 1-based
    std::vector<std::uint8_t> marks_; // 0/1 per timestamp, 1-based
    std::vector<std::uint64_t> histogram_;
};

} // namespace gral

#endif // GRAL_TESTS_SUPPORT_REUSE_DISTANCE_H
