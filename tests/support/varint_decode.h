/**
 * @file
 * Test-only decoder for the delta + varint neighbour-list code of
 * graph/storage/varint.h.
 *
 * The library only measures that code's length (compressed
 * bytes/edge); nothing in it stores or reads encoded lists. The
 * decoder stays here as the round-trip proof that the metric measures
 * a lossless code, and it checks its input the way a reader of
 * untrusted bytes would.
 */

#ifndef GRAL_TESTS_SUPPORT_VARINT_DECODE_H
#define GRAL_TESTS_SUPPORT_VARINT_DECODE_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/storage/varint.h"
#include "graph/types.h"

namespace gral
{

/** Maximum encoded size of one 64-bit varint. */
inline constexpr std::size_t kMaxVarintBytes = 10;

/**
 * Decode one LEB128 varint from [@p p, @p end).
 * @return bytes consumed, or 0 when the buffer is truncated or the
 *         encoding exceeds 64 bits (malformed input).
 */
inline std::size_t
decodeVarint(const std::uint8_t *p, const std::uint8_t *end,
             std::uint64_t &value)
{
    std::uint64_t result = 0;
    unsigned shift = 0;
    for (const std::uint8_t *q = p; q != end && shift < 64; ++q) {
        result |= static_cast<std::uint64_t>(*q & 0x7F) << shift;
        if ((*q & 0x80) == 0) {
            value = result;
            return static_cast<std::size_t>(q - p) + 1;
        }
        shift += 7;
    }
    return 0;
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/**
 * Decode exactly @p out.size() vertex IDs from @p bytes into @p out,
 * consuming the whole buffer.
 *
 * @return false on truncated input, varint overflow, leftover bytes,
 *         or a decoded ID outside [0, 2^32-1) — i.e. any buffer that
 *         encodeNeighbourList could not have produced for this count.
 */
inline bool
decodeNeighbourList(std::span<const std::uint8_t> bytes,
                    std::span<VertexId> out)
{
    const std::uint8_t *p = bytes.data();
    const std::uint8_t *end = p + bytes.size();
    std::int64_t previous = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::uint64_t raw = 0;
        std::size_t used = decodeVarint(p, end, raw);
        if (used == 0)
            return false;
        p += used;
        std::int64_t value =
            i == 0 ? static_cast<std::int64_t>(raw)
                   : previous + zigzagDecode(raw);
        if (value < 0 || value >= static_cast<std::int64_t>(
                                      kInvalidVertex))
            return false;
        out[i] = static_cast<VertexId>(value);
        previous = value;
    }
    return p == end;
}

} // namespace gral

#endif // GRAL_TESTS_SUPPORT_VARINT_DECODE_H
