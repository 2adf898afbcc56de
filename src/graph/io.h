/**
 * @file
 * Graph serialization: text edge lists and permutation files. The
 * binary graph format is .gralb (graph/storage/gralb.h).
 *
 * The text format is the de-facto standard of the dataset archives the
 * paper draws from (KONECT / NetworkRepository / LWA): one "src dst"
 * pair per line, '#' or '%' comment lines ignored.
 */

#ifndef GRAL_GRAPH_IO_H
#define GRAL_GRAPH_IO_H

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/view.h"
#include "graph/permutation.h"
#include "graph/types.h"

namespace gral
{

/**
 * Stream a text edge list through @p sink in bounded chunks of at
 * most @p chunk_edges edges. Unlike readEdgeListText this never
 * materializes the whole list: resident state is one block buffer
 * plus one chunk, so a 100M+ edge file parses in O(chunk) memory
 * when the sink consumes incrementally. Lines are parsed with a
 * manual integer scanner (no per-line stream construction), which is
 * what makes the text path usable at the paper's edge scales at all.
 *
 * The chunk span passed to @p sink is only valid during the call.
 *
 * @returns the total number of edges delivered.
 * @throws std::runtime_error on malformed lines or >32-bit IDs.
 */
std::size_t readEdgeListTextChunked(
    std::istream &in, std::size_t chunk_edges,
    const std::function<void(std::span<const Edge>)> &sink);

/** Chunked streaming parse of a file. @throws std::runtime_error. */
std::size_t readEdgeListTextChunkedFile(
    const std::string &path, std::size_t chunk_edges,
    const std::function<void(std::span<const Edge>)> &sink);

/** Parse a text edge list ("src dst" per line) from a stream. */
std::vector<Edge> readEdgeListText(std::istream &in);

/** Parse a text edge list from a file. @throws std::runtime_error. */
std::vector<Edge> readEdgeListTextFile(const std::string &path);

/** Write "src dst" lines for all edges of @p graph. */
void writeEdgeListText(const GraphView &graph, std::ostream &out);

/**
 * Parse a relabeling array from text: one new ID per line, indexed by
 * old ID; '#' or '%' comment lines ignored. The result is NOT checked
 * for bijectivity — callers reading untrusted files must
 * validatePermutation() it (the CLI does).
 */
Permutation readPermutationText(std::istream &in);

/** Parse a relabeling array from a file. @throws std::runtime_error. */
Permutation readPermutationTextFile(const std::string &path);

/** Write one new ID per line, indexed by old ID. */
void writePermutationText(const Permutation &permutation,
                          std::ostream &out);

/** Write a relabeling array to a file. @throws std::runtime_error. */
void writePermutationTextFile(const Permutation &permutation,
                              const std::string &path);

} // namespace gral

#endif // GRAL_GRAPH_IO_H
