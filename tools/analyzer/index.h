/**
 * @file
 * Cross-TU program index for gral-analyzer.
 *
 * The per-file rule packs see one translation unit at a time: the
 * file's own tokens plus the symbols of its transitive includes. That
 * leaves a structural hole in the hot-path (cost-model) rules — a
 * loop in src/cachesim calling `fillBuffer()` looks harmless when
 * `fillBuffer` is *defined* in src/graph/somewhere.cc and allocates
 * there, because the same-TU reachability fixpoint (costmodel.h)
 * never sees that body.
 *
 * The program index closes it. For every analyzed file it records a
 * TuIndex — each defined function with the expensive constructs
 * (detectHotOps) directly in its body and the calls it makes — plus,
 * for files in the hot-path scope, every call site inside a hot
 * range. Merging all TuIndex entries gives a whole-program call
 * graph; a fixpoint propagates expensive-op summaries up the graph;
 * and runCrossTuRules() then flags hot call sites whose callee is
 * defined in *another* file and transitively reaches an expensive
 * op. Findings land at the call site in the hot file, with the
 * witness op's location in the message.
 *
 * The index lives only for one run: analyzeTree() builds every
 * file's entry beside its per-file rules, merges them, and runs the
 * whole-program pass once, like the layering/include-cycle rules,
 * because an edit in any file can change findings in an untouched
 * hot file.
 */

#ifndef GRAL_ANALYZER_INDEX_H
#define GRAL_ANALYZER_INDEX_H

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer/costmodel.h"
#include "analyzer/rules.h"
#include "analyzer/symbols.h"

namespace gral::analyzer
{

/** One expensive construct directly inside a function body. */
struct IndexedOp
{
    std::string rule; // hot-path-*
    int line = 1;
    int column = 1;
    std::string what;
    std::string advice;
};

/** One call made from a function body (deduplicated by callee). */
struct IndexedCall
{
    std::string callee;
    bool memberCall = false;
};

/** One function *definition* in a file. */
struct IndexedFunction
{
    std::string name;
    std::string className; // "" for free functions
    int line = 1;
    std::vector<IndexedOp> ops;
    std::vector<IndexedCall> calls;
};

/** One call site inside a hot range of a hot-scope file. */
struct HotCallSite
{
    std::string callee;
    int line = 1;
    int column = 1;
    bool memberCall = false;
    /** Enclosing reachable function ("" = directly in a loop
     *  body). */
    std::string via;
    /** Stripped source line at the call, for baseline keys. */
    std::string strippedLine;
};

/** Index entry of one file. */
struct TuIndex
{
    std::vector<IndexedFunction> functions;
    std::vector<HotCallSite> hotCalls;

    /** True when this file defines a function named @p name. */
    bool defines(std::string_view name) const;
};

/** A cross-TU finding plus its baseline-key source line. */
struct CrossTuFinding
{
    Finding finding;
    std::string strippedLine;
};

/** The whole-program index: path -> per-file entry. */
struct ProgramIndex
{
    std::map<std::string, TuIndex> entries;
};

/**
 * Build one file's index entry from its analyzed state. Functions
 * come from @p tu's local symbols; hot call sites are only collected
 * when @p path is in the hot-path scope.
 */
TuIndex buildTuIndex(const std::string &path, const LexedFile &lexed,
                     const TokenStream &ts, const TuView &tu);

/**
 * The whole-program pass: merge every entry's call graph, propagate
 * expensive-op summaries to a fixpoint, and flag hot call sites
 * whose callee is defined in a different file and reaches an
 * expensive op. Deterministic: entries in path order, findings
 * sorted by (path, line, rule, column). Suppressions are NOT applied
 * here — the caller checks them against the lexed file (the index
 * does not carry suppression maps).
 */
std::vector<CrossTuFinding> runCrossTuRules(const ProgramIndex &index);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_INDEX_H
