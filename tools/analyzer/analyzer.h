/**
 * @file
 * gral-analyzer driver: scans a source tree, runs every rule, and
 * applies suppressions + the baseline.
 *
 * The driver is tree-agnostic so tests can analyze in-memory file
 * sets: loadTree() materializes the on-disk repo (src/, tools/,
 * bench/, examples/ — the same scope as the historical Python lint),
 * analyzeTree() does the work.
 *
 * Every run is cold and analyzes every file, in one pipeline:
 *   1. per file, in parallel: lex, extract includes, tokenize and
 *      build symbols;
 *   2. build the include graph from every file's include list;
 *   3. per file, in parallel: merge the TU view (the file's symbols
 *      plus those of its transitive includes), run the per-file
 *      rules, and build the file's cross-TU index entry (index.h);
 *   4. over the whole tree: the layering and include-cycle rules and
 *      the whole-program hot-path fixpoint over the merged index;
 *   5. sort the findings and apply the baseline.
 *
 * Both parallel steps run on the repo's own work-stealing pool
 * (src/exec/thread_pool.h).
 */

#ifndef GRAL_ANALYZER_ANALYZER_H
#define GRAL_ANALYZER_ANALYZER_H

#include <string>
#include <vector>

#include "analyzer/baseline.h"
#include "analyzer/index.h"
#include "analyzer/rules.h"
#include "analyzer/sarif.h"

namespace gral::analyzer
{

/** One file of the analyzed tree. */
struct SourceFile
{
    std::string path; // repo-relative, '/'-separated
    std::string content;
};

using SourceTree = std::vector<SourceFile>;

/** Outcome of one analysis run. */
struct AnalysisResult
{
    /** Every finding after suppression, sorted by (path, line,
     *  rule); `baselined` marks the acknowledged ones. */
    std::vector<SarifResult> results;
    std::size_t filesScanned = 0;

    /** Findings not covered by the baseline. */
    std::vector<const Finding *> newFindings() const;
};

/**
 * Load the analyzable files (.h/.hpp/.cc/.cpp under src, tools,
 * bench, examples) beneath @p root, sorted by path.
 */
SourceTree loadTree(const std::string &root);

/** Analyze every file of @p tree on @p jobs worker threads (0 =
 *  hardware concurrency). @p baseline is consumed (entries matched
 *  at most once each). */
AnalysisResult analyzeTree(const SourceTree &tree, Baseline baseline,
                           unsigned jobs = 0);

/**
 * Apply the fixits of every fresh (non-baselined) finding to @p tree
 * in place; returns the paths of changed files (sorted, unique).
 * Callers persist the new contents (main.cc writes them to disk; the
 * fixit round-trip test re-analyzes the edited tree in memory).
 */
std::vector<std::string> applyFixes(SourceTree &tree,
                                    const AnalysisResult &analysis);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_ANALYZER_H
