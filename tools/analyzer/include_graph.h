/**
 * @file
 * Repo-local include graph: extraction, resolution, module mapping,
 * and cycle detection for gral-analyzer.
 *
 * The graph's nodes are repo-relative paths ("src/graph/csr.h"); its
 * edges are `#include "..."` directives whose target resolves to a
 * file inside the analyzed tree (system and third-party includes are
 * ignored). Quoted includes in this repo are written relative to the
 * module root — `"graph/csr.h"` from anywhere — so resolution tries,
 * in order: `src/<inc>`, `<inc>` verbatim, `tools/<inc>`, and finally
 * relative to the including file's directory.
 *
 * On top of the file graph sit the two architectural rules
 * (DESIGN.md "Static analysis layer"):
 *   - layering: each src/ module may only include modules at or below
 *     it in the DAG `common -> graph -> {reorder, cachesim} ->
 *     {metrics, kernels} -> analysis`, with `obs` includable by
 *     everyone and bench/tools/tests never includable from src/;
 *   - include-cycle: the file-level graph must be a DAG.
 */

#ifndef GRAL_ANALYZER_INCLUDE_GRAPH_H
#define GRAL_ANALYZER_INCLUDE_GRAPH_H

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace gral::analyzer
{

/** One `#include "..."` directive found in a file. */
struct IncludeDirective
{
    std::string target; // as written between the quotes
    int line = 1;
};

/** A resolved edge of the include graph. */
struct IncludeEdge
{
    std::string from;
    std::string to; // repo-relative path of the resolved target
    int line = 1;
};

/**
 * Extract quoted include directives. Directive detection and quote
 * positions come from the *stripped* lines (lexer output, so
 * commented-out includes are already gone — the lexer keeps literal
 * delimiters visible); the target bytes between the quotes are read
 * from the matching *original* lines.
 */
std::vector<IncludeDirective>
extractIncludes(const std::vector<std::string> &stripped_lines,
                const std::vector<std::string> &original_lines);

/**
 * Top-level module of a repo-relative path: "src/graph/csr.h" ->
 * "graph", "tools/gral_cli.cc" -> "tools", "bench/common.h" ->
 * "bench". The perf sublayer is its own node:
 * "src/obs/perf/counters.h" -> "obs/perf" (obs core must not depend
 * on the syscall wrapper). Empty when the path has no recognizable
 * module.
 */
std::string moduleOf(std::string_view path);

/** Modules a given src/ module may include (itself always allowed);
 *  empty when @p module is not part of the layering DAG. */
const std::set<std::string> *allowedIncludes(const std::string &module);

/** Include graph over a fixed set of repo files. */
class IncludeGraph
{
  public:
    /**
     * @param files    repo-relative paths of every analyzed file.
     * @param includes for each file (parallel to @p files), its
     *                 extracted include directives.
     */
    IncludeGraph(const std::vector<std::string> &files,
                 const std::vector<std::vector<IncludeDirective>>
                     &includes);

    /** Resolved edges, in input order. */
    const std::vector<IncludeEdge> &edges() const { return edges_; }

    /**
     * Include cycles, one per DFS back edge, each as the path list
     * [a, b, ..., a]. Deterministic: DFS in sorted path order. Empty
     * when the graph is a DAG.
     */
    std::vector<std::vector<std::string>> findCycles() const;

  private:
    std::set<std::string> nodes_;
    std::vector<IncludeEdge> edges_;
    std::map<std::string, std::vector<std::string>> adjacency_;
};

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_INCLUDE_GRAPH_H
