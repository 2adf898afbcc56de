/**
 * @file
 * Rule catalogue and per-file rule engine of gral-analyzer.
 *
 * Rules fall into six families (DESIGN.md "Static analysis layer"):
 *
 *   layering        module-DAG violations (include_graph.h) and
 *   include-cycle   cycles in the repo-local include graph;
 *
 *   raw-assert      the five conventions historically enforced by
 *   vertex-id-type  tools/lint/gral_lint.py, ported onto the real
 *   include-guard   lexer (lexer.h) so raw strings, continuations and
 *   std-endl        block comments cannot desync them;
 *   raw-cerr
 *
 *   hot-path-metrics  MetricsRegistry name lookups, GRAL_SPAN,
 *   hot-path-span     allocation-y constructs (new / make_unique /
 *   hot-path-alloc    make_shared), mutex acquisition, virtual
 *   hot-path-lock     dispatch and perf group .readCounters() in
 *   hot-path-virtual  loop bodies — or in any function transitively
 *   hot-path-perf-read  called from a loop body, including across
 *                     TU boundaries via the program index — in the
 *                     hot modules src/cachesim, src/kernels,
 *                     src/exec and src/graph/storage
 *                     (costmodel.cc, index.cc);
 *
 *   guarded-by        GRAL_GUARDED_BY field accessed outside a scope
 *                     that locks the named mutex (concurrency.cc);
 *   atomic-seq-cst    std::atomic load/store/RMW with a defaulted
 *                     memory_order_seq_cst in the lock-free hot
 *                     modules (src/obs/metrics, src/kernels,
 *                     src/cachesim);
 *
 *   check-side-effect GRAL_CHECK/GRAL_DCHECK conditions containing
 *                     ++/--/assignment (dchecks compile out in
 *                     Release, so side effects change behaviour);
 *   raw-new           raw new/delete expressions in src/ (owning
 *                     containers and smart pointers only);
 *
 *   view-from-temporary           lifetime/escape pack for the
 *   view-outlives-storage         non-owning view types (GraphView,
 *   return-dangling-view          AdjacencyView, std::span,
 *   view-invalidated-by-mutation  std::string_view): binding to
 *                     temporaries, use after the owner's scope,
 *                     dangling returns, and use after container
 *                     mutation; GRAL_LIFETIMEBOUND annotations
 *                     extend the producer set (lifetime.h).
 *
 * Per-file rules run on a LexedFile (plus the token stream and the
 * translation-unit symbol view for the concurrency and cost-model
 * packs); graph rules run once over the whole tree in analyzer.cc.
 * Findings carry 1-based line/column, and mechanical rules attach
 * FixIts — byte-offset replacements applied by `--fix` (fixit.h).
 */

#ifndef GRAL_ANALYZER_RULES_H
#define GRAL_ANALYZER_RULES_H

#include <string>
#include <string_view>
#include <vector>

#include "analyzer/lexer.h"
#include "analyzer/parse.h"
#include "analyzer/symbols.h"

namespace gral::analyzer
{

/** One mechanical edit: replace @p length bytes at @p offset. */
struct FixIt
{
    std::size_t offset = 0;
    std::size_t length = 0;
    std::string replacement;
};

/** One diagnostic. */
struct Finding
{
    std::string path; // repo-relative
    int line = 1;
    int column = 1;
    std::string rule;
    std::string message;
    /** Mechanical fixes, applied by `--fix` (empty = not fixable). */
    std::vector<FixIt> fixits;
};

/** Static metadata of one rule (drives --list-rules and SARIF). */
struct RuleInfo
{
    std::string_view id;
    std::string_view description;
};

/** Every rule the analyzer knows, sorted by id. */
const std::vector<RuleInfo> &ruleCatalogue();

/**
 * Run every per-file rule applicable to @p path over @p lexed and
 * append findings. Scoping mirrors the module layout:
 *   - src/ subtree: all convention + API-misuse rules, plus the
 *     concurrency pack (guarded-by everywhere in src/,
 *     atomic-seq-cst in src/obs/metrics, src/kernels, src/cachesim)
 *   - the hot modules (src/cachesim, src/kernels, src/exec,
 *     src/graph/storage): additionally the hot-path
 *     (cost-model) rules
 *   - tools/, bench/, examples/: std-endl only
 * Suppressions (`// gral-analyzer: off(rule)`) are applied here.
 *
 * @p ts must be tokenize(lexed); @p tu is the translation-unit
 * symbol view whose local file is @p lexed (symbols.h). The packs
 * resolve annotations, atomic fields and virtual methods against it,
 * so headers merged into the view make cross-file contracts visible.
 */
void runFileRules(const std::string &path, const LexedFile &lexed,
                  const TokenStream &ts, const TuView &tu,
                  std::vector<Finding> &findings);

/** Single-file convenience overload: tokenizes @p lexed and builds a
 *  TU view from the file alone (no cross-file symbols). */
void runFileRules(const std::string &path, const LexedFile &lexed,
                  std::vector<Finding> &findings);

/** Lines (1-based, parallel to @p lines starting at index 0) that are
 *  lexically inside a for/while/do loop body. Exposed for tests. */
std::vector<bool>
loopBodyLines(const std::vector<std::string> &lines);

/** Path-derived include guard name (src/graph/csr.h ->
 *  GRAL_GRAPH_CSR_H), identical to gral_lint.py's expected_guard. */
std::string expectedGuard(std::string_view path);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_RULES_H
