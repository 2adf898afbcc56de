#include "analyzer/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "analyzer/fixit.h"
#include "analyzer/include_graph.h"
#include "exec/thread_pool.h"

namespace gral::analyzer
{

namespace
{

namespace fs = std::filesystem;

bool
analyzableSuffix(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp";
}

/** Original text split into lines (for include extraction). */
std::vector<std::string>
splitLines(std::string_view text)
{
    std::vector<std::string> lines(1);
    for (char c : text) {
        if (c == '\n')
            lines.emplace_back();
        else
            lines.back() += c;
    }
    return lines;
}

/** Line of the nth (1-based) stripped line, "" when out of range. */
std::string_view
strippedLine(const LexedFile &lexed, int line)
{
    if (line < 1 ||
        static_cast<std::size_t>(line) > lexed.lines.size())
        return {};
    return lexed.lines[static_cast<std::size_t>(line) - 1];
}

/** Per-file working state of one run. */
struct FileState
{
    LexedFile lex;
    TokenStream ts;
    FileSymbols sym;
};

/** Run @p fn over [0, @p n), parallel when worthwhile. */
void
runParallel(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min<unsigned>(
        jobs, static_cast<unsigned>(std::max<std::size_t>(n, 1)));
    if (jobs > 1 && n > 1) {
        WorkStealingPool pool(jobs);
        pool.run(n, fn);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
    }
}

/** A finding plus the stripped source line its baseline key uses. */
struct Item
{
    Finding finding;
    std::string line;
};

} // namespace

std::vector<const Finding *>
AnalysisResult::newFindings() const
{
    std::vector<const Finding *> fresh;
    for (const SarifResult &result : results)
        if (!result.baselined)
            fresh.push_back(&result.finding);
    return fresh;
}

SourceTree
loadTree(const std::string &root)
{
    SourceTree tree;
    for (const char *top : {"src", "tools", "bench", "examples"}) {
        fs::path base = fs::path(root) / top;
        if (!fs::is_directory(base))
            continue;
        for (const fs::directory_entry &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file() ||
                !analyzableSuffix(entry.path()))
                continue;
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream content;
            content << in.rdbuf();
            tree.push_back(
                {fs::relative(entry.path(), root).generic_string(),
                 content.str()});
        }
    }
    std::sort(tree.begin(), tree.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    return tree;
}

AnalysisResult
analyzeTree(const SourceTree &tree, Baseline baseline, unsigned jobs)
{
    AnalysisResult analysis;
    const std::size_t n = tree.size();
    analysis.filesScanned = n;

    std::vector<std::string> paths;
    paths.reserve(n);
    std::map<std::string, std::size_t> pathIndex;
    for (const SourceFile &file : tree) {
        pathIndex[file.path] = paths.size();
        paths.push_back(file.path);
    }
    auto indexOf = [&](const std::string &path) -> std::size_t {
        auto it = pathIndex.find(path);
        return it != pathIndex.end() ? it->second : n;
    };

    // ------------------------- lex, includes, tokens and symbols
    std::vector<FileState> state(n);
    std::vector<std::vector<IncludeDirective>> includes(n);
    runParallel(n, jobs, [&](std::size_t i) {
        state[i].lex = lexCpp(tree[i].content);
        includes[i] = extractIncludes(state[i].lex.lines,
                                      splitLines(tree[i].content));
        state[i].ts = tokenize(state[i].lex);
        state[i].sym = buildSymbols(state[i].ts);
    });

    IncludeGraph graph(paths, includes);

    // Forward adjacency over resolved edges.
    std::vector<std::vector<std::size_t>> fwd(n);
    for (const IncludeEdge &edge : graph.edges()) {
        std::size_t from = indexOf(edge.from);
        std::size_t to = indexOf(edge.to);
        if (from < n && to < n)
            fwd[from].push_back(to);
    }

    // TU view of file i: symbols of every transitive include.
    auto makeTuView = [&](std::size_t i) {
        std::vector<const FileSymbols *> deps;
        std::vector<char> seen(n, 0);
        seen[i] = 1;
        std::vector<std::size_t> queue = {i};
        while (!queue.empty()) {
            std::size_t from = queue.back();
            queue.pop_back();
            for (std::size_t to : fwd[from])
                if (!seen[to]) {
                    seen[to] = 1;
                    queue.push_back(to);
                    deps.push_back(&state[to].sym);
                }
        }
        return buildTuView(state[i].sym, deps);
    };

    // -------------------- per-file rules and cross-TU index entries
    std::vector<std::vector<Finding>> perFile(n);
    std::vector<TuIndex> entries(n);
    runParallel(n, jobs, [&](std::size_t i) {
        TuView tu = makeTuView(i);
        runFileRules(paths[i], state[i].lex, state[i].ts, tu,
                     perFile[i]);
        entries[i] =
            buildTuIndex(paths[i], state[i].lex, state[i].ts, tu);
    });
    ProgramIndex index;
    for (std::size_t i = 0; i < n; ++i)
        index.entries[paths[i]] = std::move(entries[i]);

    // -------------------------------------------- assemble findings
    auto lineAt = [&](std::size_t i, int line) {
        return std::string(strippedLine(state[i].lex, line));
    };
    std::vector<Item> items;
    for (std::size_t i = 0; i < n; ++i)
        for (Finding &finding : perFile[i])
            items.push_back({finding, lineAt(i, finding.line)});

    for (const IncludeEdge &edge : graph.edges()) {
        const std::string fromModule = moduleOf(edge.from);
        const std::string toModule = moduleOf(edge.to);
        if (!edge.from.starts_with("src/"))
            continue; // layering restricts src/ only
        std::size_t fromIndex = indexOf(edge.from);
        auto flag = [&](const std::string &message) {
            if (fromIndex < n &&
                state[fromIndex].lex.isSuppressed(edge.line,
                                                  "layering"))
                return;
            items.push_back(
                {{edge.from, edge.line, 1, "layering", message},
                 fromIndex < n ? lineAt(fromIndex, edge.line)
                               : std::string()});
        };
        if (toModule == "bench" || toModule == "tools" ||
            toModule == "tests") {
            flag("src/ must not include " + toModule + "/ (" +
                 edge.to + ")");
            continue;
        }
        const std::set<std::string> *allowed =
            allowedIncludes(fromModule);
        if (allowed == nullptr) {
            flag("module '" + fromModule +
                 "' is not in the layering DAG; add it to "
                 "tools/analyzer/include_graph.cc and DESIGN.md");
            continue;
        }
        if (allowed->count(toModule) == 0)
            flag("module '" + fromModule + "' may not include '" +
                 toModule + "' (" + edge.to +
                 "); allowed layers are listed in DESIGN.md "
                 "\"Static analysis layer\"");
    }

    for (const std::vector<std::string> &cycle : graph.findCycles()) {
        // Anchor the finding at the edge that closes the cycle.
        const std::string &from = cycle[cycle.size() - 2];
        const std::string &to = cycle.back();
        int line = 1;
        for (const IncludeEdge &edge : graph.edges())
            if (edge.from == from && edge.to == to) {
                line = edge.line;
                break;
            }
        std::size_t fromIndex = indexOf(from);
        if (fromIndex < n &&
            state[fromIndex].lex.isSuppressed(line, "include-cycle"))
            continue;
        std::string chain;
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            if (i != 0)
                chain += " -> ";
            chain += cycle[i];
        }
        items.push_back({{from, line, 1, "include-cycle",
                          "include cycle: " + chain},
                         fromIndex < n ? lineAt(fromIndex, line)
                                       : std::string()});
    }

    // Whole-program hot-path pass over the merged index.
    // Suppressions are checked at the call site; baseline keys use
    // the stripped line carried in the index.
    for (CrossTuFinding &cross : runCrossTuRules(index)) {
        std::size_t i = indexOf(cross.finding.path);
        if (i < n && state[i].lex.isSuppressed(cross.finding.line,
                                               cross.finding.rule))
            continue;
        items.push_back(
            {std::move(cross.finding), cross.strippedLine});
    }

    std::sort(items.begin(), items.end(),
              [](const Item &a, const Item &b) {
                  return std::tie(a.finding.path, a.finding.line,
                                  a.finding.rule,
                                  a.finding.column) <
                         std::tie(b.finding.path, b.finding.line,
                                  b.finding.rule, b.finding.column);
              });

    // ------------------------------------- baseline disposition
    for (Item &item : items) {
        std::string key = Baseline::key(item.finding, item.line);
        bool known = baseline.match(key);
        analysis.results.push_back(
            {std::move(item.finding), known, std::move(key)});
    }
    return analysis;
}

std::vector<std::string>
applyFixes(SourceTree &tree, const AnalysisResult &analysis)
{
    std::map<std::string, std::vector<FixIt>> edits;
    for (const SarifResult &result : analysis.results) {
        if (result.baselined || result.finding.fixits.empty())
            continue;
        std::vector<FixIt> &slot = edits[result.finding.path];
        slot.insert(slot.end(), result.finding.fixits.begin(),
                    result.finding.fixits.end());
    }
    std::vector<std::string> changed;
    for (SourceFile &file : tree) {
        auto it = edits.find(file.path);
        if (it == edits.end())
            continue;
        std::string edited = applyFixIts(file.content, it->second);
        if (edited != file.content) {
            file.content = std::move(edited);
            changed.push_back(file.path);
        }
    }
    std::sort(changed.begin(), changed.end());
    return changed;
}

} // namespace gral::analyzer
