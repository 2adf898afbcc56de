#include "analyzer/rules.h"

#include <cctype>
#include <regex>

#include "analyzer/concurrency.h"
#include "analyzer/costmodel.h"
#include "analyzer/include_graph.h"
#include "analyzer/lifetime.h"

namespace gral::analyzer
{

namespace
{

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void
emit(std::vector<Finding> &findings, const LexedFile &lexed,
     const std::string &path, int line, int column,
     std::string_view rule, std::string_view message,
     std::vector<FixIt> fixits = {})
{
    if (lexed.isSuppressed(line, rule))
        return;
    findings.push_back({path, line, column, std::string(rule),
                        std::string(message), std::move(fixits)});
}

/** Byte offset of the start of 1-based line N in the stripped text
 *  (lines are '\n'-joined, byte-identical to the original shape). */
std::size_t
lineStartOffset(const LexedFile &lexed, std::size_t line)
{
    std::size_t offset = 0;
    for (std::size_t i = 0; i + 1 < line && i < lexed.lines.size();
         ++i)
        offset += lexed.lines[i].size() + 1;
    return offset;
}

// ---------------------------------------------------------------
// Convention rules (ported from tools/lint/gral_lint.py)
// ---------------------------------------------------------------

const std::regex &
rawAssertRe()
{
    static const std::regex re(R"((^|[^\w])assert\s*\()");
    return re;
}

const std::regex &
staticAssertRe()
{
    static const std::regex re(R"(static_assert\s*\()");
    return re;
}

const std::regex &
cassertRe()
{
    static const std::regex re(R"(#\s*include\s*<cassert>)");
    return re;
}

const std::regex &
vertexLoopRe()
{
    static const std::regex re(
        R"(for\s*\(\s*(?:std::)?(?:uint(?:32|64)_t|unsigned(?:\s+int)?|int|size_t|std::size_t)\s+(\w+)[^;]*;\s*\1\s*<\s*[\w.\->]*numVertices\(\))");
    return re;
}

const std::regex &
endlRe()
{
    static const std::regex re(R"(std\s*::\s*endl)");
    return re;
}

const std::regex &
cerrRe()
{
    static const std::regex re(R"(std\s*::\s*cerr)");
    return re;
}

int
matchColumn(const std::smatch &match, int group = 0)
{
    return static_cast<int>(match.position(group)) + 1;
}

void
checkRawAssert(const std::string &path, const LexedFile &lexed,
               std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < lexed.lines.size(); ++i) {
        const int line = static_cast<int>(i) + 1;
        std::string scrubbed =
            std::regex_replace(lexed.lines[i], staticAssertRe(), "");
        std::smatch match;
        if (std::regex_search(scrubbed, match, rawAssertRe()))
            emit(findings, lexed, path, line, matchColumn(match),
                 "raw-assert",
                 "use GRAL_CHECK/GRAL_DCHECK (common/check.h) instead "
                 "of raw assert()");
        if (std::regex_search(lexed.lines[i], match, cassertRe()))
            emit(findings, lexed, path, line, matchColumn(match),
                 "raw-assert",
                 "<cassert> is banned in src/; include common/check.h");
    }
}

void
checkVertexIdType(const std::string &path, const LexedFile &lexed,
                  std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < lexed.lines.size(); ++i) {
        std::smatch match;
        if (std::regex_search(lexed.lines[i], match, vertexLoopRe()))
            emit(findings, lexed, path, static_cast<int>(i) + 1,
                 matchColumn(match), "vertex-id-type",
                 "loop over numVertices() must use VertexId "
                 "(graph/types.h), not a raw integer type");
    }
}

void
checkStdEndl(const std::string &path, const LexedFile &lexed,
             std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < lexed.lines.size(); ++i) {
        std::smatch match;
        if (std::regex_search(lexed.lines[i], match, endlRe())) {
            FixIt fix;
            fix.offset =
                lineStartOffset(lexed, i + 1) +
                static_cast<std::size_t>(match.position(0));
            fix.length = static_cast<std::size_t>(match.length(0));
            fix.replacement = "'\\n'";
            emit(findings, lexed, path, static_cast<int>(i) + 1,
                 matchColumn(match), "std-endl",
                 "std::endl flushes the stream; use '\\n'",
                 {std::move(fix)});
        }
    }
}

void
checkRawCerr(const std::string &path, const LexedFile &lexed,
             std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < lexed.lines.size(); ++i) {
        std::smatch match;
        if (std::regex_search(lexed.lines[i], match, cerrRe()))
            emit(findings, lexed, path, static_cast<int>(i) + 1,
                 matchColumn(match), "raw-cerr",
                 "library code logs via GRAL_LOG (obs/log.h), not raw "
                 "std::cerr");
    }
}

void
checkIncludeGuard(const std::string &path, const LexedFile &lexed,
                  std::vector<Finding> &findings)
{
    static const std::regex pragmaOnce(R"(#\s*pragma\s+once)");
    static const std::regex ifndef(R"(#\s*ifndef\s+(\w+))");
    const std::string &code = lexed.stripped;
    if (std::regex_search(code, pragmaOnce))
        return;
    const std::string want = expectedGuard(path);
    std::smatch match;
    if (!std::regex_search(code, match, ifndef)) {
        emit(findings, lexed, path, 1, 1, "include-guard",
             "header has neither #pragma once nor an include guard "
             "(expected " +
                 want + ")");
        return;
    }
    const std::string got = match[1].str();
    const int line =
        static_cast<int>(
            std::count(code.begin(),
                       code.begin() + match.position(0), '\n')) +
        1;
    if (got != want) {
        // Mechanical fix: rewrite the guard name everywhere it is
        // used as one (#ifndef / #define / #endif comment is left
        // alone — it's inside a comment, invisible here).
        std::vector<FixIt> fixits;
        fixits.push_back(
            {static_cast<std::size_t>(match.position(1)),
             got.size(), want});
        const std::regex defineGot("#\\s*define\\s+(" + got +
                                   ")\\b");
        std::smatch defineMatch;
        if (std::regex_search(code, defineMatch, defineGot))
            fixits.push_back(
                {static_cast<std::size_t>(defineMatch.position(1)),
                 got.size(), want});
        emit(findings, lexed, path, line, 1, "include-guard",
             "guard " + got + " does not match path-derived name " +
                 want,
             std::move(fixits));
        return;
    }
    const std::regex define("#\\s*define\\s+" + want + "\\b");
    if (!std::regex_search(code, define))
        emit(findings, lexed, path, line, 1, "include-guard",
             "#ifndef " + want + " is not followed by #define " +
                 want);
}

// ---------------------------------------------------------------
// API-misuse rules
// ---------------------------------------------------------------

void
checkRawNewDelete(const std::string &path, const LexedFile &lexed,
                  std::vector<Finding> &findings)
{
    static const std::regex newRe(R"(\bnew\b)");
    static const std::regex deleteRe(R"(\bdelete\b)");
    for (std::size_t i = 0; i < lexed.lines.size(); ++i) {
        const std::string &text = lexed.lines[i];
        const int line = static_cast<int>(i) + 1;
        std::smatch match;
        if (std::regex_search(text, match, newRe))
            emit(findings, lexed, path, line, matchColumn(match),
                 "raw-new",
                 "raw new in src/; use std::make_unique / containers");
        if (std::regex_search(text, match, deleteRe)) {
            // `= delete;` declarations are not deallocations.
            std::size_t pos =
                static_cast<std::size_t>(match.position(0));
            std::size_t back = text.find_last_not_of(" \t", pos - 1);
            bool deleted_fn = pos > 0 &&
                              back != std::string::npos &&
                              text[back] == '=';
            if (!deleted_fn)
                emit(findings, lexed, path, line, matchColumn(match),
                     "raw-new",
                     "raw delete in src/; owning types manage their "
                     "own storage");
        }
    }
}

void
checkSideEffectingChecks(const std::string &path,
                         const LexedFile &lexed,
                         std::vector<Finding> &findings)
{
    const std::string &code = lexed.stripped;
    for (std::string_view macro :
         {std::string_view("GRAL_CHECK"),
          std::string_view("GRAL_DCHECK")}) {
        std::size_t pos = code.find(macro);
        while (pos != std::string::npos) {
            std::size_t after = pos + macro.size();
            bool boundedLeft = pos == 0 || !isIdentChar(code[pos - 1]);
            bool boundedRight =
                after >= code.size() || !isIdentChar(code[after]);
            if (!boundedLeft || !boundedRight) {
                pos = code.find(macro, pos + 1);
                continue;
            }
            std::size_t open = code.find_first_not_of(" \t", after);
            if (open == std::string::npos || code[open] != '(') {
                pos = code.find(macro, pos + 1);
                continue;
            }
            // Balanced-paren condition, possibly spanning lines.
            int depth = 0;
            std::size_t end = open;
            for (; end < code.size(); ++end) {
                if (code[end] == '(')
                    ++depth;
                else if (code[end] == ')' && --depth == 0)
                    break;
            }
            std::string_view cond(code.data() + open + 1,
                                  end > open ? end - open - 1 : 0);
            bool sideEffect =
                cond.find("++") != std::string_view::npos ||
                cond.find("--") != std::string_view::npos;
            for (std::size_t k = 0;
                 !sideEffect && k < cond.size(); ++k) {
                if (cond[k] != '=')
                    continue;
                char prev = k > 0 ? cond[k - 1] : '\0';
                char next = k + 1 < cond.size() ? cond[k + 1] : '\0';
                if (next == '=') { // ==; skip both
                    ++k;
                    continue;
                }
                if (prev == '=' || prev == '!' || prev == '<' ||
                    prev == '>' || prev == '[')
                    continue; // comparison or lambda capture [=]
                sideEffect = true;
            }
            if (sideEffect) {
                int line = static_cast<int>(std::count(
                               code.begin(), code.begin() + pos,
                               '\n')) +
                           1;
                std::size_t lineStart =
                    code.rfind('\n', pos == 0 ? 0 : pos - 1);
                int column = static_cast<int>(
                    pos - (lineStart == std::string::npos
                               ? 0
                               : lineStart + 1) +
                    1);
                emit(findings, lexed, path, line, column,
                     "check-side-effect",
                     std::string(macro) +
                         " condition has a side effect (++/--/"
                         "assignment); GRAL_DCHECK compiles out in "
                         "Release, so evaluate it outside the check");
            }
            pos = code.find(macro, end == open ? pos + 1 : end);
        }
    }
}

} // namespace

std::string
expectedGuard(std::string_view path)
{
    std::string_view rest = path;
    if (startsWith(rest, "src/"))
        rest.remove_prefix(4);
    std::string stem;
    for (char c : rest)
        stem += c == '/' ? '_' : c;
    // Drop the .h / .hpp extension.
    std::size_t dot = stem.rfind('.');
    if (dot != std::string::npos &&
        (stem.substr(dot) == ".h" || stem.substr(dot) == ".hpp"))
        stem.erase(dot);
    std::string guard = "GRAL_";
    for (char c : stem)
        guard += std::isalnum(static_cast<unsigned char>(c))
                     ? static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)))
                     : '_';
    return guard + "_H";
}

std::vector<bool>
loopBodyLines(const std::vector<std::string> &lines)
{
    std::vector<bool> result(lines.size(), false);

    struct Brace
    {
        bool loop;
    };
    std::vector<Brace> braces;
    int parenDepth = 0;
    bool awaitingParen = false; // saw for/while, header '(' next
    int headerBase = -1;        // parenDepth when the header opened
    bool awaitingBody = false;  // header done, body next
    bool singleStmt = false;    // brace-less loop body
    int singleStmtParenBase = 0;
    int singleStmtBraces = 0;

    auto inLoop = [&] {
        if (singleStmt)
            return true;
        for (const Brace &b : braces)
            if (b.loop)
                return true;
        return false;
    };

    std::string ident;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        for (char c : lines[li]) {
            if (isIdentChar(c)) {
                ident += c;
                if (inLoop())
                    result[li] = true;
                continue;
            }
            if (!ident.empty()) {
                if (ident == "for" || ident == "while")
                    awaitingParen = true;
                else if (ident == "do")
                    awaitingBody = true;
                ident.clear();
            }
            if (std::isspace(static_cast<unsigned char>(c)))
                continue;
            if (inLoop())
                result[li] = true;
            switch (c) {
            case '(':
                if (awaitingParen && headerBase < 0)
                    headerBase = parenDepth;
                ++parenDepth;
                break;
            case ')':
                if (parenDepth > 0)
                    --parenDepth;
                if (headerBase >= 0 && parenDepth == headerBase) {
                    headerBase = -1;
                    awaitingParen = false;
                    awaitingBody = true;
                }
                break;
            case '{':
                if (awaitingBody) {
                    braces.push_back({true});
                    awaitingBody = false;
                } else {
                    braces.push_back({false});
                    if (singleStmt)
                        ++singleStmtBraces;
                }
                break;
            case '}':
                if (!braces.empty())
                    braces.pop_back();
                if (singleStmt && singleStmtBraces > 0)
                    --singleStmtBraces;
                break;
            case ';':
                if (awaitingBody) {
                    awaitingBody = false; // `while (x);` / do-while
                } else if (singleStmt && singleStmtBraces == 0 &&
                           parenDepth == singleStmtParenBase) {
                    singleStmt = false;
                }
                break;
            default:
                if (awaitingBody && !awaitingParen) {
                    awaitingBody = false;
                    singleStmt = true;
                    singleStmtParenBase = parenDepth;
                    result[li] = true;
                }
                break;
            }
        }
        // Identifier split across lines is impossible; close it out.
        if (!ident.empty()) {
            if (ident == "for" || ident == "while")
                awaitingParen = true;
            else if (ident == "do")
                awaitingBody = true;
            ident.clear();
        }
    }
    return result;
}

const std::vector<RuleInfo> &
ruleCatalogue()
{
    static const std::vector<RuleInfo> kRules = {
        {"atomic-seq-cst",
         "std::atomic load/store/RMW in the lock-free hot modules "
         "(src/obs/metrics, src/kernels, src/cachesim) must state its "
         "memory_order explicitly; the default is seq_cst"},
        {"check-side-effect",
         "GRAL_CHECK/GRAL_DCHECK condition must not contain ++/--/"
         "assignment: dchecks compile out in Release builds"},
        {"guarded-by",
         "a field annotated GRAL_GUARDED_BY(mutex) may only be "
         "accessed while the named mutex is held (lock scope or "
         "GRAL_REQUIRES contract; common/annotations.h)"},
        {"hot-path-alloc",
         "no allocation (new/make_unique/make_shared) in loop bodies "
         "or functions reachable from them — across TU boundaries — "
         "in the hot modules (src/cachesim, src/kernels, src/exec, "
         "src/graph/storage)"},
        {"hot-path-lock",
         "no mutex acquisition (lock_guard/scoped_lock/unique_lock/"
         "shared_lock/.lock()) in loop bodies or functions reachable "
         "from them in the hot modules (src/cachesim, src/kernels, "
         "src/exec, src/graph/storage)"},
        {"hot-path-metrics",
         "no MetricsRegistry name lookup in loop bodies or functions "
         "reachable from them in the hot modules (src/cachesim, "
         "src/kernels, src/exec, src/graph/storage); hoist the "
         "handle"},
        {"hot-path-perf-read",
         "no perf counter group .readCounters() in loop bodies or "
         "functions reachable from them in the hot modules "
         "(src/cachesim, src/kernels, src/exec, src/graph/storage); "
         "each read is a syscall — count the "
         "whole region and read once at its end (obs/perf/scope.h)"},
        {"hot-path-span",
         "no GRAL_SPAN in loop bodies or functions reachable from "
         "them in the hot modules (src/cachesim, src/kernels, "
         "src/exec, src/graph/storage)"},
        {"hot-path-virtual",
         "no virtual dispatch in loop bodies or functions reachable "
         "from them in the hot modules (src/cachesim, src/kernels, "
         "src/exec, src/graph/storage); devirtualize the "
         "per-element path"},
        {"include-cycle",
         "the repo-local include graph must be a DAG"},
        {"include-guard",
         "headers under src/ use #pragma once or a path-derived "
         "GRAL_<PATH>_H guard"},
        {"layering",
         "src/ modules may only include modules at or below them in "
         "the DAG common -> graph -> {reorder, cachesim} -> "
         "{metrics, kernels} -> analysis (obs usable by all; "
         "obs/perf above obs, granted to exec, kernels and analysis "
         "only; "
         "bench/tools/tests never from src/)"},
        {"raw-assert",
         "no raw assert()/<cassert> in src/; use GRAL_CHECK/"
         "GRAL_DCHECK (common/check.h)"},
        {"raw-cerr",
         "no raw std::cerr in src/; log via GRAL_LOG (obs/log.h)"},
        {"raw-new",
         "no raw new/delete expressions in src/; use containers and "
         "smart pointers"},
        {"return-dangling-view",
         "a function returning a view (GraphView/AdjacencyView/"
         "std::span/std::string_view) must not return a view into a "
         "local or a by-value parameter; return an owning object or "
         "borrow caller storage (GRAL_LIFETIMEBOUND)"},
        {"std-endl",
         "no std::endl in src/, tools/, bench/, examples/; it "
         "flushes — use '\\n'"},
        {"vertex-id-type",
         "loops bounded by numVertices() use VertexId, not raw "
         "integer types"},
        {"view-from-temporary",
         "a view must not be bound to an owning temporary (e.g. "
         "`GraphView v = Graph(e).view()`): the owner dies at the "
         "end of the statement; --fix materializes the owner"},
        {"view-invalidated-by-mutation",
         "a view/span must not be used after its backing container "
         "was mutated (push_back/resize/clear/reassignment); "
         "reallocation invalidates outstanding views"},
        {"view-outlives-storage",
         "a view must not be used after the owning object it was "
         "created from went out of scope"},
    };
    return kRules;
}

void
runFileRules(const std::string &path, const LexedFile &lexed,
             const TokenStream &ts, const TuView &tu,
             std::vector<Finding> &findings)
{
    const bool inSrc = startsWith(path, "src/");
    const bool endlScope =
        inSrc || startsWith(path, "tools/") ||
        startsWith(path, "bench/") || startsWith(path, "examples/");
    const bool isHeader =
        path.size() > 2 &&
        (path.substr(path.size() - 2) == ".h" ||
         (path.size() > 4 && path.substr(path.size() - 4) == ".hpp"));

    if (endlScope)
        checkStdEndl(path, lexed, findings);
    if (!inSrc)
        return;
    checkRawAssert(path, lexed, findings);
    checkVertexIdType(path, lexed, findings);
    checkRawCerr(path, lexed, findings);
    if (isHeader)
        checkIncludeGuard(path, lexed, findings);
    checkRawNewDelete(path, lexed, findings);
    checkSideEffectingChecks(path, lexed, findings);
    // Token-tree packs gate on path internally (concurrency: src/
    // for guarded-by, the lock-free hot modules for atomic-seq-cst;
    // cost model: the hot modules listed by inHotPathScope()).
    runConcurrencyRules(path, lexed, ts, tu, findings);
    runCostModelRules(path, lexed, ts, tu, findings);
    runLifetimeRules(path, lexed, ts, tu, findings);
}

void
runFileRules(const std::string &path, const LexedFile &lexed,
             std::vector<Finding> &findings)
{
    TokenStream ts = tokenize(lexed);
    FileSymbols symbols = buildSymbols(ts);
    TuView tu = buildTuView(symbols, {});
    runFileRules(path, lexed, ts, tu, findings);
}

} // namespace gral::analyzer
