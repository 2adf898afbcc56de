#include "analyzer/costmodel.h"

#include <algorithm>
#include <set>
#include <utility>

namespace gral::analyzer
{

namespace
{

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

} // namespace

bool
inHotPathScope(const std::string &path)
{
    return startsWith(path, "src/cachesim/") ||
           startsWith(path, "src/kernels/") ||
           startsWith(path, "src/exec/") ||
           startsWith(path, "src/graph/storage/");
}

std::vector<HotOp>
detectHotOps(const TokenStream &ts, std::size_t begin,
             std::size_t end, const TuView &tu)
{
    std::vector<HotOp> ops;
    end = std::min(end, ts.tokens.size());
    auto push = [&](const Token &t, std::size_t i,
                    std::string_view rule, std::string what,
                    std::string advice) {
        ops.push_back({std::string(rule), std::move(what),
                       std::move(advice), i, t.line, t.column});
    };
    for (std::size_t i = begin; i < end; ++i) {
        const Token &t = ts.tokens[i];
        if (t.kind != TokenKind::Identifier)
            continue;
        bool memberCall = i > 0 &&
                          (ts.tokens[i - 1].text == "." ||
                           ts.tokens[i - 1].text == "->") &&
                          ts.is(i + 1, "(");

        if (memberCall &&
            (t.text == "counter" || t.text == "gauge" ||
             t.text == "histogram" || t.text == "series")) {
            push(t, i, "hot-path-metrics",
                 "MetricsRegistry name lookup",
                 "resolve the Counter/Gauge/Histogram/Series "
                 "reference once before the loop (obs/metrics.h)");
            continue;
        }
        if (t.text == "MetricsRegistry" && ts.is(i + 1, "::") &&
            ts.isIdent(i + 2, "global") && ts.is(i + 3, "(")) {
            push(t, i, "hot-path-metrics",
                 "MetricsRegistry::global() lookup",
                 "hoist the registry handle out of the hot path");
            continue;
        }
        if (t.text == "GRAL_SPAN" && ts.is(i + 1, "(")) {
            push(t, i, "hot-path-span",
                 "GRAL_SPAN records one span per iteration",
                 "hoist it to the enclosing scope");
            continue;
        }
        if (t.text == "new" || t.text == "make_unique" ||
            t.text == "make_shared") {
            push(t, i, "hot-path-alloc", "allocation",
                 "hoist or reserve outside the loop");
            continue;
        }
        if (t.text == "lock_guard" || t.text == "scoped_lock" ||
            t.text == "unique_lock" || t.text == "shared_lock" ||
            (memberCall &&
             (t.text == "lock" || t.text == "try_lock"))) {
            push(t, i, "hot-path-lock", "mutex acquisition",
                 "move locking out of the per-iteration path or "
                 "switch to an atomic/sharded design");
            continue;
        }
        if (memberCall && t.text == "readCounters") {
            push(t, i, "hot-path-perf-read",
                 "perf counter group read(2)",
                 "a group read is a syscall per call; count across "
                 "the whole region (GRAL_PERF_SCOPE) and read once "
                 "at its end");
            continue;
        }
        if (memberCall &&
            tu.virtualFunctions.count(std::string(t.text)) != 0) {
            push(t, i, "hot-path-virtual",
                 "virtual call to '" + std::string(t.text) + "()'",
                 "devirtualize the per-element path (batch per "
                 "buffer, template on the concrete type, or mark "
                 "the class final)");
            continue;
        }
    }
    return ops;
}

std::vector<HotRange>
collectHotRanges(const TokenStream &ts, const TuView &tu)
{
    std::vector<HotRange> ranges;
    for (const LoopRange &loop : loopBodies(ts, 0, ts.tokens.size()))
        ranges.push_back({loop.begin, loop.end, ""});

    // Functions transitively called from a hot range, resolved by
    // name against this file's definitions.
    std::set<std::string> hotFunctions;
    bool grew = true;
    while (grew) {
        grew = false;
        std::set<std::string> called;
        for (const HotRange &range : ranges)
            for (const CallSite &call :
                 callSites(ts, range.begin, range.end))
                called.insert(call.name);
        for (const FunctionSymbol &fn : tu.local->functions) {
            if (!fn.hasBody || called.count(fn.name) == 0 ||
                hotFunctions.count(fn.name) != 0)
                continue;
            hotFunctions.insert(fn.name);
            ranges.push_back({fn.bodyBegin + 1, fn.bodyEnd, fn.name});
            grew = true;
        }
    }
    return ranges;
}

void
runCostModelRules(const std::string &path, const LexedFile &lexed,
                  const TokenStream &ts, const TuView &tu,
                  std::vector<Finding> &findings)
{
    if (!inHotPathScope(path))
        return;
    // (rule, token) pairs already reported — hot ranges overlap
    // (nested loops, functions called from several loops).
    std::set<std::pair<std::string, std::size_t>> reported;
    for (const HotRange &range : collectHotRanges(ts, tu)) {
        for (HotOp &op : detectHotOps(ts, range.begin, range.end, tu)) {
            if (!reported.insert({op.rule, op.tokenIndex}).second)
                continue;
            if (lexed.isSuppressed(op.line, op.rule))
                continue;
            std::string where =
                range.via.empty()
                    ? "inside a loop body"
                    : "in '" + range.via +
                          "()', which is reachable from a loop body";
            findings.push_back({path, op.line, op.column, op.rule,
                                op.what + " " + where + "; " +
                                    op.advice});
        }
    }
}

} // namespace gral::analyzer
