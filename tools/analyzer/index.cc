#include "analyzer/index.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace gral::analyzer
{

namespace
{

/** The hot range's place in a diagnostic message. */
std::string
whereText(const std::string &via)
{
    return via.empty() ? "inside a loop body"
                       : "in '" + via +
                             "()', which is reachable from a loop "
                             "body";
}

} // namespace

bool
TuIndex::defines(std::string_view name) const
{
    for (const IndexedFunction &fn : functions)
        if (fn.name == name)
            return true;
    return false;
}

TuIndex
buildTuIndex(const std::string &path, const LexedFile &lexed,
             const TokenStream &ts, const TuView &tu)
{
    TuIndex index;

    for (const FunctionSymbol &fn : tu.local->functions) {
        if (!fn.hasBody)
            continue;
        IndexedFunction entry;
        entry.name = fn.name;
        entry.className = fn.className;
        entry.line = fn.line;
        std::size_t begin = fn.bodyBegin + 1;
        std::size_t end = fn.bodyEnd;
        for (HotOp &op : detectHotOps(ts, begin, end, tu)) {
            // Suppressed ops never enter the index: a justified
            // `off-next-line(hot-path-alloc)` also covers the
            // cross-TU view of the same construct.
            if (lexed.isSuppressed(op.line, op.rule))
                continue;
            entry.ops.push_back({std::move(op.rule), op.line,
                                 op.column, std::move(op.what),
                                 std::move(op.advice)});
        }
        std::set<std::pair<std::string, bool>> seen;
        for (const CallSite &call : callSites(ts, begin, end))
            if (seen.insert({call.name, call.isMemberCall}).second)
                entry.calls.push_back(
                    {call.name, call.isMemberCall});
        index.functions.push_back(std::move(entry));
    }

    if (inHotPathScope(path)) {
        std::set<std::tuple<std::string, int, int>> seen;
        for (const HotRange &range : collectHotRanges(ts, tu)) {
            for (const CallSite &call :
                 callSites(ts, range.begin, range.end)) {
                const Token &t = ts.tokens[call.tokenIndex];
                if (!seen.insert({call.name, t.line, t.column})
                         .second)
                    continue;
                HotCallSite site;
                site.callee = call.name;
                site.line = t.line;
                site.column = t.column;
                site.memberCall = call.isMemberCall;
                site.via = range.via;
                if (t.line >= 1 &&
                    static_cast<std::size_t>(t.line) <=
                        lexed.lines.size())
                    site.strippedLine =
                        lexed.lines[static_cast<std::size_t>(
                                        t.line) -
                                    1];
                index.hotCalls.push_back(std::move(site));
            }
        }
    }
    return index;
}

namespace
{

/** The op that makes a function expensive, with its location. */
struct Witness
{
    std::string path;
    int line = 1;
    std::string what;
    std::string advice;

    bool
    operator<(const Witness &other) const
    {
        return std::tie(path, line, what) <
               std::tie(other.path, other.line, other.what);
    }
};

using Summary = std::map<std::string, Witness>; // rule -> witness

/** Merge @p from into @p into (keep the smaller witness per rule);
 *  true when @p into changed. */
bool
mergeSummary(Summary &into, const Summary &from)
{
    bool changed = false;
    for (const auto &[rule, witness] : from) {
        auto it = into.find(rule);
        if (it == into.end()) {
            into.emplace(rule, witness);
            changed = true;
        } else if (witness < it->second) {
            it->second = witness;
            changed = true;
        }
    }
    return changed;
}

/** One function definition with its defining file. */
struct Def
{
    const std::string *path = nullptr;
    const IndexedFunction *fn = nullptr;
};

} // namespace

std::vector<CrossTuFinding>
runCrossTuRules(const ProgramIndex &index)
{
    // ---- merge: callee name -> definitions, program-wide
    std::map<std::string, std::vector<Def>> defs;
    std::vector<std::pair<Def, Summary>> work;
    for (const auto &[path, entry] : index.entries) {
        for (const IndexedFunction &fn : entry.functions) {
            Def def{&path, &fn};
            defs[fn.name].push_back(def);
            Summary own;
            for (const IndexedOp &op : fn.ops)
                mergeSummary(own, {{op.rule,
                                    {path, op.line, op.what,
                                     op.advice}}});
            work.emplace_back(def, std::move(own));
        }
    }
    std::map<const IndexedFunction *, std::size_t> slotOf;
    for (std::size_t i = 0; i < work.size(); ++i)
        slotOf[work[i].first.fn] = i;

    auto calleeDefs =
        [&](const std::string &name) -> const std::vector<Def> * {
        auto it = defs.find(name);
        return it == defs.end() ? nullptr : &it->second;
    };

    // ---- fixpoint: pull callee summaries into each caller
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &[def, summary] : work) {
            for (const IndexedCall &call : def.fn->calls) {
                const std::vector<Def> *targets =
                    calleeDefs(call.callee);
                if (targets == nullptr)
                    continue;
                for (const Def &target : *targets) {
                    // A member call can only land on a method.
                    if (call.memberCall &&
                        target.fn->className.empty())
                        continue;
                    if (target.fn == def.fn)
                        continue;
                    changed |= mergeSummary(
                        summary,
                        work[slotOf.at(target.fn)].second);
                }
            }
        }
    }

    // ---- flag hot call sites resolving to expensive remote defs
    std::vector<CrossTuFinding> findings;
    for (const auto &[path, entry] : index.entries) {
        for (const HotCallSite &site : entry.hotCalls) {
            // Same-file definitions are the per-TU pass's job.
            if (entry.defines(site.callee))
                continue;
            const std::vector<Def> *targets =
                calleeDefs(site.callee);
            if (targets == nullptr)
                continue;
            Summary reached;
            std::string definedIn;
            for (const Def &target : *targets) {
                if (site.memberCall &&
                    target.fn->className.empty())
                    continue;
                mergeSummary(reached,
                             work[slotOf.at(target.fn)].second);
                std::string loc = *target.path + ":" +
                                  std::to_string(target.fn->line);
                if (definedIn.empty() || loc < definedIn)
                    definedIn = loc;
            }
            for (const auto &[rule, witness] : reached) {
                Finding finding;
                finding.path = path;
                finding.line = site.line;
                finding.column = site.column;
                finding.rule = rule;
                finding.message =
                    "call to '" + site.callee + "()' " +
                    whereText(site.via) + " reaches " +
                    witness.what + " at " + witness.path + ":" +
                    std::to_string(witness.line) +
                    " (callee defined in " + definedIn +
                    ", another TU); " + witness.advice;
                findings.push_back(
                    {std::move(finding), site.strippedLine});
            }
        }
    }
    std::sort(findings.begin(), findings.end(),
              [](const CrossTuFinding &a, const CrossTuFinding &b) {
                  return std::tie(a.finding.path, a.finding.line,
                                  a.finding.rule,
                                  a.finding.column) <
                         std::tie(b.finding.path, b.finding.line,
                                  b.finding.rule, b.finding.column);
              });
    return findings;
}

} // namespace gral::analyzer
