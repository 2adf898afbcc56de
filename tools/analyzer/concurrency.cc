#include "analyzer/concurrency.h"

#include <algorithm>
#include <set>

namespace gral::analyzer
{

namespace
{

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

/** Modules whose lock-free designs document relaxed/acq-rel intent. */
bool
inAtomicAuditScope(const std::string &path)
{
    return startsWith(path, "src/obs/metrics") ||
           startsWith(path, "src/kernels/") ||
           startsWith(path, "src/cachesim/");
}

void
emit(std::vector<Finding> &findings, const LexedFile &lexed,
     const std::string &path, const Token &at, std::string_view rule,
     std::string message, std::vector<FixIt> fixits = {})
{
    if (lexed.isSuppressed(at.line, rule))
        return;
    findings.push_back({path, at.line, at.column, std::string(rule),
                        std::move(message), std::move(fixits)});
}

/** Index past a balanced <...> opening at @p i ('>>' closes two). */
std::size_t
skipTemplateArgs(const TokenStream &ts, std::size_t i)
{
    if (!ts.is(i, "<"))
        return i;
    int depth = 0;
    for (std::size_t j = i; j < ts.tokens.size(); ++j) {
        std::string_view t = ts.tokens[j].text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0)
                return j + 1;
        } else if (t == ">>") {
            depth -= 2;
            if (depth <= 0)
                return j + 1;
        } else if (t == ";" || t == "{" || t == "}") {
            return i;
        } else if (t == "(" || t == "[") {
            std::size_t p = ts.partner(j);
            if (p >= ts.tokens.size())
                return i;
            j = p;
        }
    }
    return i;
}

/** Normalized top-level comma-separated args of the group at @p open. */
std::vector<std::string>
parenArgs(const TokenStream &ts, std::size_t open)
{
    std::vector<std::string> args;
    std::size_t close = ts.partner(open);
    if (close >= ts.tokens.size())
        return args;
    std::string current;
    auto flush = [&] {
        std::string normalized = normalizeGuardExpr(current);
        if (!normalized.empty())
            args.push_back(std::move(normalized));
        current.clear();
    };
    for (std::size_t i = open + 1; i < close; ++i) {
        if (ts.tokens[i].text == ",") {
            flush();
            continue;
        }
        std::size_t p = ts.partner(i);
        if (p < ts.tokens.size() && p > i) {
            for (std::size_t k = i; k <= p; ++k)
                current += std::string(ts.tokens[k].text);
            i = p;
            continue;
        }
        current += std::string(ts.tokens[i].text);
    }
    flush();
    return args;
}

bool
isLockClass(std::string_view name)
{
    return name == "lock_guard" || name == "scoped_lock" ||
           name == "unique_lock" || name == "shared_lock";
}

// ---------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------

class GuardedByChecker
{
  public:
    GuardedByChecker(const std::string &path, const LexedFile &lexed,
                     const TokenStream &ts, const TuView &tu,
                     std::vector<Finding> &findings)
        : path_(path), lexed_(lexed), ts_(ts), tu_(tu),
          findings_(findings)
    {
    }

    void
    run()
    {
        for (const FunctionSymbol &fn : tu_.local->functions) {
            if (!fn.hasBody || fn.isCtorOrDtor)
                continue;
            guards_.clear();
            for (const FieldSymbol *field :
                 tu_.fieldsOf(fn.className))
                if (!field->guardedBy.empty())
                    guards_[field->name] = field->guardedBy;
            if (guards_.empty())
                continue;
            std::set<std::string> held;
            for (const std::string &lock : fn.requiresLocks)
                held.insert(lock);
            for (const std::string &lock :
                 tu_.requiresOf(fn.className, fn.name))
                held.insert(lock);
            scanScope(fn.bodyBegin + 1, fn.bodyEnd, held);
        }
    }

  private:
    const std::string &path_;
    const LexedFile &lexed_;
    const TokenStream &ts_;
    const TuView &tu_;
    std::vector<Finding> &findings_;
    std::map<std::string, std::string> guards_; // field -> mutex

    void
    scanScope(std::size_t b, std::size_t e,
              std::set<std::string> held)
    {
        e = std::min(e, ts_.tokens.size());
        for (std::size_t i = b; i < e;) {
            const Token &t = ts_.tokens[i];
            if (t.text == "{") {
                std::size_t p = ts_.partner(i);
                if (p >= e) {
                    ++i;
                    continue;
                }
                scanScope(i + 1, p, held);
                i = p + 1;
                continue;
            }
            // RAII lock declaration: lock_guard/scoped_lock/
            // unique_lock/shared_lock, optional <...>, var name,
            // then (mutex...) or {mutex...}.
            if (t.kind == TokenKind::Identifier &&
                isLockClass(t.text)) {
                std::size_t j = skipTemplateArgs(ts_, i + 1);
                if (j == i + 1)
                    j = i + 1; // no template args (CTAD)
                if (j < e &&
                    ts_.tokens[j].kind == TokenKind::Identifier &&
                    j + 1 < e &&
                    (ts_.tokens[j + 1].text == "(" ||
                     ts_.tokens[j + 1].text == "{")) {
                    std::vector<std::string> args =
                        parenArgs(ts_, j + 1);
                    auto isTag = [](const std::string &arg) {
                        return arg == "std::defer_lock" ||
                               arg == "defer_lock" ||
                               arg == "std::try_to_lock" ||
                               arg == "try_to_lock" ||
                               arg == "std::adopt_lock" ||
                               arg == "adopt_lock";
                    };
                    bool deferred =
                        std::any_of(args.begin(), args.end(),
                                    [&](const std::string &arg) {
                                        return arg ==
                                                   "std::defer_lock" ||
                                               arg == "defer_lock";
                                    });
                    if (!deferred)
                        for (const std::string &arg : args)
                            if (!isTag(arg))
                                held.insert(arg);
                    i = ts_.partner(j + 1) + 1;
                    continue;
                }
            }
            // Manual mutex_.lock() / mutex_.unlock(): held until
            // unlocked or scope end.
            if (t.kind == TokenKind::Identifier && i + 3 < e &&
                (ts_.tokens[i + 1].text == "." ||
                 ts_.tokens[i + 1].text == "->") &&
                ts_.tokens[i + 3].text == "(") {
                std::string_view member = ts_.tokens[i + 2].text;
                if (member == "lock") {
                    held.insert(normalizeGuardExpr(t.text));
                    i = ts_.partner(i + 3) + 1;
                    continue;
                }
                if (member == "unlock") {
                    held.erase(normalizeGuardExpr(t.text));
                    i = ts_.partner(i + 3) + 1;
                    continue;
                }
            }
            // Guarded-field access: bare name or this->name.
            if (t.kind == TokenKind::Identifier) {
                auto guard = guards_.find(std::string(t.text));
                if (guard != guards_.end() && isFieldAccess(i) &&
                    held.count(guard->second) == 0) {
                    emit(findings_, lexed_, path_, t, "guarded-by",
                         "field '" + guard->first +
                             "' is GRAL_GUARDED_BY(" + guard->second +
                             ") but accessed without holding it; "
                             "lock it in this scope or annotate the "
                             "enclosing method GRAL_REQUIRES(" +
                             guard->second + ")");
                }
            }
            ++i;
        }
    }

    /** True when tokens[i] reads/writes this object's field (not a
     *  qualified name and not another object's member). */
    bool
    isFieldAccess(std::size_t i) const
    {
        if (i == 0)
            return true;
        std::string_view prev = ts_.tokens[i - 1].text;
        if (prev == "::")
            return false;
        if (prev == "." || prev == "->")
            return i >= 2 && ts_.tokens[i - 2].text == "this";
        return true;
    }
};

// ---------------------------------------------------------------
// atomic-seq-cst
// ---------------------------------------------------------------

bool
isAtomicOp(std::string_view name)
{
    static constexpr std::string_view kOps[] = {
        "load",          "store",
        "exchange",      "fetch_add",
        "fetch_sub",     "fetch_and",
        "fetch_or",      "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong",
        "test_and_set",  "clear"};
    return std::find(std::begin(kOps), std::end(kOps), name) !=
           std::end(kOps);
}

/** Names of local/namespace-scope std::atomic variables: every
 *  `atomic<...> name` declarator in the stream. */
std::set<std::string>
localAtomicNames(const TokenStream &ts)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < ts.tokens.size(); ++i) {
        if (!ts.isIdent(i, "atomic") || !ts.is(i + 1, "<"))
            continue;
        std::size_t j = skipTemplateArgs(ts, i + 1);
        if (j != i + 1 && j < ts.tokens.size() &&
            ts.tokens[j].kind == TokenKind::Identifier)
            names.insert(std::string(ts.tokens[j].text));
    }
    return names;
}

void
checkAtomics(const std::string &path, const LexedFile &lexed,
             const TokenStream &ts, const TuView &tu,
             std::vector<Finding> &findings)
{
    std::set<std::string> atomics = localAtomicNames(ts);
    atomics.insert(tu.atomicFields.begin(), tu.atomicFields.end());
    if (atomics.empty())
        return;

    auto isAtomicName = [&](std::size_t i) {
        return i < ts.tokens.size() &&
               ts.tokens[i].kind == TokenKind::Identifier &&
               atomics.count(std::string(ts.tokens[i].text)) != 0;
    };

    for (std::size_t i = 0; i < ts.tokens.size(); ++i) {
        const Token &t = ts.tokens[i];

        // receiver.op(...) / receiver->op(...).
        if (t.kind == TokenKind::Identifier && isAtomicOp(t.text) &&
            i >= 2 && ts.is(i + 1, "(") &&
            (ts.tokens[i - 1].text == "." ||
             ts.tokens[i - 1].text == "->")) {
            std::size_t r = i - 2;
            if (ts.tokens[r].text == "]") {
                std::size_t open = ts.partner(r);
                r = (open > 0 && open < ts.tokens.size()) ? open - 1
                                                          : r;
            }
            if (!isAtomicName(r))
                continue;
            std::size_t open = i + 1;
            std::size_t close = ts.partner(open);
            if (close >= ts.tokens.size())
                continue;
            bool explicitOrder = false;
            for (std::size_t k = open + 1; k < close; ++k)
                if (ts.tokens[k].kind == TokenKind::Identifier &&
                    startsWith(ts.tokens[k].text, "memory_order"))
                    explicitOrder = true;
            if (explicitOrder)
                continue;
            FixIt fix;
            fix.offset = ts.tokens[close].offset;
            fix.length = 0;
            fix.replacement = open + 1 == close
                                  ? "std::memory_order_relaxed"
                                  : ", std::memory_order_relaxed";
            emit(findings, lexed, path, t, "atomic-seq-cst",
                 "'" + std::string(t.text) + "' on std::atomic '" +
                     std::string(ts.tokens[r].text) +
                     "' defaults to memory_order_seq_cst in a "
                     "lock-free hot module; state the order "
                     "explicitly (fix inserts "
                     "std::memory_order_relaxed)",
                 {fix});
            continue;
        }

        // atomic++ / atomic-- / ++atomic / --atomic and compound
        // assignments: seq_cst RMW spelled as an operator.
        bool opBefore = (t.text == "++" || t.text == "--") &&
                        isAtomicName(i + 1) &&
                        !(i > 0 && (ts.tokens[i - 1].text == "." ||
                                    ts.tokens[i - 1].text == "->" ||
                                    ts.tokens[i - 1].text == "::"));
        bool opAfter =
            t.kind == TokenKind::Identifier && isAtomicName(i) &&
            i + 1 < ts.tokens.size() &&
            (ts.tokens[i + 1].text == "++" ||
             ts.tokens[i + 1].text == "--" ||
             ts.tokens[i + 1].text == "+=" ||
             ts.tokens[i + 1].text == "-=" ||
             ts.tokens[i + 1].text == "|=" ||
             ts.tokens[i + 1].text == "&=" ||
             ts.tokens[i + 1].text == "^=") &&
            !(i > 0 && (ts.tokens[i - 1].text == "." ||
                        ts.tokens[i - 1].text == "->" ||
                        ts.tokens[i - 1].text == "::"));
        if (opBefore || opAfter) {
            const Token &name = opBefore ? ts.tokens[i + 1] : t;
            emit(findings, lexed, path, name, "atomic-seq-cst",
                 "operator RMW on std::atomic '" +
                     std::string(name.text) +
                     "' is memory_order_seq_cst; use "
                     "fetch_add/fetch_sub with an explicit order");
            if (opBefore)
                ++i; // don't re-flag via the opAfter pattern
        }
    }
}

} // namespace

void
runConcurrencyRules(const std::string &path, const LexedFile &lexed,
                    const TokenStream &ts, const TuView &tu,
                    std::vector<Finding> &findings)
{
    if (!startsWith(path, "src/"))
        return;
    GuardedByChecker(path, lexed, ts, tu, findings).run();
    if (inAtomicAuditScope(path))
        checkAtomics(path, lexed, ts, tu, findings);
}

} // namespace gral::analyzer
