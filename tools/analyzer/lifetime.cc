#include "analyzer/lifetime.h"

#include <algorithm>
#include <set>
#include <utility>

namespace gral::analyzer
{

namespace
{

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/** Methods whose result refers into the receiver, built in. The
 *  GRAL_LIFETIMEBOUND-annotated methods from the TU view extend
 *  this set. */
bool
isBuiltinViewProducer(std::string_view name)
{
    static const std::set<std::string_view> kProducers = {
        "view",           "out",
        "in",             "neighbours",
        "outNeighbours",  "inNeighbours",
        "offsets",        "edges",
        "data",           "c_str",
        "span",
    };
    return kProducers.count(name) != 0;
}

/** Member calls that may reallocate or shrink the receiver's
 *  storage, invalidating outstanding views/spans into it. */
bool
isMutatingMethod(std::string_view name)
{
    static const std::set<std::string_view> kMutators = {
        "push_back", "emplace_back", "pop_back",      "resize",
        "reserve",   "clear",        "assign",        "insert",
        "erase",     "shrink_to_fit", "append",       "swap",
    };
    return kMutators.count(name) != 0;
}

/** Last top-level type identifier and reference-ness of a spelled
 *  type ("std::span<const VertexId>" -> {"span", false};
 *  "const Graph &" -> {"Graph", true}). */
struct TypeShape
{
    std::string name;
    bool reference = false;
};

TypeShape
typeShape(std::string_view spelled)
{
    TypeShape shape;
    int depth = 0;
    std::string ident;
    auto flush = [&] {
        if (ident.empty())
            return;
        if (ident != "const" && ident != "constexpr" &&
            ident != "std" && ident != "gral" &&
            ident != "typename" && ident != "struct" &&
            ident != "class" && ident != "unsigned" &&
            ident != "signed" && depth == 0 && shape.name.empty())
            shape.name = ident;
        ident.clear();
    };
    for (char c : spelled) {
        bool identChar = (c >= 'a' && c <= 'z') ||
                         (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '_';
        if (identChar && depth == 0) {
            ident += c;
            continue;
        }
        flush();
        if (c == '<')
            ++depth;
        else if (c == '>')
            --depth;
        else if ((c == '&' || c == '*') && depth == 0)
            shape.reference = true;
    }
    flush();
    return shape;
}

/** One tracked local: an owning object or a view into one. */
struct LocalVar
{
    std::string name;
    int depth = 1;
    bool isView = false;
    bool isOwner = false;
    bool isParam = false; // by-value owner parameter
    /** Owning local this view refers into ("" = unknown/safe). */
    std::string backing;
    int backingDepth = 0;
    bool dangling = false;
    std::string danglingNote;
    bool invalidated = false;
    std::string invalidatedNote;
};

/** What an initializer / RHS / return expression refers to. */
struct InitInfo
{
    /** A view-producing call was seen (result borrows storage). */
    bool producesView = false;
    std::string producerName;
    std::size_t producerDot = kNone; // '.' of `<recv>.producer(`
    std::size_t producerEnd = kNone; // ')' closing the producer call
    /** Tracked owner the result refers into ("" = unknown). */
    std::string backing;
    int backingDepth = 0;
    /** The storage borrowed from is a temporary dying with the
     *  statement. */
    bool fromTemporaryOwner = false;
    std::size_t tempToken = kNone;
    std::string tempName;
    /** Whole expression is one call F(...). */
    std::string wholeCallName;
    std::size_t wholeCallToken = kNone;
    bool wholeCallReturnsOwner = false;
    bool wholeCallReturnsView = false;
    /** Whole expression is one bare identifier. */
    std::string bareVar;
};

/** Per-function scanner implementing the four view rules. */
class LifetimeScanner
{
  public:
    LifetimeScanner(const std::string &path, const LexedFile &lexed,
                    const TokenStream &ts, const TuView &tu,
                    std::vector<Finding> &findings)
        : path_(path), lexed_(lexed), ts_(ts), tu_(tu),
          findings_(findings)
    {
    }

    void
    scan(const FunctionSymbol &fn)
    {
        vars_.clear();
        limit_ = std::min(fn.bodyEnd, ts_.tokens.size());
        for (const ParamSymbol &param : fn.params) {
            if (param.name.empty() || param.byReference)
                continue;
            if (!isOwningTypeName(typeShape(param.type).name))
                continue;
            LocalVar var;
            var.name = param.name;
            var.isOwner = true;
            var.isParam = true;
            vars_.push_back(std::move(var));
        }
        const bool returnsView =
            isViewTypeName(typeShape(fn.returnType).name);

        int depth = 1;
        for (std::size_t i = fn.bodyBegin + 1; i < limit_; ++i) {
            const Token &t = ts_.tokens[i];
            if (t.text == "{") {
                ++depth;
                continue;
            }
            if (t.text == "}") {
                closeScope(depth, t.line);
                --depth;
                continue;
            }
            if (t.kind != TokenKind::Identifier)
                continue;
            if (t.text == "return") {
                if (returnsView)
                    i = handleReturn(i);
                continue;
            }
            if (handleDeclaration(i, depth))
                continue;
            handleVarToken(i);
        }
    }

  private:
    // ------------------------------------------------------ lookup

    LocalVar *
    find(std::string_view name)
    {
        for (auto it = vars_.rbegin(); it != vars_.rend(); ++it)
            if (it->name == name)
                return &*it;
        return nullptr;
    }

    bool
    isViewProducer(std::string_view name) const
    {
        return isBuiltinViewProducer(name) ||
               tu_.lifetimeboundMethods.count(std::string(name)) != 0;
    }

    /** F returns an owning object by value (a temporary at the call
     *  site): the spelled return type merged over the TU names an
     *  owner and is not a reference. */
    bool
    returnsOwnerByValue(std::string_view callee) const
    {
        if (isOwningTypeName(callee))
            return true; // direct constructor call Owner(...)
        auto it = tu_.returnTypes.find(std::string(callee));
        if (it == tu_.returnTypes.end())
            return false;
        TypeShape shape = typeShape(it->second);
        return isOwningTypeName(shape.name) && !shape.reference;
    }

    bool
    returnsViewByValue(std::string_view callee) const
    {
        if (isViewTypeName(callee))
            return true; // View(...) constructor call
        auto it = tu_.returnTypes.find(std::string(callee));
        return it != tu_.returnTypes.end() &&
               isViewTypeName(typeShape(it->second).name);
    }

    /** Token after the template argument list opening at @p j
     *  ("<" is not a bracket pair in the token tree, so this walks
     *  angle depth by hand); kNone when it does not close before
     *  the statement ends. */
    std::size_t
    skipTemplateArgs(std::size_t j) const
    {
        int depth = 0;
        for (std::size_t k = j; k < limit_; ++k) {
            const Token &t = ts_.tokens[k];
            if (t.text == "<") {
                ++depth;
            } else if (t.text == ">") {
                if (--depth == 0)
                    return k + 1;
            } else if (t.text == ">>") {
                depth -= 2;
                if (depth <= 0)
                    return k + 1;
            } else if (t.text == ";") {
                return kNone;
            } else if (t.text == "(" || t.text == "[" ||
                       t.text == "{") {
                std::size_t p = ts_.partner(k);
                if (p >= limit_)
                    return kNone;
                k = p;
            }
        }
        return kNone;
    }

    /** Index of the `;` ending the statement starting at @p from
     *  (bracket groups skipped); limit_ when the body ends first. */
    std::size_t
    statementEnd(std::size_t from) const
    {
        for (std::size_t k = from; k < limit_;) {
            const Token &t = ts_.tokens[k];
            if (t.text == ";")
                return k;
            if (t.text == "}")
                return k; // malformed statement; stop early
            if (t.text == "(" || t.text == "[" || t.text == "{") {
                std::size_t p = ts_.partner(k);
                if (p >= limit_)
                    return limit_;
                k = p + 1;
                continue;
            }
            ++k;
        }
        return limit_;
    }

    // --------------------------------------------------- reporting

    void
    report(std::size_t anchor, std::string_view rule,
           std::string message, std::vector<FixIt> fixits = {})
    {
        if (!reported_.insert({std::string(rule), anchor}).second)
            return;
        const Token &t = ts_.tokens[anchor];
        if (lexed_.isSuppressed(t.line, rule))
            return;
        findings_.push_back({path_, t.line, t.column,
                             std::string(rule), std::move(message),
                             std::move(fixits)});
    }

    // ------------------------------------------- scope transitions

    void
    closeScope(int depth, int closeLine)
    {
        // Views in outer scopes backed by owners dying here dangle.
        for (const LocalVar &owner : vars_) {
            if (!owner.isOwner || owner.depth != depth)
                continue;
            for (LocalVar &view : vars_) {
                if (!view.isView || view.depth >= depth ||
                    view.dangling || view.backing != owner.name ||
                    view.backingDepth != owner.depth)
                    continue;
                view.dangling = true;
                view.danglingNote =
                    "'" + owner.name +
                    "' went out of scope on line " +
                    std::to_string(closeLine);
            }
        }
        vars_.erase(std::remove_if(vars_.begin(), vars_.end(),
                                   [&](const LocalVar &var) {
                                       return var.depth == depth;
                                   }),
                    vars_.end());
    }

    // ------------------------------------- expression analysis

    InitInfo
    analyze(std::size_t begin, std::size_t end)
    {
        InitInfo info;
        if (begin >= end)
            return info;
        // Whole-expression forms first: one identifier, or one call.
        if (end - begin == 1 &&
            ts_.tokens[begin].kind == TokenKind::Identifier)
            info.bareVar = ts_.tokens[begin].text;
        for (std::size_t k = begin; k < end; ++k) {
            if (!ts_.is(k, "("))
                continue;
            if (ts_.partner(k) == end - 1 && k > begin &&
                ts_.tokens[k - 1].kind == TokenKind::Identifier) {
                info.wholeCallName = ts_.tokens[k - 1].text;
                info.wholeCallToken = k - 1;
                info.wholeCallReturnsOwner =
                    returnsOwnerByValue(info.wholeCallName);
                info.wholeCallReturnsView =
                    returnsViewByValue(info.wholeCallName);
            }
            break;
        }
        for (std::size_t i = begin; i < end; ++i) {
            const Token &t = ts_.tokens[i];
            if (t.kind != TokenKind::Identifier)
                continue;
            const bool member =
                i > begin && (ts_.is(i - 1, ".") ||
                              ts_.is(i - 1, "->"));
            const bool call = ts_.is(i + 1, "(");
            if (member && call && isViewProducer(t.text)) {
                info.producesView = true;
                info.producerName = t.text;
                info.producerDot = i - 1;
                info.producerEnd = ts_.partner(i + 1);
                resolveReceiver(info, begin, i - 2);
                break;
            }
            if (!member && call &&
                tu_.lifetimeboundParamFns.count(
                    std::string(t.text)) != 0) {
                info.producesView = true;
                info.producerName = t.text;
                resolveBoundArgs(info, i + 2, ts_.partner(i + 1));
                break;
            }
        }
        return info;
    }

    /** Receiver of `<recv>.producer(...)`: @p r is the token before
     *  the '.'. */
    void
    resolveReceiver(InitInfo &info, std::size_t begin, std::size_t r)
    {
        if (r == kNone || r < begin || r >= limit_)
            return;
        const Token &rt = ts_.tokens[r];
        if (rt.text == ")") {
            // Receiver is the result of a call: a temporary when the
            // callee returns an owner by value (or is a ctor).
            std::size_t open = ts_.partner(r);
            if (open == ts_.tokens.size() || open == 0 ||
                open <= begin)
                return;
            const Token &callee = ts_.tokens[open - 1];
            if (callee.kind == TokenKind::Identifier &&
                returnsOwnerByValue(callee.text)) {
                info.fromTemporaryOwner = true;
                info.tempToken = open - 1;
                info.tempName = callee.text;
            }
            return;
        }
        if (rt.kind != TokenKind::Identifier)
            return;
        if (r > begin &&
            (ts_.is(r - 1, ".") || ts_.is(r - 1, "->") ||
             ts_.is(r - 1, "::")))
            return; // member/qualified receiver: not tracked
        if (LocalVar *src = find(rt.text)) {
            if (src->isOwner) {
                info.backing = src->name;
                info.backingDepth = src->depth;
            } else if (src->isView) {
                info.backing = src->backing;
                info.backingDepth = src->backingDepth;
            }
        }
    }

    /** Arguments of a GRAL_LIFETIMEBOUND-param call: the result
     *  borrows from the first owner-ish argument. */
    void
    resolveBoundArgs(InitInfo &info, std::size_t begin,
                     std::size_t end)
    {
        end = std::min(end, limit_);
        for (std::size_t i = begin; i < end; ++i) {
            const Token &t = ts_.tokens[i];
            if (t.kind != TokenKind::Identifier)
                continue;
            if (ts_.is(i + 1, "(") &&
                returnsOwnerByValue(t.text)) {
                info.fromTemporaryOwner = true;
                info.tempToken = i;
                info.tempName = t.text;
                return;
            }
            bool member = i > begin && (ts_.is(i - 1, ".") ||
                                        ts_.is(i - 1, "->"));
            if (member)
                continue;
            if (LocalVar *src = find(t.text)) {
                if (src->isOwner) {
                    info.backing = src->name;
                    info.backingDepth = src->depth;
                    return;
                }
                if (src->isView) {
                    info.backing = src->backing;
                    info.backingDepth = src->backingDepth;
                    return;
                }
            }
        }
    }

    // ----------------------------------------------- declarations

    bool
    handleDeclaration(std::size_t i, int depth)
    {
        const Token &t = ts_.tokens[i];
        const bool isAuto = t.text == "auto";
        const bool declView = isViewTypeName(t.text);
        const bool declOwner = isOwningTypeName(t.text);
        if (!isAuto && !declView && !declOwner)
            return false;
        if (i > 0 &&
            (ts_.is(i - 1, ".") || ts_.is(i - 1, "->")))
            return false;
        std::size_t j = i + 1;
        if (ts_.is(j, "<")) {
            j = skipTemplateArgs(j);
            if (j == kNone)
                return false;
        }
        bool ref = false;
        while (ts_.is(j, "&") || ts_.is(j, "&&") || ts_.is(j, "*")) {
            ref = true;
            ++j;
        }
        if (j >= limit_ ||
            ts_.tokens[j].kind != TokenKind::Identifier)
            return false;
        const std::string name(ts_.tokens[j].text);
        std::size_t k = j + 1;
        const bool eqInit = ts_.is(k, "=");
        const bool parenInit = ts_.is(k, "(") || ts_.is(k, "{");
        if (!eqInit && !parenInit && !ts_.is(k, ";"))
            return false;

        std::size_t initBegin = kNone, initEnd = kNone;
        if (eqInit) {
            initBegin = k + 1;
            initEnd = statementEnd(k + 1);
        } else if (parenInit) {
            initBegin = k + 1;
            initEnd = ts_.partner(k);
            if (initEnd >= limit_)
                return false;
        }
        InitInfo info;
        if (initBegin != kNone && initBegin < initEnd)
            info = analyze(initBegin, initEnd);

        LocalVar var;
        var.name = name;
        var.depth = depth;

        if (declOwner) {
            if (ref)
                return false; // a reference does not own storage
            var.isOwner = true;
            vars_.push_back(std::move(var));
            return true;
        }
        if (declView) {
            var.isView = true;
            bindView(var, info, i, t.text);
            vars_.push_back(std::move(var));
            return true;
        }
        // auto: classify by the initializer.
        if (info.producesView) {
            var.isView = true;
            bindView(var, info, kNone, "");
            vars_.push_back(std::move(var));
            return true;
        }
        if (info.wholeCallReturnsOwner && !ref) {
            var.isOwner = true;
            vars_.push_back(std::move(var));
            return true;
        }
        if (!info.bareVar.empty()) {
            if (LocalVar *src = find(info.bareVar)) {
                if (src->isOwner && !ref) {
                    var.isOwner = true; // copy of an owner
                    vars_.push_back(std::move(var));
                    return true;
                }
                if (src->isView) {
                    var.isView = true;
                    var.backing = src->backing;
                    var.backingDepth = src->backingDepth;
                    vars_.push_back(std::move(var));
                    return true;
                }
            }
        }
        if (info.wholeCallReturnsView) {
            var.isView = true; // view by value; backing unknown
            vars_.push_back(std::move(var));
            return true;
        }
        return false;
    }

    /** Bind a view variable to what its initializer refers into,
     *  flagging temporaries. @p typeToken/@p typeName drive the
     *  materialize fixit ("" / kNone for auto). */
    void
    bindView(LocalVar &var, const InitInfo &info,
             std::size_t typeToken, std::string_view typeName)
    {
        if (info.fromTemporaryOwner) {
            reportFromTemporary(var.name, info, typeToken, typeName);
            return; // dead on arrival; don't cascade use findings
        }
        if (info.producesView) {
            var.backing = info.backing;
            var.backingDepth = info.backingDepth;
            return;
        }
        if (!info.bareVar.empty()) {
            if (LocalVar *src = find(info.bareVar)) {
                if (src->isOwner) { // implicit Owner -> View
                    var.backing = src->name;
                    var.backingDepth = src->depth;
                } else if (src->isView) {
                    var.backing = src->backing;
                    var.backingDepth = src->backingDepth;
                }
            }
            return;
        }
        if (info.wholeCallReturnsOwner) {
            // Implicit conversion from a returned owner temporary
            // (`string_view sv = makeName();`).
            InitInfo temp = info;
            temp.tempToken = info.wholeCallToken;
            temp.tempName = info.wholeCallName;
            reportFromTemporary(var.name, temp, typeToken, typeName);
        }
    }

    void
    reportFromTemporary(const std::string &varName,
                        const InitInfo &info, std::size_t typeToken,
                        std::string_view typeName)
    {
        if (info.tempToken == kNone)
            return;
        std::vector<FixIt> fixits;
        if (typeToken != kNone) {
            const Token &ty = ts_.tokens[typeToken];
            if (typeName == "GraphView" &&
                info.producerName == "view" &&
                info.producerDot != kNone &&
                info.producerEnd != kNone &&
                info.producerEnd < limit_) {
                // GraphView v = <owner-expr>.view();
                //   -> Graph v = <owner-expr>;
                fixits.push_back(
                    {ty.offset, typeName.size(), "Graph"});
                std::size_t delBegin =
                    ts_.tokens[info.producerDot].offset;
                std::size_t delEnd =
                    ts_.tokens[info.producerEnd].offset + 1;
                fixits.push_back({delBegin, delEnd - delBegin, ""});
            } else if (typeName == "AdjacencyView" &&
                       (info.producerName == "out" ||
                        info.producerName == "in")) {
                // AdjacencyView a = <owner-expr>.out();
                //   -> Adjacency a = ... (copies before the
                //      temporary dies)
                fixits.push_back(
                    {ty.offset, typeName.size(), "Adjacency"});
            }
        }
        const bool fixable = !fixits.empty();
        report(info.tempToken, "view-from-temporary",
               "'" + varName + "' is a view of the temporary '" +
                   info.tempName +
                   "(...)', which is destroyed at the end of this "
                   "statement — the view dangles immediately; bind "
                   "the owner to a named object first" +
                   (fixable ? " (fixable with --fix)" : ""),
               std::move(fixits));
    }

    // ------------------------------------------ per-token actions

    void
    handleVarToken(std::size_t i)
    {
        const Token &t = ts_.tokens[i];
        if (i > 0 && (ts_.is(i - 1, ".") || ts_.is(i - 1, "->") ||
                      ts_.is(i - 1, "::")))
            return; // someone else's member
        LocalVar *var = find(t.text);
        if (var == nullptr)
            return;
        if (ts_.is(i + 1, "=")) { // plain assignment (== is one token)
            if (var->isOwner) {
                invalidateViews(var->name, var->depth,
                                "'" + var->name +
                                    "' was reassigned on line " +
                                    std::to_string(t.line));
            } else if (var->isView) {
                var->dangling = false;
                var->invalidated = false;
                var->backing.clear();
                std::size_t end = statementEnd(i + 2);
                bindView(*var, analyze(i + 2, end), kNone, "");
            }
            return;
        }
        if (var->isOwner) {
            // Mutation of the owner invalidates views into it.
            if ((ts_.is(i + 1, ".") || ts_.is(i + 1, "->")) &&
                i + 2 < limit_ &&
                ts_.tokens[i + 2].kind == TokenKind::Identifier &&
                isMutatingMethod(ts_.tokens[i + 2].text) &&
                ts_.is(i + 3, "(")) {
                invalidateViews(
                    var->name, var->depth,
                    "'" + var->name + "." +
                        std::string(ts_.tokens[i + 2].text) +
                        "()' on line " + std::to_string(t.line) +
                        " may reallocate");
            }
            return;
        }
        if (!var->isView)
            return;
        if (var->dangling) {
            report(i, "view-outlives-storage",
                   "'" + var->name +
                       "' is used after its backing storage went "
                       "out of scope (" +
                       var->danglingNote +
                       "); the view dangles — widen the owner's "
                       "scope or materialize an owning copy");
            var->dangling = false; // report the first use only
        } else if (var->invalidated) {
            report(i, "view-invalidated-by-mutation",
                   "'" + var->name + "' refers into storage that " +
                       var->invalidatedNote +
                       "; views/spans do not survive reallocation "
                       "— recreate the view after mutating");
            var->invalidated = false;
        }
    }

    void
    invalidateViews(const std::string &owner, int ownerDepth,
                    const std::string &note)
    {
        for (LocalVar &view : vars_) {
            if (view.isView && !view.invalidated &&
                view.backing == owner &&
                view.backingDepth == ownerDepth) {
                view.invalidated = true;
                view.invalidatedNote = note;
            }
        }
    }

    // ------------------------------------------------ return rule

    /** @p i is the `return` token of a view-returning function.
     *  Returns the index to resume scanning from. */
    std::size_t
    handleReturn(std::size_t i)
    {
        std::size_t end = statementEnd(i + 1);
        if (end <= i + 1)
            return end;
        InitInfo info = analyze(i + 1, end);
        std::string why;
        if (info.fromTemporaryOwner) {
            why = "the temporary '" + info.tempName +
                  "(...)', destroyed before the caller can use the "
                  "result";
        } else {
            std::string owner =
                info.producesView ? info.backing : "";
            if (owner.empty() && !info.bareVar.empty()) {
                if (LocalVar *src = find(info.bareVar)) {
                    if (src->isOwner)
                        owner = src->name;
                    else if (src->isView)
                        owner = src->backing;
                }
            }
            if (!owner.empty()) {
                LocalVar *src = find(owner);
                if (src != nullptr && src->isParam)
                    why = "the by-value parameter '" + owner +
                          "', destroyed when the function returns; "
                          "take the storage by const reference and "
                          "annotate it GRAL_LIFETIMEBOUND";
                else
                    why = "the local '" + owner +
                          "', destroyed when the function returns";
            }
        }
        if (!why.empty())
            report(i, "return-dangling-view",
                   "returning a view that refers into " + why +
                       "; return an owning object instead "
                       "(materializeGraph / a container copy)");
        return end;
    }

    const std::string &path_;
    const LexedFile &lexed_;
    const TokenStream &ts_;
    const TuView &tu_;
    std::vector<Finding> &findings_;
    std::vector<LocalVar> vars_;
    std::set<std::pair<std::string, std::size_t>> reported_;
    std::size_t limit_ = 0;
};

} // namespace

bool
isViewTypeName(std::string_view typeName)
{
    return typeName == "GraphView" || typeName == "AdjacencyView" ||
           typeName == "span" || typeName == "string_view";
}

bool
isOwningTypeName(std::string_view typeName)
{
    return typeName == "Graph" || typeName == "MappedGraph" ||
           typeName == "Adjacency" ||
           typeName == "CompressedAdjacency" || typeName == "vector" ||
           typeName == "string";
}

void
runLifetimeRules(const std::string &path, const LexedFile &lexed,
                 const TokenStream &ts, const TuView &tu,
                 std::vector<Finding> &findings)
{
    LifetimeScanner scanner(path, lexed, ts, tu, findings);
    for (const FunctionSymbol &fn : tu.local->functions)
        if (fn.hasBody)
            scanner.scan(fn);
}

} // namespace gral::analyzer
