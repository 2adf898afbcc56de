/**
 * @file
 * Lightweight symbol table for gral-analyzer.
 *
 * buildSymbols() walks a TokenStream and extracts the declarations
 * the rule packs need — it is a heuristic single-pass scanner, not a
 * full C++ parser, but it is scope-exact for the shapes this repo
 * uses (gem5-style classes, out-of-line member definitions,
 * namespaces, templates):
 *
 *  - classes/structs with their member fields: name, spelled type,
 *    position, whether the type is a mutex or a std::atomic, and the
 *    guard expression of a trailing `GRAL_GUARDED_BY(mutex)`
 *    annotation (common/annotations.h);
 *  - functions with bodies (free, in-class, out-of-line `C::f`) and
 *    body token ranges, plus declaration-only members so virtual
 *    methods and `GRAL_REQUIRES(mutex)` contracts declared in a
 *    header are visible when the definition lives in the .cc;
 *  - loop body token ranges and call sites, used by the cost-model
 *    pack's reachability pass (costmodel.cc).
 *
 * Because the analyzer does not preprocess, annotation macros are
 * visible verbatim in the token stream — that is exactly why the
 * annotations expand to nothing for the compiler (unless a
 * thread-safety-capable toolchain opts in) but are load-bearing here.
 */

#ifndef GRAL_ANALYZER_SYMBOLS_H
#define GRAL_ANALYZER_SYMBOLS_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/parse.h"

namespace gral::analyzer
{

/** One data member of a class. */
struct FieldSymbol
{
    std::string name;
    std::string type;      // spelled type, whitespace-normalized
    std::string guardedBy; // GRAL_GUARDED_BY argument ("" = none)
    int line = 1;
    int column = 1;
    bool isMutex = false;  // type mentions a mutex
    bool isAtomic = false; // type mentions std::atomic
};

/** One class/struct definition. */
struct ClassSymbol
{
    std::string name;
    std::vector<FieldSymbol> fields;
    /** Token indices of the body braces in the defining file. */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
};

/** One declared parameter of a function. */
struct ParamSymbol
{
    std::string name; // "" for unnamed parameters
    std::string type; // spelled type, whitespace-normalized
    /** Declared by reference or pointer (the caller keeps ownership
     *  and the object outlives the call either way). */
    bool byReference = false;
    /** Annotated GRAL_LIFETIMEBOUND: the result refers into this
     *  argument. */
    bool lifetimebound = false;
};

/** One function: a definition (hasBody) or a bare declaration. */
struct FunctionSymbol
{
    std::string name;      // bare name ("run", "Series", "~Series")
    std::string className; // enclosing or :: -qualified class, "" free
    /** Spelled return type ("" for ctors/dtors and when the scanner
     *  could not attribute one), whitespace-normalized, with
     *  specifiers (virtual/static/inline/...) dropped. */
    std::string returnType;
    int line = 1;
    bool isVirtual = false;
    bool isCtorOrDtor = false;
    bool hasBody = false;
    /** GRAL_LIFETIMEBOUND after the parameter list: the result
     *  refers into *this. */
    bool lifetimeboundThis = false;
    std::vector<ParamSymbol> params;
    /** GRAL_REQUIRES arguments (normalized mutex expressions). */
    std::vector<std::string> requiresLocks;
    /** Token indices of the body braces (valid when hasBody). */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;

    /** True when any parameter is annotated GRAL_LIFETIMEBOUND. */
    bool hasLifetimeboundParam() const;
};

/** Symbols extracted from one file. */
struct FileSymbols
{
    std::vector<ClassSymbol> classes;
    std::vector<FunctionSymbol> functions;
};

/** Build the symbol table of one tokenized file. */
FileSymbols buildSymbols(const TokenStream &ts);

/**
 * Translation-unit view: the file under analysis (@p local, whose
 * bodies the rule packs scan) plus lookup tables merged from the
 * file's transitive repo-local includes. Fields and their
 * GRAL_GUARDED_BY annotations usually live in a header while the
 * member bodies live in the .cc — the merge is what makes the
 * cross-file contract checkable.
 *
 * Pointers borrow from the FileSymbols passed to buildTuView(); the
 * caller keeps those alive for the view's lifetime.
 */
struct TuView
{
    const FileSymbols *local = nullptr;

    /** class name -> merged fields (local + all included files). */
    std::map<std::string, std::vector<const FieldSymbol *>> classFields;

    /** Names of functions declared `virtual` anywhere in the TU. */
    std::set<std::string> virtualFunctions;

    /** "Class::name" (or "name" for free functions) -> union of
     *  GRAL_REQUIRES mutexes over every declaration/definition. */
    std::map<std::string, std::vector<std::string>> requiresLocks;

    /** Names of std::atomic data members anywhere in the TU. */
    std::set<std::string> atomicFields;

    /** Bare function/method name -> spelled return type, merged over
     *  every declaration in the TU (first declaration wins on
     *  conflict; ctors/dtors excluded). Lets the lifetime pack see
     *  that `materializeGraph` returns an owning `Graph` even though
     *  the definition lives in another file. */
    std::map<std::string, std::string> returnTypes;

    /** Method names declared `... GRAL_LIFETIMEBOUND` after their
     *  parameter list anywhere in the TU: the result refers into the
     *  receiver object. */
    std::set<std::string> lifetimeboundMethods;

    /** Function names with at least one GRAL_LIFETIMEBOUND
     *  parameter: the result refers into that argument. */
    std::set<std::string> lifetimeboundParamFns;

    /** Merged fields of @p className (empty vector when unknown). */
    const std::vector<const FieldSymbol *> &
    fieldsOf(const std::string &className) const;

    /** GRAL_REQUIRES mutexes of Class::name (normalized). */
    std::vector<std::string>
    requiresOf(const std::string &className,
               const std::string &name) const;
};

/** Merge @p local with the symbols of its transitive includes. */
TuView buildTuView(const FileSymbols &local,
                   const std::vector<const FileSymbols *> &deps);

/** A loop body inside the token stream. */
struct LoopRange
{
    /** First token of the body (inside the braces, or the first token
     *  of a brace-less statement body). */
    std::size_t begin = 0;
    /** One past the last body token. */
    std::size_t end = 0;
};

/**
 * Token ranges of every for/while/do loop body in [begin, end).
 * Nested loops yield nested (overlapping) ranges.
 */
std::vector<LoopRange> loopBodies(const TokenStream &ts,
                                  std::size_t begin, std::size_t end);

/** One call site: identifier followed by '('. */
struct CallSite
{
    std::string name;       // callee identifier
    std::size_t tokenIndex; // index of the identifier token
    /** True when spelled `recv.name(` / `recv->name(`. */
    bool isMemberCall = false;
};

/**
 * Call sites in [begin, end). Declarations that merely look like
 * calls can slip through; consumers resolve names against the symbol
 * table, so unknown names are ignored.
 */
std::vector<CallSite> callSites(const TokenStream &ts,
                                std::size_t begin, std::size_t end);

/**
 * Normalize a mutex/guard expression for comparison: strips
 * `this->`, '&' and whitespace, so `GRAL_GUARDED_BY(mutex_)` matches
 * `std::lock_guard lock(this->mutex_)`.
 */
std::string normalizeGuardExpr(std::string_view expr);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_SYMBOLS_H
