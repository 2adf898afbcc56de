/**
 * @file
 * Token stream and brace matching for gral-analyzer (the "parser"
 * layer between the byte-exact lexer and the symbol table).
 *
 * tokenize() runs over LexedFile.stripped — comments and literal
 * contents are already blanked, so the token stream is pure code plus
 * bare string/char delimiters — and produces tokens that carry their
 * byte offset, 1-based line and 1-based byte column in the original
 * file. Because the stripped text is byte-for-byte the same shape as
 * the input, those positions are exact in the source too; fix-its
 * (rules.h FixIt) are byte-offset edits computed directly from token
 * offsets.
 *
 * The stream also records bracket structure: for every `(`/`)`,
 * `[`/`]`, `{`/`}` token, match[i] is the index of its partner (-1
 * when unbalanced). Symbol-table construction (symbols.h) and the
 * scope-sensitive rule packs (concurrency, cost model) are all
 * written against this token-tree view instead of raw lines.
 */

#ifndef GRAL_ANALYZER_PARSE_H
#define GRAL_ANALYZER_PARSE_H

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer/lexer.h"

namespace gral::analyzer
{

enum class TokenKind : char
{
    Identifier, // [A-Za-z_][A-Za-z0-9_]*
    Number,     // numeric literal (incl. pp-numbers like 1e6, 0xff)
    String,     // "..." with contents blanked by the lexer
    CharLit,    // '...' with contents blanked by the lexer
    Punct,      // one operator/punctuator (see kPuncts in parse.cc)
};

/** One token of the stripped text. */
struct Token
{
    TokenKind kind = TokenKind::Punct;
    /** View into *TokenStream::text (the stripped bytes). */
    std::string_view text;
    /** Byte offset of the first byte in the file. */
    std::size_t offset = 0;
    int line = 1;   // 1-based
    int column = 1; // 1-based byte column
};

/**
 * Tokenized view of one file. Views point into @p text, which lives
 * on the heap so that they survive moving the stream: a moved
 * std::string keeps a short text in its inline buffer, and views
 * into it would dangle.
 */
struct TokenStream
{
    /** Copy of the stripped text the token views point into. */
    std::unique_ptr<const std::string> text;
    std::vector<Token> tokens;
    /** Partner index for bracket tokens, -1 otherwise/unbalanced. */
    std::vector<int> match;

    /** tokens[i].text == t (any kind)? Out-of-range is false. */
    bool
    is(std::size_t i, std::string_view t) const
    {
        return i < tokens.size() && tokens[i].text == t;
    }

    /** tokens[i] is the identifier @p t? */
    bool
    isIdent(std::size_t i, std::string_view t) const
    {
        return i < tokens.size() &&
               tokens[i].kind == TokenKind::Identifier &&
               tokens[i].text == t;
    }

    /** Partner of the bracket at @p i (tokens.size() when none). */
    std::size_t
    partner(std::size_t i) const
    {
        return i < match.size() && match[i] >= 0
                   ? static_cast<std::size_t>(match[i])
                   : tokens.size();
    }
};

/** Tokenize the stripped text of @p lexed. */
TokenStream tokenize(const LexedFile &lexed);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_PARSE_H
