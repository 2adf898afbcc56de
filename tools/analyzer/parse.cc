#include "analyzer/parse.h"

#include <cctype>
#include <memory>

namespace gral::analyzer
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 ||
           c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           c == '_';
}

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/** Longest operator/punctuator starting at @p i (>= 1 byte). */
std::size_t
punctLength(std::string_view text, std::size_t i)
{
    static constexpr std::string_view kThree[] = {
        "<<=", ">>=", "->*", "...", "<=>"};
    static constexpr std::string_view kTwo[] = {
        "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
        "&&", "||", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
        "##"};
    std::string_view rest = text.substr(i);
    for (std::string_view p : kThree)
        if (rest.substr(0, 3) == p)
            return 3;
    for (std::string_view p : kTwo)
        if (rest.substr(0, 2) == p)
            return 2;
    return 1;
}

} // namespace

TokenStream
tokenize(const LexedFile &lexed)
{
    TokenStream ts;
    ts.text = std::make_unique<const std::string>(lexed.stripped);
    const std::string &text = *ts.text;
    const std::size_t n = text.size();

    std::size_t i = 0;
    int line = 1;
    std::size_t lineStart = 0; // offset of the current line's first byte

    auto position = [&](std::size_t offset) {
        return static_cast<int>(offset - lineStart) + 1;
    };

    while (i < n) {
        char c = text[i];
        if (c == '\n') {
            ++line;
            lineStart = ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        Token token;
        token.offset = i;
        token.line = line;
        token.column = position(i);
        if (isIdentStart(c)) {
            std::size_t begin = i;
            while (i < n && isIdentChar(text[i]))
                ++i;
            token.kind = TokenKind::Identifier;
            token.text = std::string_view(text).substr(begin, i - begin);
        } else if (isDigit(c) ||
                   (c == '.' && i + 1 < n && isDigit(text[i + 1]))) {
            // pp-number: digits, idents, dots, and exponent signs.
            std::size_t begin = i;
            while (i < n &&
                   (isIdentChar(text[i]) || text[i] == '.' ||
                    ((text[i] == '+' || text[i] == '-') && i > begin &&
                     (text[i - 1] == 'e' || text[i - 1] == 'E' ||
                      text[i - 1] == 'p' || text[i - 1] == 'P'))))
                ++i;
            token.kind = TokenKind::Number;
            token.text = std::string_view(text).substr(begin, i - begin);
        } else if (c == '"' || c == '\'') {
            // The lexer blanked the contents but kept the delimiters;
            // scan to the matching close quote. A blanked raw string
            // can span newlines, so keep the line accounting exact.
            std::size_t begin = i++;
            while (i < n && text[i] != c) {
                if (text[i] == '\n') {
                    ++line;
                    lineStart = i + 1;
                }
                ++i;
            }
            if (i < n)
                ++i;
            token.kind =
                c == '"' ? TokenKind::String : TokenKind::CharLit;
            token.text = std::string_view(text).substr(begin, i - begin);
        } else {
            std::size_t len = punctLength(text, i);
            token.kind = TokenKind::Punct;
            token.text = std::string_view(text).substr(i, len);
            i += len;
        }
        ts.tokens.push_back(token);
    }

    // Bracket matching: one stack per kind is unnecessary — C++
    // bracket kinds nest properly in valid code, and on mismatch we
    // leave -1 rather than guessing.
    ts.match.assign(ts.tokens.size(), -1);
    std::vector<std::size_t> stack;
    for (std::size_t t = 0; t < ts.tokens.size(); ++t) {
        if (ts.tokens[t].kind != TokenKind::Punct ||
            ts.tokens[t].text.size() != 1)
            continue;
        char p = ts.tokens[t].text[0];
        if (p == '(' || p == '[' || p == '{') {
            stack.push_back(t);
        } else if (p == ')' || p == ']' || p == '}') {
            char want = p == ')' ? '(' : p == ']' ? '[' : '{';
            // Pop past unclosed openers of other kinds (mismatched
            // input, e.g. macro tricks) so one bad brace cannot
            // desync the whole file.
            while (!stack.empty() &&
                   ts.tokens[stack.back()].text[0] != want)
                stack.pop_back();
            if (!stack.empty()) {
                std::size_t open = stack.back();
                stack.pop_back();
                ts.match[open] = static_cast<int>(t);
                ts.match[t] = static_cast<int>(open);
            }
        }
    }
    return ts;
}

} // namespace gral::analyzer
