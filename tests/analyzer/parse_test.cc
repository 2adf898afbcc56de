// Token-tree tests: tokenization kinds, byte-exact line/column
// bookkeeping, and mismatch-tolerant bracket matching.

#include "analyzer/parse.h"

#include <gtest/gtest.h>

#include "analyzer/lexer.h"

namespace gral::analyzer
{
namespace
{

TokenStream
tokens(const std::string &text)
{
    return tokenize(lexCpp(text));
}

const Token &
at(const TokenStream &ts, std::size_t index)
{
    EXPECT_LT(index, ts.tokens.size());
    return ts.tokens[index];
}

TEST(ParseTest, TokenKindsAndText)
{
    TokenStream ts = tokens("int x = 42 + f(y);");
    ASSERT_EQ(ts.tokens.size(), 10u);
    EXPECT_EQ(at(ts, 0).kind, TokenKind::Identifier);
    EXPECT_EQ(at(ts, 0).text, "int");
    EXPECT_EQ(at(ts, 1).text, "x");
    EXPECT_EQ(at(ts, 2).kind, TokenKind::Punct);
    EXPECT_EQ(at(ts, 3).kind, TokenKind::Number);
    EXPECT_EQ(at(ts, 3).text, "42");
    EXPECT_EQ(at(ts, 5).text, "f");
    EXPECT_EQ(at(ts, 6).text, "(");
    EXPECT_EQ(at(ts, 9).text, ";");
}

TEST(ParseTest, TokensSurviveMoveAssignmentOfShortText)
{
    // Under 16 bytes the text fits std::string's inline buffer, so a
    // moved string copies its bytes; the token views must still
    // point at live bytes after the stream is move-assigned.
    TokenStream ts = tokens("long unrelated filler text;");
    ts = tokens("int x = 1;");
    ASSERT_EQ(ts.tokens.size(), 5u);
    const char *expected[] = {"int", "x", "=", "1", ";"};
    for (std::size_t i = 0; i < ts.tokens.size(); ++i)
        EXPECT_EQ(at(ts, i).text, expected[i]) << "token " << i;
    EXPECT_TRUE(ts.isIdent(0, "int"));
}

TEST(ParseTest, LineAndColumnAreByteExact)
{
    TokenStream ts = tokens("int a;\n  foo bar;\n");
    // "foo" starts at line 2, column 3 (1-based).
    ASSERT_GE(ts.tokens.size(), 5u);
    EXPECT_EQ(at(ts, 3).text, "foo");
    EXPECT_EQ(at(ts, 3).line, 2);
    EXPECT_EQ(at(ts, 3).column, 3);
    EXPECT_EQ(at(ts, 4).text, "bar");
    EXPECT_EQ(at(ts, 4).column, 7);
}

TEST(ParseTest, CommentsAndStringsDoNotShiftColumns)
{
    // The lexer blanks comments/string contents but keeps the byte
    // shape, so tokens after them keep their true columns.
    TokenStream ts = tokens("f(/* note */ \"hi\", x);\n");
    // Tokens: f ( "" , x ) ;   — the string literal is one token.
    ASSERT_EQ(ts.tokens.size(), 7u);
    EXPECT_EQ(at(ts, 2).kind, TokenKind::String);
    EXPECT_EQ(at(ts, 4).text, "x");
    EXPECT_EQ(at(ts, 4).column, 20);
}

TEST(ParseTest, MultiCharPunctuators)
{
    TokenStream ts = tokens("a <<= b; c->d; e <=> f; g ... ;");
    std::vector<std::string> puncts;
    for (const Token &token : ts.tokens)
        if (token.kind == TokenKind::Punct)
            puncts.push_back(std::string(token.text));
    EXPECT_EQ(puncts[0], "<<=");
    ASSERT_GE(puncts.size(), 4u);
    bool sawArrow = false, sawSpaceship = false, sawEllipsis = false;
    for (const std::string &p : puncts) {
        sawArrow |= p == "->";
        sawSpaceship |= p == "<=>";
        sawEllipsis |= p == "...";
    }
    EXPECT_TRUE(sawArrow);
    EXPECT_TRUE(sawSpaceship);
    EXPECT_TRUE(sawEllipsis);
}

TEST(ParseTest, NumberWithExponentSign)
{
    TokenStream ts = tokens("double d = 1.5e-3;");
    ASSERT_GE(ts.tokens.size(), 4u);
    EXPECT_EQ(at(ts, 3).kind, TokenKind::Number);
    EXPECT_EQ(at(ts, 3).text, "1.5e-3");
}

TEST(ParseTest, BracketPartnersMatch)
{
    TokenStream ts = tokens("f(a[1], {2});");
    std::size_t open = 0;
    for (std::size_t i = 0; i < ts.tokens.size(); ++i)
        if (ts.tokens[i].text == "(")
            open = i;
    std::size_t close = ts.partner(open);
    EXPECT_EQ(ts.tokens[close].text, ")");
    // The matching ')' is the one right before ';'.
    EXPECT_EQ(ts.tokens[close + 1].text, ";");
    // Inner brackets partner too, nested inside the parens.
    for (std::size_t i = open; i < close; ++i) {
        if (ts.tokens[i].text == "[")
            EXPECT_EQ(ts.tokens[ts.partner(i)].text, "]");
        if (ts.tokens[i].text == "{")
            EXPECT_EQ(ts.tokens[ts.partner(i)].text, "}");
    }
}

TEST(ParseTest, MismatchedBracketsDoNotCrash)
{
    TokenStream ts = tokens("void f() { if (x { g(); }\n");
    // '(' before 'x' never closes; matching must still terminate and
    // leave the stream usable: every reported partner is in range,
    // and the innermost '{' still pairs with the final '}'.
    EXPECT_GT(ts.tokens.size(), 0u);
    for (std::size_t i = 0; i < ts.tokens.size(); ++i)
        EXPECT_LE(ts.partner(i), ts.tokens.size());
    std::size_t brace = ts.tokens.size();
    for (std::size_t i = 0; i < ts.tokens.size(); ++i)
        if (ts.is(i, "{"))
            brace = i; // innermost (last) open brace
    ASSERT_LT(brace, ts.tokens.size());
    std::size_t close = ts.partner(brace);
    ASSERT_LT(close, ts.tokens.size());
    EXPECT_EQ(ts.tokens[close].text, "}");
}

TEST(ParseTest, IsHelpers)
{
    TokenStream ts = tokens("a.b();");
    EXPECT_TRUE(ts.isIdent(0, "a"));
    EXPECT_TRUE(ts.is(1, "."));
    EXPECT_FALSE(ts.isIdent(1, "."));
    EXPECT_FALSE(ts.is(100, ";")); // out of range is safe
}

} // namespace
} // namespace gral::analyzer
