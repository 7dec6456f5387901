//===- tests/parser/LexerTest.cpp - Lexer tests ---------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/Hashing.h"
#include "support/IntMath.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <cctype>
#include <string>

using namespace edda;

namespace {

/// The batch lexer the streaming one replaced, kept as the reference: it
/// lexes a whole buffer into a vector, classifying characters with
/// <cctype> and tracking positions one character at a time.
std::vector<Token> referenceLexAll(std::string_view Source) {
  std::vector<Token> Tokens;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
  const size_t Size = Source.size();

  auto advance = [&](size_t Count) {
    for (size_t I = 0; I < Count; ++I) {
      if (Source[Pos + I] == '\n') {
        ++Line;
        Column = 1;
      } else {
        ++Column;
      }
    }
    Pos += Count;
  };

  while (Pos < Size) {
    char C = Source[Pos];
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance(1);
      continue;
    }
    if (C == '#') {
      size_t End = Pos;
      while (End < Size && Source[End] != '\n')
        ++End;
      advance(End - Pos);
      continue;
    }

    Token Tok;
    Tok.Line = Line;
    Tok.Column = Column;

    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t End = Pos;
      while (End < Size &&
             std::isdigit(static_cast<unsigned char>(Source[End])))
        ++End;
      Tok.Text = Source.substr(Pos, End - Pos);
      Tok.Kind = TokenKind::Integer;
      CheckedInt Value(0);
      for (char Digit : Tok.Text)
        Value = Value * 10 + (Digit - '0');
      if (Value.valid())
        Tok.IntValue = Value.get();
      else
        Tok.Kind = TokenKind::Invalid;
      advance(End - Pos);
      Tokens.push_back(Tok);
      continue;
    }

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t End = Pos;
      while (End < Size &&
             (std::isalnum(static_cast<unsigned char>(Source[End])) ||
              Source[End] == '_'))
        ++End;
      Tok.Text = Source.substr(Pos, End - Pos);
      static const std::pair<const char *, TokenKind> Keywords[] = {
          {"program", TokenKind::KwProgram}, {"end", TokenKind::KwEnd},
          {"for", TokenKind::KwFor},         {"to", TokenKind::KwTo},
          {"step", TokenKind::KwStep},       {"do", TokenKind::KwDo},
          {"array", TokenKind::KwArray},     {"read", TokenKind::KwRead},
          {"param", TokenKind::KwParam}};
      Tok.Kind = TokenKind::Identifier;
      for (const auto &[Word, Kind] : Keywords)
        if (Tok.Text == Word)
          Tok.Kind = Kind;
      advance(End - Pos);
      Tokens.push_back(Tok);
      continue;
    }

    Tok.Text = Source.substr(Pos, 1);
    const std::string_view Punct = "+-*()[]=";
    const TokenKind PunctKinds[] = {
        TokenKind::Plus,   TokenKind::Minus,    TokenKind::Star,
        TokenKind::LParen, TokenKind::RParen,   TokenKind::LBracket,
        TokenKind::RBracket, TokenKind::Equals};
    size_t At = Punct.find(C);
    Tok.Kind = At == std::string_view::npos ? TokenKind::Invalid
                                            : PunctKinds[At];
    advance(1);
    Tokens.push_back(Tok);
  }

  Token Eof;
  Eof.Kind = TokenKind::Eof;
  Eof.Line = Line;
  Eof.Column = Column;
  Tokens.push_back(Eof);
  return Tokens;
}

bool isWord(TokenKind Kind) {
  return Kind == TokenKind::Identifier ||
         (Kind >= TokenKind::KwProgram && Kind <= TokenKind::KwParam);
}

/// Lexer::next() yields the reference's tokens field for field, then
/// keeps yielding the same Eof. A word token carries its text's hash.
void expectStreamMatchesReference(std::string_view Source) {
  std::vector<Token> Want = referenceLexAll(Source);
  Lexer Lex(Source);
  for (size_t I = 0; I < Want.size() + 2; ++I) {
    const Token &W = Want[std::min(I, Want.size() - 1)];
    Token Got = Lex.next();
    ASSERT_EQ(Got.Kind, W.Kind) << "token " << I;
    ASSERT_EQ(Got.Text, W.Text) << "token " << I;
    ASSERT_EQ(Got.IntValue, W.IntValue) << "token " << I;
    ASSERT_EQ(Got.Line, W.Line) << "token " << I;
    ASSERT_EQ(Got.Column, W.Column) << "token " << I;
    ASSERT_EQ(Got.NameHash, isWord(Got.Kind) ? hashName(Got.Text) : 0)
        << "token " << I;
  }
}

/// A random run of blanks and line ends, \p Length bytes long.
std::string randomWhitespace(SplitRng &Rng, size_t Length) {
  static const char Blanks[] = {' ', ' ', ' ', '\t', '\r', '\n'};
  std::string Out;
  for (size_t I = 0; I < Length; ++I)
    Out += Blanks[Rng.below(sizeof(Blanks))];
  return Out;
}

/// A random identifier of \p Length bytes.
std::string randomIdentifier(SplitRng &Rng, size_t Length) {
  static const std::string_view Start =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
  static const std::string_view Rest =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789";
  std::string Out(1, Start[Rng.below(Start.size())]);
  while (Out.size() < Length)
    Out += Rest[Rng.below(Rest.size())];
  return Out;
}

/// One random fragment of lexer input: a word, a number, punctuation,
/// a comment or stray bytes. Fragments are joined by random whitespace,
/// so that adjacent ones also lex as one token (say "for" then "x").
std::string randomFragment(SplitRng &Rng) {
  static const char *const Words[] = {
      "program", "end",  "for",  "to",   "step", "do",    "array",
      "read",    "param", "forx", "endo", "fo",   "e",     "do1",
      "arrays",  "_end", "Param", "tox",  "step_", "programs"};
  static const char *const Numbers[] = {
      "0", "7", "0042", "9223372036854775807", "9223372036854775808",
      "18446744073709551616", "99999999999999999999999"};
  switch (Rng.below(8)) {
  case 0:
    return Words[Rng.below(std::size(Words))];
  case 1:
    return randomIdentifier(Rng, 1 + Rng.below(40));
  case 2:
    return Numbers[Rng.below(std::size(Numbers))];
  case 3:
    return std::to_string(Rng.below(1000000));
  case 4:
    return std::string(1, "+-*()[]="[Rng.below(8)]);
  case 5:
    return "#" + randomIdentifier(Rng, 1 + Rng.below(10)) + " x" +
           (Rng.below(2) ? "\n" : "");
  case 6:
    // Bytes LoopLang does not use, high-bit ones included.
    return std::string(1, "$@%\x80\xc3\xa9\xff\x01"[Rng.below(8)]);
  default:
    return randomWhitespace(Rng, Rng.below(21));
  }
}

/// Every input the tests below lex.
const char *const LexerTestInputs[] = {
    "",
    "program foo end",
    "forx",
    "program end for to step do array read param",
    "+ - * ( ) [ ] =",
    "0 42 12345",
    "99999999999999999999",
    "a # comment until end of line\nb",
    "ab cd\n  ef",
    "a $ b",
    "_foo bar_9",
};

/// Every token of \p Source, through the Eof token.
std::vector<Token> lexAll(std::string_view Source) {
  Lexer Lex(Source);
  std::vector<Token> Tokens;
  do
    Tokens.push_back(Lex.next());
  while (Tokens.back().Kind != TokenKind::Eof);
  return Tokens;
}

std::vector<TokenKind> kindsOf(std::string_view Source) {
  std::vector<Token> Tokens = lexAll(Source);
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  return Kinds;
}

} // namespace

TEST(Lexer, EmptyInput) {
  EXPECT_EQ(kindsOf(""), (std::vector<TokenKind>{TokenKind::Eof}));
}

TEST(Lexer, KeywordsAndIdentifiers) {
  EXPECT_EQ(kindsOf("program foo end"),
            (std::vector<TokenKind>{TokenKind::KwProgram,
                                    TokenKind::Identifier,
                                    TokenKind::KwEnd, TokenKind::Eof}));
  // Keywords are whole-word: "forx" is an identifier.
  EXPECT_EQ(kindsOf("forx")[0], TokenKind::Identifier);
}

TEST(Lexer, AllKeywords) {
  std::vector<TokenKind> K =
      kindsOf("program end for to step do array read param");
  EXPECT_EQ(K, (std::vector<TokenKind>{
                   TokenKind::KwProgram, TokenKind::KwEnd,
                   TokenKind::KwFor, TokenKind::KwTo, TokenKind::KwStep,
                   TokenKind::KwDo, TokenKind::KwArray, TokenKind::KwRead,
                   TokenKind::KwParam, TokenKind::Eof}));
}

TEST(Lexer, Punctuation) {
  EXPECT_EQ(kindsOf("+ - * ( ) [ ] ="),
            (std::vector<TokenKind>{
                TokenKind::Plus, TokenKind::Minus, TokenKind::Star,
                TokenKind::LParen, TokenKind::RParen, TokenKind::LBracket,
                TokenKind::RBracket, TokenKind::Equals, TokenKind::Eof}));
}

TEST(Lexer, IntegerValues) {
  std::vector<Token> Tokens = lexAll("0 42 12345");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 12345);
}

TEST(Lexer, IntegerOverflowIsInvalid) {
  std::vector<Token> Tokens = lexAll("99999999999999999999");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Invalid);
}

TEST(Lexer, CommentsSkipped) {
  std::vector<Token> Tokens =
      lexAll("a # comment until end of line\nb");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[1].Line, 2u);
}

TEST(Lexer, LineAndColumnTracking) {
  std::vector<Token> Tokens = lexAll("ab cd\n  ef");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[0].Column, 1u);
  EXPECT_EQ(Tokens[1].Column, 4u);
  EXPECT_EQ(Tokens[2].Line, 2u);
  EXPECT_EQ(Tokens[2].Column, 3u);
}

TEST(Lexer, InvalidCharacter) {
  std::vector<Token> Tokens = lexAll("a $ b");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Invalid);
}

TEST(Lexer, UnderscoreIdentifiers) {
  std::vector<Token> Tokens = lexAll("_foo bar_9");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text, "_foo");
  EXPECT_EQ(Tokens[1].Text, "bar_9");
}

TEST(Lexer, TokenKindNames) {
  EXPECT_STREQ(tokenKindName(TokenKind::KwFor), "'for'");
  EXPECT_STREQ(tokenKindName(TokenKind::Identifier), "identifier");
  EXPECT_STREQ(tokenKindName(TokenKind::Eof), "end of input");
}

TEST(Lexer, StreamMatchesBatchLexerOnTestInputs) {
  for (const char *Source : LexerTestInputs)
    expectStreamMatchesReference(Source);
  // Edge cases of the streaming loop: a comment at the end of input,
  // CRLF line ends, tabs and a lone high-bit byte.
  expectStreamMatchesReference("a # trailing");
  expectStreamMatchesReference("a\r\n\tb = 1\r\n");
  expectStreamMatchesReference("x\xc3\xa9y 7");
}

TEST(Lexer, StreamMatchesBatchLexerOnRandomInputs) {
  // Every whitespace run length from 0 to 20 between two words.
  SplitRng Rng(2323);
  for (size_t Length = 0; Length <= 20; ++Length)
    expectStreamMatchesReference("a" + randomWhitespace(Rng, Length) +
                                 "b7" + randomWhitespace(Rng, Length));
  // Identifiers of every length from 1 to 40, alone and in a statement.
  for (size_t Length = 1; Length <= 40; ++Length) {
    std::string Name = randomIdentifier(Rng, Length);
    expectStreamMatchesReference(Name);
    expectStreamMatchesReference(Name + "[" + Name + "+1] = 2");
  }
  // A comment at the very end of the input, with and without text.
  expectStreamMatchesReference("x = 1 #");
  expectStreamMatchesReference("x = 1\n  # last words");
  // Random sequences of fragments.
  for (unsigned Iter = 0; Iter < 2000; ++Iter) {
    std::string Source;
    for (uint64_t N = Rng.below(30); N > 0; --N) {
      Source += randomFragment(Rng);
      Source += randomWhitespace(Rng, Rng.below(3));
    }
    SCOPED_TRACE(Source);
    expectStreamMatchesReference(Source);
    if (testing::Test::HasFatalFailure())
      return;
  }
}

TEST(Lexer, StreamMatchesBatchLexerOnSuite) {
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    SCOPED_TRACE(Name);
    expectStreamMatchesReference(Source);
  }
}
