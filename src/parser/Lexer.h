//===- parser/Lexer.h - LoopLang lexer -------------------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for LoopLang, the mini-Fortran-like input language of the
/// dependence analyzer. Line comments start with '#'.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_PARSER_LEXER_H
#define EDDA_PARSER_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>

namespace edda {

/// Token kinds; keywords are distinguished from identifiers by the lexer.
enum class TokenKind {
  Eof,
  Identifier,
  Integer,
  // Keywords.
  KwProgram,
  KwEnd,
  KwFor,
  KwTo,
  KwStep,
  KwDo,
  KwArray,
  KwRead,
  KwParam,
  // Punctuation.
  Plus,
  Minus,
  Star,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Equals,
  // Anything unrecognized.
  Invalid,
};

/// Human-readable token kind name, for diagnostics.
const char *tokenKindName(TokenKind Kind);

/// One lexed token. Text points into the lexer's source buffer.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string_view Text;
  int64_t IntValue = 0; ///< Set for Integer tokens.
  unsigned Line = 1;    ///< 1-based.
  unsigned Column = 1;  ///< 1-based.
};

/// Streams the tokens of a LoopLang source buffer, one per next() call,
/// ending in an Eof token. The source string must outlive the tokens.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// The next token. Invalid characters and out-of-range integers produce
  /// Invalid tokens; the parser reports them. At the end of the input
  /// every call returns Eof.
  Token next();

private:
  std::string_view Source;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
};

} // namespace edda

#endif // EDDA_PARSER_LEXER_H
