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
/// The lexer classifies each byte with one 256-entry table, skips blank
/// runs and comments in tight loops, derives a token's column from the
/// offset of its line's start, and hashes each identifier (hashName) in
/// the same pass that scans it, so the parser resolves the name with one
/// symbol-table probe and never hashes it again.
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
  unsigned Line = 1;   ///< 1-based.
  unsigned Column = 1; ///< 1-based, in bytes.
  std::string_view Text;
  int64_t IntValue = 0; ///< Set for Integer tokens.
  /// hashName(Text), set for Identifier and keyword tokens.
  uint64_t NameHash = 0;
};

/// Streams the tokens of a LoopLang source buffer, one per next() call,
/// ending in an Eof token. The source string must outlive the tokens.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// The next token. Invalid characters and out-of-range integers produce
  /// Invalid tokens; the parser reports them. At the end of the input
  /// every call returns Eof.
  Token next() {
    Token Tok;
    next(Tok);
    return Tok;
  }

  /// The same, written over \p Tok in place: the parser's lookahead is
  /// never copied.
  void next(Token &Tok);

private:
  std::string_view Source;
  size_t Pos = 0;
  unsigned Line = 1;
  /// Offset of the current line's first byte.
  size_t LineStart = 0;
};

} // namespace edda

#endif // EDDA_PARSER_LEXER_H
