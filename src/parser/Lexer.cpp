//===- parser/Lexer.cpp - LoopLang lexer ---------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/IntMath.h"


using namespace edda;

const char *edda::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::Integer:
    return "integer";
  case TokenKind::KwProgram:
    return "'program'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwTo:
    return "'to'";
  case TokenKind::KwStep:
    return "'step'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwArray:
    return "'array'";
  case TokenKind::KwRead:
    return "'read'";
  case TokenKind::KwParam:
    return "'param'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Equals:
    return "'='";
  case TokenKind::Invalid:
    return "invalid token";
  }
  return "unknown token";
}

namespace {

TokenKind keywordKind(std::string_view Word) {
  switch (Word.front()) {
  case 'a':
    return Word == "array" ? TokenKind::KwArray : TokenKind::Identifier;
  case 'd':
    return Word == "do" ? TokenKind::KwDo : TokenKind::Identifier;
  case 'e':
    return Word == "end" ? TokenKind::KwEnd : TokenKind::Identifier;
  case 'f':
    return Word == "for" ? TokenKind::KwFor : TokenKind::Identifier;
  case 'p':
    if (Word == "program")
      return TokenKind::KwProgram;
    return Word == "param" ? TokenKind::KwParam : TokenKind::Identifier;
  case 'r':
    return Word == "read" ? TokenKind::KwRead : TokenKind::Identifier;
  case 's':
    return Word == "step" ? TokenKind::KwStep : TokenKind::Identifier;
  case 't':
    return Word == "to" ? TokenKind::KwTo : TokenKind::Identifier;
  default:
    return TokenKind::Identifier;
  }
}

// ASCII classes: LoopLang source is ASCII, and the lexer must not vary
// with the C locale.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

TokenKind punctuationKind(char C) {
  switch (C) {
  case '+':
    return TokenKind::Plus;
  case '-':
    return TokenKind::Minus;
  case '*':
    return TokenKind::Star;
  case '(':
    return TokenKind::LParen;
  case ')':
    return TokenKind::RParen;
  case '[':
    return TokenKind::LBracket;
  case ']':
    return TokenKind::RBracket;
  case '=':
    return TokenKind::Equals;
  default:
    return TokenKind::Invalid;
  }
}

} // namespace

Token Lexer::next() {
  const size_t Size = Source.size();
  // Skip whitespace and '#' line comments.
  while (Pos < Size) {
    char C = Source[Pos];
    if (C == '\n') {
      ++Pos;
      ++Line;
      Column = 1;
    } else if (C == ' ' || C == '\t' || C == '\r') {
      ++Pos;
      ++Column;
    } else if (C == '#') {
      size_t End = Source.find('\n', Pos);
      End = End == std::string_view::npos ? Size : End;
      Column += static_cast<unsigned>(End - Pos);
      Pos = End;
    } else {
      break;
    }
  }

  Token Tok;
  Tok.Line = Line;
  Tok.Column = Column;
  if (Pos == Size)
    return Tok; // Eof

  char C = Source[Pos];
  size_t End = Pos + 1;
  if (isDigit(C)) {
    while (End < Size && isDigit(Source[End]))
      ++End;
    Tok.Kind = TokenKind::Integer;
    // Overflow-checked decimal accumulation.
    CheckedInt Value(0);
    for (size_t I = Pos; I < End; ++I)
      Value = Value * 10 + (Source[I] - '0');
    if (Value.valid())
      Tok.IntValue = Value.get();
    else
      Tok.Kind = TokenKind::Invalid;
  } else if (isIdentStart(C)) {
    while (End < Size && isIdentChar(Source[End]))
      ++End;
    Tok.Kind = keywordKind(Source.substr(Pos, End - Pos));
  } else {
    Tok.Kind = punctuationKind(C);
  }
  Tok.Text = Source.substr(Pos, End - Pos);
  Column += static_cast<unsigned>(End - Pos);
  Pos = End;
  return Tok;
}
