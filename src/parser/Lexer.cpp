//===- parser/Lexer.cpp - LoopLang lexer ---------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/Hashing.h"

#include <array>
#include <cstring>

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

struct Keyword {
  std::string_view Text;
  TokenKind Kind;
};

constexpr Keyword Keywords[] = {
    {"program", TokenKind::KwProgram}, {"end", TokenKind::KwEnd},
    {"for", TokenKind::KwFor},         {"to", TokenKind::KwTo},
    {"step", TokenKind::KwStep},       {"do", TokenKind::KwDo},
    {"array", TokenKind::KwArray},     {"read", TokenKind::KwRead},
    {"param", TokenKind::KwParam}};

/// A word's slot in KeywordTable, from the hash the lexer computes while
/// scanning it; no two keywords share a slot.
constexpr size_t keywordSlot(uint64_t NameHash) { return (NameHash >> 3) & 15; }

constexpr std::array<Keyword, 16> makeKeywordTable() {
  std::array<Keyword, 16> Table{};
  for (const Keyword &K : Keywords)
    Table[keywordSlot(hashName(K.Text))] = K;
  return Table;
}

/// Each keyword in its slot; empty slots have empty text, which matches
/// no word.
constexpr std::array<Keyword, 16> KeywordTable = makeKeywordTable();

static_assert(
    [] {
      size_t Filled = 0;
      for (const Keyword &K : KeywordTable)
        Filled += !K.Text.empty();
      return Filled == std::size(Keywords);
    }(),
    "two keywords share a slot of KeywordTable");

/// Byte classes. LoopLang source is ASCII, and the lexer must not vary
/// with the C locale. A byte that is a token by itself (punctuation, or
/// any byte LoopLang does not use, which makes an Invalid token) has
/// class ClsSingle plus its token kind. Identifier and digit bytes come
/// first, so that "may continue an identifier" is one comparison.
enum ByteClass : uint8_t {
  ClsIdent,   ///< a-z, A-Z, '_'.
  ClsDigit,   ///< 0-9.
  ClsBlank,   ///< ' ', '\t', '\r'.
  ClsNewline, ///< '\n'.
  ClsComment, ///< '#'.
  ClsSingle,  ///< Plus a TokenKind: a one-byte token of that kind.
};

constexpr uint8_t singleByte(TokenKind Kind) {
  return ClsSingle + static_cast<uint8_t>(Kind);
}

constexpr std::array<uint8_t, 256> makeByteClasses() {
  std::array<uint8_t, 256> Classes{};
  for (uint8_t &Cls : Classes)
    Cls = singleByte(TokenKind::Invalid);
  for (int C = 'a'; C <= 'z'; ++C)
    Classes[C] = ClsIdent;
  for (int C = 'A'; C <= 'Z'; ++C)
    Classes[C] = ClsIdent;
  Classes['_'] = ClsIdent;
  for (int C = '0'; C <= '9'; ++C)
    Classes[C] = ClsDigit;
  Classes[' '] = Classes['\t'] = Classes['\r'] = ClsBlank;
  Classes['\n'] = ClsNewline;
  Classes['#'] = ClsComment;
  Classes['+'] = singleByte(TokenKind::Plus);
  Classes['-'] = singleByte(TokenKind::Minus);
  Classes['*'] = singleByte(TokenKind::Star);
  Classes['('] = singleByte(TokenKind::LParen);
  Classes[')'] = singleByte(TokenKind::RParen);
  Classes['['] = singleByte(TokenKind::LBracket);
  Classes[']'] = singleByte(TokenKind::RBracket);
  Classes['='] = singleByte(TokenKind::Equals);
  return Classes;
}

constexpr std::array<uint8_t, 256> ByteClasses = makeByteClasses();

uint8_t byteClass(char C) {
  return ByteClasses[static_cast<unsigned char>(C)];
}

} // namespace

void Lexer::next(Token &Tok) {
  const char *Data = Source.data();
  const size_t Size = Source.size();
  uint8_t Cls;
  // Skip blanks, newlines and '#' line comments.
  for (;; ++Pos) {
    if (Pos == Size) {
      Tok = Token();
      Tok.Line = Line;
      Tok.Column = static_cast<unsigned>(Pos - LineStart + 1);
      return; // Eof
    }
    Cls = byteClass(Data[Pos]);
    if (Cls == ClsBlank)
      continue;
    if (Cls == ClsNewline) {
      ++Line;
      LineStart = Pos + 1;
      continue;
    }
    if (Cls != ClsComment)
      break;
    // Resume on the comment's line end (the loop steps onto it), or at
    // the end of the input.
    const void *Newline = std::memchr(Data + Pos, '\n', Size - Pos);
    Pos = (Newline ? static_cast<const char *>(Newline) - Data : Size) - 1;
  }

  Tok.Line = Line;
  Tok.Column = static_cast<unsigned>(Pos - LineStart + 1);
  Tok.IntValue = 0;
  Tok.NameHash = 0;
  size_t End = Pos + 1;
  if (Cls == ClsIdent) {
    uint64_t Hash =
        extendNameHash(NameHashSeed, static_cast<unsigned char>(Data[Pos]));
    for (; End < Size && byteClass(Data[End]) <= ClsDigit; ++End)
      Hash = extendNameHash(Hash, static_cast<unsigned char>(Data[End]));
    const Keyword &K = KeywordTable[keywordSlot(Hash)];
    Tok.Kind = K.Text == std::string_view(Data + Pos, End - Pos)
                   ? K.Kind
                   : TokenKind::Identifier;
    Tok.NameHash = Hash;
  } else if (Cls == ClsDigit) {
    // Accumulate with overflow checks: the literal is valid exactly when
    // it is at most INT64_MAX, since the running value only grows.
    int64_t Value = Data[Pos] - '0';
    bool Overflow = false;
    for (; End < Size && byteClass(Data[End]) == ClsDigit; ++End)
      Overflow |= __builtin_mul_overflow(Value, 10, &Value) ||
                  __builtin_add_overflow(Value, Data[End] - '0', &Value);
    Tok.Kind = Overflow ? TokenKind::Invalid : TokenKind::Integer;
    Tok.IntValue = Overflow ? 0 : Value;
  } else {
    Tok.Kind = static_cast<TokenKind>(Cls - ClsSingle);
  }
  Tok.Text = std::string_view(Data + Pos, End - Pos);
  Pos = End;
}
