//===- parser/Parser.cpp - LoopLang parser --------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"

#include <algorithm>

using namespace edda;

std::string Diagnostic::str() const {
  return std::to_string(Line) + ":" + std::to_string(Column) + ": " +
         Message;
}

namespace {

/// Bound on the arena space a parse reserves up front.
constexpr size_t MaxReserveBytes = size_t(64) << 20;

/// Recursive-descent parser state. Parsing bails out after the first
/// error in a statement but attempts no fancy recovery: LoopLang inputs
/// are machine-generated or tiny. The parser pulls tokens from the lexer
/// as it goes and never looks more than one token ahead.
class ParserImpl {
public:
  explicit ParserImpl(std::string_view Source)
      : Lex(Source), Cur(Lex.next()), SourceBytes(Source.size()) {}

  ParseResult run();

private:
  Lexer Lex;
  /// The one token of lookahead.
  Token Cur;
  size_t SourceBytes;
  Program Prog;
  std::vector<Diagnostic> Diags;
  /// Loop variables currently live on the loop stack (to reject nested
  /// reuse of the same induction variable).
  std::vector<unsigned> ActiveLoopVars;
  /// Subscripts parsed but not yet made into a node or statement; the
  /// innermost array access's are on top.
  std::vector<const Expr *> SubStack;

  const Token &peek() const { return Cur; }
  Token get() {
    Token Tok = Cur;
    if (Cur.Kind != TokenKind::Eof)
      Cur = Lex.next();
    return Tok;
  }

  bool check(TokenKind Kind) const { return peek().Kind == Kind; }

  bool accept(TokenKind Kind) {
    if (!check(Kind))
      return false;
    get();
    return true;
  }

  bool expect(TokenKind Kind, const char *Context) {
    if (accept(Kind))
      return true;
    error(std::string("expected ") + tokenKindName(Kind) + " " + Context +
          ", found " + tokenKindName(peek().Kind));
    return false;
  }

  void error(std::string Message) {
    Diags.push_back(
        Diagnostic{peek().Line, peek().Column, std::move(Message)});
  }

  void errorAt(const Token &Tok, std::string Message) {
    Diags.push_back(Diagnostic{Tok.Line, Tok.Column, std::move(Message)});
  }

  bool parseDecls();
  bool parseStmts(std::vector<StmtPtr> &Out);
  StmtPtr parseLoop();
  StmtPtr parseAssign();
  const Expr *parseExpr();
  const Expr *parseTerm();
  const Expr *parseUnary();
  const Expr *parsePrimary();
  /// Parses '[expr]...' subscripts for array \p ArrayId onto SubStack,
  /// checking rank, and returns where they start. On an error, SubStack
  /// is left as it was found.
  std::optional<size_t> parseSubscripts(unsigned ArrayId);
};

ParseResult ParserImpl::run() {
  ParseResult Result;
  if (!expect(TokenKind::KwProgram, "at start of program")) {
    Result.Diags = std::move(Diags);
    return Result;
  }
  if (!check(TokenKind::Identifier)) {
    error("expected program name");
    Result.Diags = std::move(Diags);
    return Result;
  }
  Prog = Program(std::string(get().Text));
  // Room for the whole parse in one chunk: the suite's programs take
  // 1.4-3 bytes of nodes per byte of source. The chunk is sized like the
  // former batch lexer's token vector (about 15 bytes per source byte),
  // which keeps the allocator's footprint steady from one program to the
  // next: the first such chunk freed lifts glibc's mmap and trim
  // thresholds, so the analysis that follows reuses heap pages instead
  // of faulting in fresh ones. Pages no node touches cost address space,
  // not memory.
  Prog.exprs().reserve(std::min(16 * SourceBytes, MaxReserveBytes));

  if (!parseDecls() || !parseStmts(Prog.body())) {
    Result.Diags = std::move(Diags);
    return Result;
  }
  if (!expect(TokenKind::KwEnd, "to close the program") ||
      !expect(TokenKind::Eof, "after 'end'")) {
    Result.Diags = std::move(Diags);
    return Result;
  }
  Result.Prog = std::move(Prog);
  Result.Diags = std::move(Diags);
  return Result;
}

bool ParserImpl::parseDecls() {
  while (true) {
    if (accept(TokenKind::KwArray)) {
      if (!check(TokenKind::Identifier)) {
        error("expected array name");
        return false;
      }
      std::string_view Name = get().Text;
      if (Prog.lookupArray(Name) || Prog.lookupVar(Name)) {
        error("redeclaration of '" + std::string(Name) + "'");
        return false;
      }
      std::vector<int64_t> Extents;
      while (accept(TokenKind::LBracket)) {
        if (!check(TokenKind::Integer)) {
          error("expected integer array extent");
          return false;
        }
        Extents.push_back(get().IntValue);
        if (!expect(TokenKind::RBracket, "after array extent"))
          return false;
      }
      if (Extents.empty()) {
        error("array '" + std::string(Name) +
              "' needs at least one dimension");
        return false;
      }
      Prog.addArray(std::string(Name), std::move(Extents));
      continue;
    }
    if (accept(TokenKind::KwRead)) {
      if (!check(TokenKind::Identifier)) {
        error("expected variable name after 'read'");
        return false;
      }
      std::string_view Name = get().Text;
      if (Prog.lookupArray(Name) || Prog.lookupVar(Name)) {
        error("redeclaration of '" + std::string(Name) + "'");
        return false;
      }
      Prog.addVar(std::string(Name), VarKind::Symbolic);
      continue;
    }
    if (accept(TokenKind::KwParam)) {
      if (!check(TokenKind::Identifier)) {
        error("expected variable name after 'param'");
        return false;
      }
      std::string_view Name = get().Text;
      if (Prog.lookupArray(Name) || Prog.lookupVar(Name)) {
        error("redeclaration of '" + std::string(Name) + "'");
        return false;
      }
      if (!expect(TokenKind::Equals, "in param declaration"))
        return false;
      bool Negative = accept(TokenKind::Minus);
      if (!check(TokenKind::Integer)) {
        error("expected integer param value");
        return false;
      }
      int64_t Value = get().IntValue;
      if (Negative)
        Value = -Value;
      unsigned Id = Prog.addVar(std::string(Name), VarKind::Scalar);
      // A param is sugar for an initializing scalar assignment; constant
      // propagation folds it away.
      Prog.body().push_back(
          std::make_unique<AssignStmt>(Id, Prog.exprs().makeConst(Value)));
      continue;
    }
    return true;
  }
}

bool ParserImpl::parseStmts(std::vector<StmtPtr> &Out) {
  while (true) {
    if (check(TokenKind::KwEnd) || check(TokenKind::Eof))
      return true;
    StmtPtr S;
    if (check(TokenKind::KwFor))
      S = parseLoop();
    else if (check(TokenKind::Identifier))
      S = parseAssign();
    else {
      error(std::string("expected a statement, found ") +
            tokenKindName(peek().Kind));
      return false;
    }
    if (!S)
      return false;
    Out.push_back(std::move(S));
  }
}

StmtPtr ParserImpl::parseLoop() {
  expect(TokenKind::KwFor, "at loop start");
  if (!check(TokenKind::Identifier)) {
    error("expected loop variable name");
    return nullptr;
  }
  std::string_view Name = get().Text;
  if (Prog.lookupArray(Name)) {
    error("'" + std::string(Name) + "' is an array, not a loop variable");
    return nullptr;
  }
  unsigned VarId;
  if (std::optional<unsigned> Existing = Prog.lookupVar(Name)) {
    if (Prog.var(*Existing).Kind != VarKind::Loop) {
      error("'" + std::string(Name) + "' is not usable as a loop variable");
      return nullptr;
    }
    if (std::find(ActiveLoopVars.begin(), ActiveLoopVars.end(),
                  *Existing) != ActiveLoopVars.end()) {
      error("loop variable '" + std::string(Name) +
            "' reused by an enclosing loop");
      return nullptr;
    }
    VarId = *Existing;
  } else {
    VarId = Prog.addVar(std::string(Name), VarKind::Loop);
  }

  if (!expect(TokenKind::Equals, "after loop variable"))
    return nullptr;
  const Expr *Lo = parseExpr();
  if (!Lo)
    return nullptr;
  if (!expect(TokenKind::KwTo, "between loop bounds"))
    return nullptr;
  const Expr *Hi = parseExpr();
  if (!Hi)
    return nullptr;
  if (Lo->containsArrayRead() || Hi->containsArrayRead()) {
    error("array reads are not allowed in loop bounds");
    return nullptr;
  }

  int64_t Step = 1;
  if (accept(TokenKind::KwStep)) {
    bool Negative = accept(TokenKind::Minus);
    if (!check(TokenKind::Integer)) {
      error("expected integer loop step");
      return nullptr;
    }
    Step = get().IntValue;
    if (Negative)
      Step = -Step;
    if (Step == 0) {
      error("loop step must be nonzero");
      return nullptr;
    }
  }
  if (!expect(TokenKind::KwDo, "after loop header"))
    return nullptr;

  auto Loop = std::make_unique<LoopStmt>(VarId, Lo, Hi, Step);
  ActiveLoopVars.push_back(VarId);
  bool BodyOk = parseStmts(Loop->body());
  ActiveLoopVars.pop_back();
  if (!BodyOk)
    return nullptr;
  if (!expect(TokenKind::KwEnd, "to close the loop"))
    return nullptr;
  return Loop;
}

StmtPtr ParserImpl::parseAssign() {
  std::string_view Name = get().Text;

  if (std::optional<unsigned> ArrayId = Prog.lookupArray(Name)) {
    std::optional<size_t> First = parseSubscripts(*ArrayId);
    if (!First)
      return nullptr;
    std::vector<const Expr *> Subs(SubStack.begin() + *First,
                                   SubStack.end());
    SubStack.resize(*First);
    if (!expect(TokenKind::Equals, "in assignment"))
      return nullptr;
    const Expr *Rhs = parseExpr();
    if (!Rhs)
      return nullptr;
    return std::make_unique<AssignStmt>(*ArrayId, std::move(Subs), Rhs);
  }

  unsigned VarId;
  if (std::optional<unsigned> Existing = Prog.lookupVar(Name)) {
    if (Prog.var(*Existing).Kind == VarKind::Loop &&
        std::find(ActiveLoopVars.begin(), ActiveLoopVars.end(),
                  *Existing) != ActiveLoopVars.end()) {
      error("assignment to active loop variable '" + std::string(Name) +
            "'");
      return nullptr;
    }
    if (Prog.var(*Existing).Kind == VarKind::Symbolic) {
      error("assignment to symbolic variable '" + std::string(Name) + "'");
      return nullptr;
    }
    VarId = *Existing;
  } else {
    VarId = Prog.addVar(std::string(Name), VarKind::Scalar);
  }

  if (!expect(TokenKind::Equals, "in assignment"))
    return nullptr;
  const Expr *Rhs = parseExpr();
  if (!Rhs)
    return nullptr;
  return std::make_unique<AssignStmt>(VarId, Rhs);
}

std::optional<size_t> ParserImpl::parseSubscripts(unsigned ArrayId) {
  const size_t First = SubStack.size();
  auto Fail = [&] {
    SubStack.resize(First);
    return std::nullopt;
  };
  while (accept(TokenKind::LBracket)) {
    // A nested access's subscripts come and go above First.
    const Expr *Sub = parseExpr();
    if (!Sub)
      return Fail();
    SubStack.push_back(Sub);
    if (!expect(TokenKind::RBracket, "after subscript"))
      return Fail();
  }
  const size_t Given = SubStack.size() - First;
  unsigned Rank = Prog.array(ArrayId).rank();
  if (Given != Rank) {
    error("array '" + Prog.array(ArrayId).Name + "' has rank " +
          std::to_string(Rank) + " but " + std::to_string(Given) +
          " subscripts were given");
    return Fail();
  }
  return First;
}

const Expr *ParserImpl::parseExpr() {
  const Expr *Lhs = parseTerm();
  if (!Lhs)
    return nullptr;
  while (true) {
    if (accept(TokenKind::Plus)) {
      const Expr *Rhs = parseTerm();
      if (!Rhs)
        return nullptr;
      Lhs = Prog.exprs().makeAdd(Lhs, Rhs);
    } else if (accept(TokenKind::Minus)) {
      const Expr *Rhs = parseTerm();
      if (!Rhs)
        return nullptr;
      Lhs = Prog.exprs().makeSub(Lhs, Rhs);
    } else {
      return Lhs;
    }
  }
}

const Expr *ParserImpl::parseTerm() {
  const Expr *Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  while (accept(TokenKind::Star)) {
    const Expr *Rhs = parseUnary();
    if (!Rhs)
      return nullptr;
    Lhs = Prog.exprs().makeMul(Lhs, Rhs);
  }
  return Lhs;
}

const Expr *ParserImpl::parseUnary() {
  if (accept(TokenKind::Minus)) {
    const Expr *Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return Prog.exprs().makeNeg(Operand);
  }
  return parsePrimary();
}

const Expr *ParserImpl::parsePrimary() {
  if (check(TokenKind::Integer))
    return Prog.exprs().makeConst(get().IntValue);

  if (accept(TokenKind::LParen)) {
    const Expr *Inner = parseExpr();
    if (!Inner)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close the parenthesis"))
      return nullptr;
    return Inner;
  }

  if (!check(TokenKind::Identifier)) {
    error(std::string("expected an expression, found ") +
          tokenKindName(peek().Kind));
    return nullptr;
  }
  Token NameTok = get();
  std::string_view Name = NameTok.Text;

  if (std::optional<unsigned> ArrayId = Prog.lookupArray(Name)) {
    std::optional<size_t> First = parseSubscripts(*ArrayId);
    if (!First)
      return nullptr;
    const Expr *Read = Prog.exprs().makeArrayRead(
        *ArrayId, std::span<const Expr *const>(SubStack).subspan(*First));
    SubStack.resize(*First);
    return Read;
  }

  std::optional<unsigned> VarId = Prog.lookupVar(Name);
  if (!VarId) {
    errorAt(NameTok,
            "use of undeclared variable '" + std::string(Name) + "'");
    return nullptr;
  }
  return Prog.exprs().makeVar(*VarId);
}

} // namespace

ParseResult edda::parseProgram(std::string_view Source) {
  return ParserImpl(Source).run();
}
