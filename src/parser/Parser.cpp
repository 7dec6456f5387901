//===- parser/Parser.cpp - LoopLang parser --------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"

#include <algorithm>
#include <initializer_list>

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
      : Lex(Source), SourceBytes(Source.size()) {
    Lex.next(Cur);
  }

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
  /// Parentheses, unary minus signs and subscripts open around the
  /// current token.
  unsigned ExprDepth = 0;

  bool check(TokenKind Kind) const { return Cur.Kind == Kind; }

  /// Moves to the next token; at the end of the input, stays on Eof.
  void advance() {
    if (Cur.Kind != TokenKind::Eof)
      Lex.next(Cur);
  }

  bool accept(TokenKind Kind) {
    if (!check(Kind))
      return false;
    advance();
    return true;
  }

  bool expect(TokenKind Kind, const char *Context) {
    if (accept(Kind))
      return true;
    errorExpected(Kind, Context);
    return false;
  }

  // The diagnostic helpers are kept out of line, so that the recursive
  // parse functions hold no message temporaries: their frame size is
  // what sets how much stack the nesting bounds allow a parse to use.

  /// Reports the concatenation of \p Parts at the current token.
  [[gnu::noinline, gnu::cold]] void
  error(std::initializer_list<std::string_view> Parts) {
    std::string Message;
    for (std::string_view Part : Parts)
      Message += Part;
    Diags.push_back(Diagnostic{Cur.Line, Cur.Column, std::move(Message)});
  }

  /// Reports "<Prefix><N><Suffix>" at the current token.
  [[gnu::noinline, gnu::cold]] void error(std::string_view Prefix, size_t N,
                                          std::string_view Suffix) {
    error({Prefix, std::to_string(N), Suffix});
  }

  [[gnu::noinline, gnu::cold]] void errorRank(unsigned ArrayId,
                                              size_t Given) {
    const ArrayInfo &A = Prog.array(ArrayId);
    error({"array '", A.Name, "' has rank ", std::to_string(A.rank()),
           " but ", std::to_string(Given), " subscripts were given"});
  }

  [[gnu::noinline, gnu::cold]] void errorExpected(TokenKind Kind,
                                                  const char *Context) {
    error({"expected ", tokenKindName(Kind), " ", Context, ", found ",
           tokenKindName(Cur.Kind)});
  }

  /// Opens one level of expression nesting, or reports that there are
  /// already MaxExprNesting levels open. Every successful call is paired
  /// with a leaveNesting() once the nested expression is parsed.
  bool enterNesting() {
    if (ExprDepth == MaxExprNesting) {
      error("expression nests deeper than ", MaxExprNesting, " levels");
      return false;
    }
    ++ExprDepth;
    return true;
  }
  void leaveNesting() { --ExprDepth; }

  /// \p E, or null with a diagnostic when its tree is too tall.
  const Expr *bounded(const Expr *E) {
    if (E->height() <= MaxExprHeight)
      return E;
    error("expression tree is taller than ", MaxExprHeight, " levels");
    return nullptr;
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
    error({"expected program name"});
    Result.Diags = std::move(Diags);
    return Result;
  }
  Prog = Program(std::string(Cur.Text));
  advance();
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
        error({"expected array name"});
        return false;
      }
      const std::string_view Name = Cur.Text;
      const uint64_t Hash = Cur.NameHash;
      advance();
      if (Prog.lookupSymbol(Name, Hash)) {
        error({"redeclaration of '", Name, "'"});
        return false;
      }
      std::vector<int64_t> Extents;
      while (accept(TokenKind::LBracket)) {
        if (!check(TokenKind::Integer)) {
          error({"expected integer array extent"});
          return false;
        }
        Extents.push_back(Cur.IntValue);
        advance();
        if (!expect(TokenKind::RBracket, "after array extent"))
          return false;
      }
      if (Extents.empty()) {
        error({"array '", Name, "' needs at least one dimension"});
        return false;
      }
      Prog.addArray(std::string(Name), std::move(Extents), Hash);
      continue;
    }
    if (accept(TokenKind::KwRead)) {
      if (!check(TokenKind::Identifier)) {
        error({"expected variable name after 'read'"});
        return false;
      }
      const std::string_view Name = Cur.Text;
      const uint64_t Hash = Cur.NameHash;
      advance();
      if (Prog.lookupSymbol(Name, Hash)) {
        error({"redeclaration of '", Name, "'"});
        return false;
      }
      Prog.addVar(std::string(Name), VarKind::Symbolic, Hash);
      continue;
    }
    if (accept(TokenKind::KwParam)) {
      if (!check(TokenKind::Identifier)) {
        error({"expected variable name after 'param'"});
        return false;
      }
      const std::string_view Name = Cur.Text;
      const uint64_t Hash = Cur.NameHash;
      advance();
      if (Prog.lookupSymbol(Name, Hash)) {
        error({"redeclaration of '", Name, "'"});
        return false;
      }
      if (!expect(TokenKind::Equals, "in param declaration"))
        return false;
      bool Negative = accept(TokenKind::Minus);
      if (!check(TokenKind::Integer)) {
        error({"expected integer param value"});
        return false;
      }
      int64_t Value = Cur.IntValue;
      advance();
      if (Negative)
        Value = -Value;
      unsigned Id = Prog.addVar(std::string(Name), VarKind::Scalar, Hash);
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
      error({"expected a statement, found ", tokenKindName(Cur.Kind)});
      return false;
    }
    if (!S)
      return false;
    Out.push_back(std::move(S));
  }
}

StmtPtr ParserImpl::parseLoop() {
  if (ActiveLoopVars.size() == MaxLoopDepth) {
    error("loops nest deeper than ", MaxLoopDepth, " levels");
    return nullptr;
  }
  advance(); // 'for'
  if (!check(TokenKind::Identifier)) {
    error({"expected loop variable name"});
    return nullptr;
  }
  const std::string_view Name = Cur.Text;
  const uint64_t Hash = Cur.NameHash;
  advance();
  const Symbol Sym = Prog.lookupSymbol(Name, Hash);
  if (Sym.Kind == SymbolKind::Array) {
    error({"'", Name, "' is an array, not a loop variable"});
    return nullptr;
  }
  unsigned VarId;
  if (Sym.Kind == SymbolKind::Var) {
    if (Prog.var(Sym.Id).Kind != VarKind::Loop) {
      error({"'", Name, "' is not usable as a loop variable"});
      return nullptr;
    }
    if (std::find(ActiveLoopVars.begin(), ActiveLoopVars.end(), Sym.Id) !=
        ActiveLoopVars.end()) {
      error({"loop variable '", Name, "' reused by an enclosing loop"});
      return nullptr;
    }
    VarId = Sym.Id;
  } else {
    VarId = Prog.addVar(std::string(Name), VarKind::Loop, Hash);
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
    error({"array reads are not allowed in loop bounds"});
    return nullptr;
  }

  int64_t Step = 1;
  if (accept(TokenKind::KwStep)) {
    bool Negative = accept(TokenKind::Minus);
    if (!check(TokenKind::Integer)) {
      error({"expected integer loop step"});
      return nullptr;
    }
    Step = Cur.IntValue;
    advance();
    if (Negative)
      Step = -Step;
    if (Step == 0) {
      error({"loop step must be nonzero"});
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
  const std::string_view Name = Cur.Text;
  const uint64_t Hash = Cur.NameHash;
  advance();
  const Symbol Sym = Prog.lookupSymbol(Name, Hash);

  if (Sym.Kind == SymbolKind::Array) {
    std::optional<size_t> First = parseSubscripts(Sym.Id);
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
    return std::make_unique<AssignStmt>(Sym.Id, std::move(Subs), Rhs);
  }

  unsigned VarId;
  if (Sym.Kind == SymbolKind::Var) {
    const VarKind Kind = Prog.var(Sym.Id).Kind;
    if (Kind == VarKind::Loop &&
        std::find(ActiveLoopVars.begin(), ActiveLoopVars.end(), Sym.Id) !=
            ActiveLoopVars.end()) {
      error({"assignment to active loop variable '", Name, "'"});
      return nullptr;
    }
    if (Kind == VarKind::Symbolic) {
      error({"assignment to symbolic variable '", Name, "'"});
      return nullptr;
    }
    VarId = Sym.Id;
  } else {
    VarId = Prog.addVar(std::string(Name), VarKind::Scalar, Hash);
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
    if (!enterNesting())
      return Fail();
    const Expr *Sub = parseExpr();
    leaveNesting();
    if (!Sub)
      return Fail();
    SubStack.push_back(Sub);
    if (!expect(TokenKind::RBracket, "after subscript"))
      return Fail();
  }
  const size_t Given = SubStack.size() - First;
  if (Given != Prog.array(ArrayId).rank()) {
    errorRank(ArrayId, Given);
    return Fail();
  }
  return First;
}

const Expr *ParserImpl::parseExpr() {
  const Expr *Lhs = parseTerm();
  if (!Lhs)
    return nullptr;
  while (true) {
    // The chain is left-associative and built in this loop, so its
    // height is bounded here, not by the recursion.
    if (accept(TokenKind::Plus)) {
      const Expr *Rhs = parseTerm();
      if (!Rhs)
        return nullptr;
      Lhs = bounded(Prog.exprs().makeAdd(Lhs, Rhs));
    } else if (accept(TokenKind::Minus)) {
      const Expr *Rhs = parseTerm();
      if (!Rhs)
        return nullptr;
      Lhs = bounded(Prog.exprs().makeSub(Lhs, Rhs));
    } else {
      return Lhs;
    }
    if (!Lhs)
      return nullptr;
  }
}

const Expr *ParserImpl::parseTerm() {
  const Expr *Lhs = parseUnary();
  while (Lhs && accept(TokenKind::Star)) {
    const Expr *Rhs = parseUnary();
    if (!Rhs)
      return nullptr;
    Lhs = bounded(Prog.exprs().makeMul(Lhs, Rhs));
  }
  return Lhs;
}

const Expr *ParserImpl::parseUnary() {
  if (accept(TokenKind::Minus)) {
    if (!enterNesting())
      return nullptr;
    const Expr *Operand = parseUnary();
    leaveNesting();
    if (!Operand)
      return nullptr;
    return bounded(Prog.exprs().makeNeg(Operand));
  }
  return parsePrimary();
}

const Expr *ParserImpl::parsePrimary() {
  if (check(TokenKind::Integer)) {
    const int64_t Value = Cur.IntValue;
    advance();
    return Prog.exprs().makeConst(Value);
  }

  if (accept(TokenKind::LParen)) {
    if (!enterNesting())
      return nullptr;
    const Expr *Inner = parseExpr();
    leaveNesting();
    if (!Inner)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close the parenthesis"))
      return nullptr;
    return Inner;
  }

  if (!check(TokenKind::Identifier)) {
    error({"expected an expression, found ", tokenKindName(Cur.Kind)});
    return nullptr;
  }
  const Symbol Sym = Prog.lookupSymbol(Cur.Text, Cur.NameHash);
  if (!Sym) {
    error({"use of undeclared variable '", Cur.Text, "'"});
    return nullptr;
  }
  advance();
  if (Sym.Kind == SymbolKind::Var)
    return Prog.exprs().makeVar(Sym.Id);

  std::optional<size_t> First = parseSubscripts(Sym.Id);
  if (!First)
    return nullptr;
  const Expr *Read = Prog.exprs().makeArrayRead(
      Sym.Id, std::span<const Expr *const>(SubStack).subspan(*First));
  SubStack.resize(*First);
  return bounded(Read);
}

} // namespace

ParseResult edda::parseProgram(std::string_view Source) {
  return ParserImpl(Source).run();
}
