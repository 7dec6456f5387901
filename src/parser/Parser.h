//===- parser/Parser.h - LoopLang parser -----------------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for LoopLang. Grammar:
///
/// \code
///   program  ::= 'program' IDENT decl* stmt* 'end'
///   decl     ::= 'array' IDENT ('[' INT ']')+
///              | 'read' IDENT
///              | 'param' IDENT '=' INT
///   stmt     ::= 'for' IDENT '=' expr 'to' expr ('step' sint)? 'do'
///                    stmt* 'end'
///              | lvalue '=' expr
///   lvalue   ::= IDENT ('[' expr ']')*
///   expr     ::= term (('+'|'-') term)*
///   term     ::= unary ('*' unary)*
///   unary    ::= '-' unary | primary
///   primary  ::= INT | IDENT ('[' expr ']')* | '(' expr ')'
/// \endcode
///
/// 'read n' declares a symbolic (loop-invariant unknown) variable; 'param
/// n = 100' declares a scalar initialized to a constant (which constant
/// propagation folds). Loop variables are declared by their loop and may
/// be reused by disjoint loops, as in Fortran.
///
/// Fixed language bounds keep the parser's recursion and the trees it
/// builds within a thread's stack: an expression tree is at most
/// MaxExprHeight (ir/Expr.h) levels tall, parentheses, unary minus signs
/// and subscripts nest at most MaxExprNesting deep, and loops nest at
/// most MaxLoopDepth deep. A program past a bound gets a diagnostic.
/// Left-associative chains ("i + i + ... + i") are parsed by iteration,
/// not recursion, so it is their tree height that is bounded. The
/// prepass binds no scalar to a tree taller than MaxExprHeight, so the
/// trees it rewrites stay within a small multiple of it (see
/// opt/ScalarBindings.h).
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_PARSER_PARSER_H
#define EDDA_PARSER_PARSER_H

#include "ir/Program.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace edda {

/// Most parentheses, unary minus signs and subscripts that may be open
/// at once. Program::print wraps every operator node in parentheses
/// (and a negation in a minus sign too), so any tree within
/// MaxExprHeight prints within this bound and parses back.
constexpr unsigned MaxExprNesting = 2 * MaxExprHeight;

/// Most loops a statement may be nested in.
constexpr unsigned MaxLoopDepth = 256;

/// One parse diagnostic, positioned at a source line/column.
struct Diagnostic {
  unsigned Line;
  unsigned Column;
  std::string Message;

  /// "line:col: message" rendering.
  std::string str() const;
};

/// Outcome of a parse: a program when successful, plus any diagnostics.
struct ParseResult {
  std::optional<Program> Prog;
  std::vector<Diagnostic> Diags;

  bool succeeded() const { return Prog.has_value(); }
};

/// Parses LoopLang source text. Never throws; errors are reported in the
/// result's diagnostics and leave Prog empty.
ParseResult parseProgram(std::string_view Source);

} // namespace edda

#endif // EDDA_PARSER_PARSER_H
