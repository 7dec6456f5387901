//===- ir/Fingerprint.h - Content fingerprints for IR ----------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 64-bit content fingerprints for expressions, statements, and
/// enclosing loop-bound chains. Fingerprints hash variable and array
/// *names* (the hashName each symbol-table entry keeps) rather than
/// numeric ids, so the fingerprint of a statement survives a
/// print -> edit -> re-parse round trip even when the edit shifts every
/// id after the insertion point. This is what makes them usable as
/// re-analysis reuse keys across program versions: two references with
/// equal fingerprints denote structurally identical subscripts under
/// structurally identical bound chains, and therefore build identical
/// dependence problems (analysis/Builder.cpp derives columns, symbolic
/// allocation and exactness purely from that structure).
///
/// Fingerprints are computed on the program as analyzed — i.e. *after*
/// the prepass, for the analyzer's uses — so cosmetic differences the
/// prepass removes do not split reuse classes.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_IR_FINGERPRINT_H
#define EDDA_IR_FINGERPRINT_H

#include "ir/Expr.h"
#include "ir/Program.h"

#include <cstdint>
#include <span>
#include <vector>

namespace edda {

/// Fingerprint of one expression tree. Variable leaves hash as
/// (kind, name); array reads hash the array name plus each subscript.
uint64_t fingerprintExpr(const Program &P, const Expr *E);

/// Fingerprint of one array access: the array *name* plus each
/// subscript expression, exactly as an ArrayRead expression node over
/// the same subscripts would hash.
uint64_t fingerprintArrayAccess(const Program &P, unsigned ArrayId,
                                std::span<const Expr *const> Subscripts);

/// Fingerprint of an enclosing loop chain (outermost first): for each
/// loop, the induction-variable name, the lo/hi bound expressions and
/// the step, chained in nesting order. The *pair* of bounds is hashed
/// per level, so two chains that swap lo/hi between levels do not
/// collide. emptyLoopChain() is the
/// fingerprint of no loops, and extendLoopChain(P, Chain, L) that of the
/// chain \p Chain with loop \p L nested inside it, so a walk carries the
/// fingerprint of its enclosing loops as a running prefix.
uint64_t emptyLoopChain();
uint64_t extendLoopChain(const Program &P, uint64_t Chain, const LoopStmt &L);

/// Fingerprint of one statement: an assignment hashes its left-hand
/// side (scalar name, or array name + subscripts) and right-hand side;
/// a loop hashes its header (variable name, bounds, step) plus every
/// body statement in order.
uint64_t fingerprintStmt(const Program &P, const Stmt &S);

} // namespace edda

#endif // EDDA_IR_FINGERPRINT_H
