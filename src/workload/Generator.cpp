//===- workload/Generator.cpp - Synthetic PERFECT Club --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "workload/Generator.h"

#include "ir/Program.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cmath>

using namespace edda;

const std::vector<ProgramProfile> &edda::perfectClubProfiles() {
  // Table 1 decision counts, Table 3 unique counts, Table 2
  // simple/improved ratios, and Table 7 - Table 5 symbolic deltas, all
  // transcribed from the paper.
  static const std::vector<ProgramProfile> Profiles = {
      {"AP", 6104, {229, 91, 613, 0, 0, 0}, {27, 0, 0, 0}, 1.45, 0, 6,
       16, 0},
      {"CS", 18520, {50, 0, 127, 15, 0, 0}, {14, 6, 0, 0}, 1.15, 0, 6,
       8, 5},
      {"LG", 2327, {6961, 0, 73, 0, 0, 0}, {23, 0, 0, 0}, 1.52, 3, 4, 0,
       0},
      {"LW", 1237, {54, 0, 34, 43, 0, 0}, {15, 2, 0, 0}, 1.06, 0, 0, 0,
       0},
      {"MT", 3785, {49, 0, 326, 0, 0, 0}, {14, 0, 0, 0}, 1.49, 0, 5, 0,
       0},
      {"NA", 3976, {45, 0, 679, 202, 1, 2}, {48, 11, 1, 1}, 1.14, 0, 7,
       45, 0},
      {"OC", 2739, {2, 7, 36, 0, 0, 0}, {5, 0, 0, 0}, 1.40, 0, 0, 1, 0},
      {"SD", 7607, {949, 0, 526, 17, 5, 12}, {36, 6, 3, 4}, 1.08, 0, 0,
       0, 0},
      {"SM", 2759, {1004, 98, 264, 0, 0, 0}, {8, 0, 0, 0}, 1.63, 0, 0,
       0, 0},
      {"SR", 3970, {1679, 0, 1290, 0, 0, 0}, {14, 0, 0, 0}, 1.45, 0, 7,
       1, 1},
      {"TF", 2020, {801, 6, 826, 0, 0, 0}, {20, 0, 0, 0}, 1.21, 0, 20,
       0, 0},
      {"TI", 484, {0, 0, 4, 42, 0, 0}, {3, 8, 0, 0}, 1.46, 1, 0, 0, 0},
      {"WS", 3884, {36, 182, 378, 4, 0, 160}, {35, 1, 0, 27}, 1.22, 0,
       0, 4, 0},
  };
  return Profiles;
}

namespace {

/// Loop bound sizes cycled through by the shape pools.
constexpr int64_t SizeList[] = {10, 20, 50, 100};
constexpr unsigned NumSizes = 4;

unsigned scaled(unsigned Count, double Scale) {
  if (Count == 0)
    return 0;
  double V = Count * Scale;
  return std::max<unsigned>(1, static_cast<unsigned>(std::lround(V)));
}

/// Emits source for the synthetic cases of one program.
class Emitter {
public:
  Emitter(const ProgramProfile &Profile, const GeneratorOptions &Opts)
      : Profile(Profile), Opts(Opts),
        Rng(Opts.Seed ^ hashVector({static_cast<int64_t>(
                            Profile.Name.empty() ? 0 : Profile.Name[0] +
                                                           Profile.Lines)})) {
  }

  std::string run() {
    // Decision targets -> case counts. Every non-constant template also
    // produces one self output-dependence problem; for the gcd template
    // that self problem is SVPC-decided, so the SVPC case budget shrinks
    // accordingly (see Generator.h).
    const DecisionTargets &T = Profile.Table1;
    unsigned GcdCases = scaled(T.Gcd, Opts.Scale);
    // FM cases mix the cross-nest variant ({Fm:1, Svpc:1} decisions)
    // with the in-nest variant ({Fm:2}), three to one, so a case
    // yields 1.25 FM decisions and spills 0.75 SVPC decisions.
    unsigned FmCases = T.Fm == 0 ? 0 : (T.Fm * 4 + 2) / 5;
    unsigned FmSvpcSpill = (FmCases * 3) / 4;
    unsigned SvpcDecisions = T.Svpc > T.Gcd + FmSvpcSpill
                                 ? T.Svpc - T.Gcd - FmSvpcSpill
                                 : 0;
    emitKind(Kind::Constant, scaled((T.Constant + 1) / 2, Opts.Scale),
             std::max(1u, scaled((T.Constant + 19) / 20, Opts.Scale)));
    emitKind(Kind::Gcd, GcdCases,
             poolFor(std::max(1u, T.Gcd / 10), GcdCases));
    emitKind(Kind::Svpc, scaled((SvpcDecisions + 1) / 2, Opts.Scale),
             poolFor(Profile.Unique.Svpc,
                     scaled((SvpcDecisions + 1) / 2, Opts.Scale)));
    emitKind(Kind::Acyclic, scaled((T.Acyclic + 1) / 2, Opts.Scale),
             poolFor(Profile.Unique.Acyclic,
                     scaled((T.Acyclic + 1) / 2, Opts.Scale)));
    emitKind(Kind::Residue, scaled((T.Residue + 1) / 2, Opts.Scale),
             poolFor(Profile.Unique.Residue,
                     scaled((T.Residue + 1) / 2, Opts.Scale)));
    emitKind(Kind::Fm, scaled(FmCases, Opts.Scale),
             poolFor(Profile.Unique.Fm, scaled(FmCases, Opts.Scale)));
    if (Opts.IncludeSymbolic) {
      emitKind(Kind::SymSvpc, scaled((Profile.SymSvpc + 1) / 2,
                                     Opts.Scale),
               std::max(1u, scaled((Profile.SymSvpc + 3) / 4,
                                   Opts.Scale)));
      emitKind(Kind::SymAcyclic, scaled((Profile.SymAcyclic + 1) / 2,
                                        Opts.Scale),
               std::max(1u, scaled((Profile.SymAcyclic + 3) / 4,
                                   Opts.Scale)));
      emitKind(Kind::SymResidue, scaled((Profile.SymResidue + 1) / 2,
                                        Opts.Scale),
               std::max(1u, scaled((Profile.SymResidue + 3) / 4,
                                   Opts.Scale)));
    }

    std::string Out = "program " + Profile.Name + "\n";
    Out += Decls;
    if (NeedSymbolic)
      Out += "  read n\n";
    Out += Body;
    Out += "end\n";
    return Out;
  }

private:
  enum class Kind {
    Constant,
    Gcd,
    Svpc,
    Acyclic,
    Residue,
    Fm,
    SymSvpc,
    SymAcyclic,
    SymResidue,
  };

  const ProgramProfile &Profile;
  const GeneratorOptions &Opts;
  SplitRng Rng;
  std::string Decls;
  std::string Body;
  unsigned NextArray = 0;
  bool NeedSymbolic = false;

  unsigned poolFor(unsigned UniqueTarget, unsigned Cases) {
    if (Cases == 0)
      return 0;
    unsigned Pool = std::max<unsigned>(
        1, static_cast<unsigned>(std::lround(UniqueTarget * Opts.Scale)));
    return std::min(Pool, Cases);
  }

  std::string newArray(unsigned Rank) {
    std::string Name = "a" + std::to_string(NextArray++);
    Decls += "  array " + Name;
    for (unsigned R = 0; R < Rank; ++R)
      Decls += "[1024]";
    Decls += "\n";
    return Name;
  }

  /// Number of unused-loop wrap variants for one shape. The Table 2
  /// simple/improved ratio is fractional (e.g. 1.45), so a matching
  /// fraction of the shapes get an extra variant.
  unsigned wrapVariants(unsigned Shape) const {
    double F = Profile.WrapFactor < 1.0 ? 1.0 : Profile.WrapFactor;
    unsigned Whole = static_cast<unsigned>(F);
    double Frac = F - Whole;
    // Deterministic per-shape coin weighted by the fractional part.
    unsigned Hash = (Shape * 2654435761u) % 100;
    return Whole + (Hash < Frac * 100.0 ? 1 : 0);
  }

  void emitKind(Kind K, unsigned Cases, unsigned Pool) {
    if (Cases == 0 || Pool == 0)
      return;
    for (unsigned C = 0; C < Cases; ++C) {
      unsigned Shape = C % Pool;
      unsigned Variant = (C / Pool) % wrapVariants(Shape);
      emitCase(K, Shape, Variant);
    }
  }

  /// Number of unused loops wrapped around this emission: the
  /// profile's constant depth plus one more for non-zero variants
  /// (whose bound also varies, so simple memo keys differ).
  unsigned wrapDepthFor(unsigned Variant) const {
    unsigned Depth = std::min(Profile.WrapDepth, Opts.MaxWrapDepth);
    return Depth + (Variant > 0 ? 1 : 0);
  }

  void open(unsigned Variant, std::string &Indent) {
    unsigned Depth = wrapDepthFor(Variant);
    for (unsigned D = 0; D < Depth; ++D) {
      std::string Var = D == 0 ? "w" : "w" + std::to_string(D + 1);
      int64_t Bound = D == 0 && Variant > 0 ? 10 * Variant : 10;
      Body += Indent + "for " + Var + " = 1 to " +
              std::to_string(Bound) + " do\n";
      Indent += "  ";
    }
  }
  void close(unsigned Variant, std::string &Indent) {
    unsigned Depth = wrapDepthFor(Variant);
    for (unsigned D = 0; D < Depth; ++D) {
      Indent.resize(Indent.size() - 2);
      Body += Indent + "end\n";
    }
  }

  void emitCase(Kind K, unsigned Shape, unsigned Variant) {
    std::string Indent = "  ";
    open(Variant, Indent);
    int64_t N = SizeList[Shape % NumSizes];
    int64_t S = Shape / NumSizes;
    switch (K) {
    case Kind::Constant: {
      // a[c1] = a[c2]: dependent when the constants collide.
      std::string A = newArray(1);
      int64_t C1 = 1 + static_cast<int64_t>(Shape);
      int64_t C2 = Shape % 4 == 0 ? C1 : C1 + 1 + (Shape % 7);
      Body += Indent + "for i = 1 to 10 do\n";
      Body += Indent + "  " + A + "[" + std::to_string(C1) + "] = " + A +
              "[" + std::to_string(C2) + "] + 1\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::Gcd: {
      if (Shape % 2 == 1) {
        // Coupled inconsistent subscripts: each dimension alone is
        // solvable (the traditional per-dimension GCD/Banerjee baseline
        // assumes dependence) but the joint system is not — the
        // extended GCD test proves independence. These cases carry the
        // section 7 accuracy gap.
        std::string A = newArray(2);
        int64_t C = 1 + Shape / 2;
        Body += Indent + "for i = 1 to 100 do\n";
        Body += Indent + "  " + A + "[i][i + " + std::to_string(C) +
                "] = " + A + "[i][i] + 1\n";
        Body += Indent + "end\n";
        break;
      }
      std::string A = newArray(1);
      // Fixed loop size: the template's self pairs then collapse to one
      // memoized SVPC problem, as real repeated references would.
      int64_t D = 2 * (Shape / 2) + 1; // odd: 2i never equals 2i' + D
      Body += Indent + "for i = 1 to 100 do\n";
      Body += Indent + "  " + A + "[2*i] = " + A + "[2*i + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::Svpc: {
      std::string A;
      if (Shape % 5 == 1) {
        // Coupled permutation subscripts (the paper's worked example):
        // still one variable per constraint after GCD preprocessing.
        A = newArray(2);
        int64_t C1 = 1 + S;
        int64_t C2 = C1 + (Shape % 2);
        Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
        Body += Indent + "  for j = 1 to " + std::to_string(N) + " do\n";
        Body += Indent + "    " + A + "[i][j] = " + A + "[j + " +
                std::to_string(C1) + "][i + " + std::to_string(C2) +
                "] + 1\n";
        Body += Indent + "  end\n";
        Body += Indent + "end\n";
      } else {
        A = newArray(1);
        // Mostly dependent small strides; every fifth shape is out of
        // range and independent.
        int64_t D = Shape % 5 == 4 ? N + 1 + S : 1 + S;
        Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
        Body += Indent + "  " + A + "[i + " + std::to_string(D) +
                "] = " + A + "[i] + 1\n";
        Body += Indent + "end\n";
      }
      break;
    }
    case Kind::Acyclic: {
      // Triangular nest: the j <= i bound is the multi-variable
      // constraint the Acyclic test eliminates.
      std::string A = newArray(1);
      int64_t D = Shape % 4 == 3 ? N + S : 1 + S % (N - 1);
      Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
      Body += Indent + "  for j = 1 to i do\n";
      Body += Indent + "    " + A + "[j] = " + A + "[j + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "  end\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::Residue: {
      // Banded nest: j in [i-B, i+B] creates a difference-constraint
      // cycle only the Loop Residue test untangles.
      std::string A = newArray(1);
      int64_t B = 2 + Shape % 3;
      int64_t D = Shape % 4 == 3 ? 2 * B + N + S : S % (2 * B + 1);
      Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
      Body += Indent + "  for j = i - " + std::to_string(B) + " to i + " +
              std::to_string(B) + " do\n";
      Body += Indent + "    " + A + "[j] = " + A + "[j + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "  end\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::Fm: {
      std::string A = newArray(1);
      if (Shape % 4 != 3) {
        // Cross-nest coupling with mixed coefficients (2 vs 3): after
        // GCD elimination the bounds become two-variable constraints
        // with unequal magnitudes, which only Fourier-Motzkin handles.
        // No common loops, so direction testing costs a single root
        // query — the common case in the paper's FM column.
        bool Indep = Shape % 8 >= 4;
        int64_t D = Indep ? 2 * N + 1 + S : 2 * (S % (N - 2));
        Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
        Body += Indent + "  " + A + "[2*i] = 1\n";
        Body += Indent + "end\n";
        Body += Indent + "for i2 = 1 to " + std::to_string(N) + " do\n";
        Body += Indent + "  for j2 = 1 to " + std::to_string(N) +
                " do\n";
        Body += Indent + "    s = s + " + A + "[i2 + 3*j2 + " +
                std::to_string(D) + "]\n";
        Body += Indent + "  end\n";
        Body += Indent + "end\n";
        break;
      }
      // Coupled i+j subscripts inside one nest: three-variable
      // constraints in both directions, refined over two common loops.
      int64_t D = Shape % 8 == 7 ? 2 * N - 1 + S : 1 + S % (2 * N - 2);
      Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
      Body += Indent + "  for j = 1 to " + std::to_string(N) + " do\n";
      Body += Indent + "    " + A + "[i + j] = " + A + "[i + j + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "  end\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::SymSvpc: {
      // The symbolic term cancels in the subscript difference.
      NeedSymbolic = true;
      std::string A = newArray(1);
      int64_t D = 1 + static_cast<int64_t>(Shape);
      Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
      Body += Indent + "  " + A + "[i + n] = " + A + "[i + n + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::SymAcyclic: {
      // Symbolic upper bound: i <= n is the one-directional
      // multi-variable constraint.
      NeedSymbolic = true;
      std::string A = newArray(1);
      int64_t D = 1 + static_cast<int64_t>(Shape);
      Body += Indent + "for i = 1 to n do\n";
      Body += Indent + "  " + A + "[i] = " + A + "[i + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "end\n";
      break;
    }
    case Kind::SymResidue: {
      // The paper's section 8 example: i + n vs i' + 2n + 1 leaves a
      // two-variable cycle between i and n.
      NeedSymbolic = true;
      std::string A = newArray(1);
      int64_t D = 1 + static_cast<int64_t>(Shape);
      Body += Indent + "for i = 1 to " + std::to_string(N) + " do\n";
      Body += Indent + "  " + A + "[i + n] = " + A + "[i + 2*n + " +
              std::to_string(D) + "] + 1\n";
      Body += Indent + "end\n";
      break;
    }
    }
    close(Variant, Indent);
  }
};

} // namespace

std::string edda::generateProgramSource(const ProgramProfile &Profile,
                                        const GeneratorOptions &Opts) {
  return Emitter(Profile, Opts).run();
}

std::vector<std::pair<std::string, std::string>>
edda::generatePerfectClubSuite(const GeneratorOptions &Opts) {
  std::vector<std::pair<std::string, std::string>> Suite;
  for (const ProgramProfile &Profile : perfectClubProfiles())
    Suite.push_back(
        {Profile.Name, generateProgramSource(Profile, Opts)});
  return Suite;
}

std::vector<std::pair<std::string, std::string>>
edda::generateTransformSuite() {
  std::vector<std::pair<std::string, std::string>> Suite;
  // Wavefront with an anti-diagonal recurrence: direction vector
  // (<, >). Interchange is illegal (the swap gives (>, <)) and the '>'
  // component blocks tiling, but skewing j by +i maps the vector to
  // (<, =), making the band fully permutable — the search's skew step
  // is the only way to improve this nest. (The classic follow-up
  // interchange of the skewed band needs min/max loop bounds the IR
  // cannot express, so the skew's payoff here is permutability, not an
  // outer parallel loop.)
  Suite.push_back({"wavefront_skew",
                   "program wavefront_skew\n"
                   "  array a[40][40]\n"
                   "  for i = 2 to 9 do\n"
                   "    for j = 1 to 8 do\n"
                   "      a[i][j] = a[i - 1][j + 1] + 1\n"
                   "    end\n"
                   "  end\n"
                   "end\n"});
  // Column recurrence: vector (<, =), so the i loop is carried and the
  // j loop is parallel but buried. Interchange hoists the parallel
  // loop to the outermost position.
  Suite.push_back({"interchange_col",
                   "program interchange_col\n"
                   "  array b[40][40]\n"
                   "  for i = 2 to 9 do\n"
                   "    for j = 1 to 8 do\n"
                   "      b[i][j] = b[i - 1][j] + 2\n"
                   "    end\n"
                   "  end\n"
                   "end\n"});
  // A serial recurrence and an independent update share one loop; the
  // recurrence serializes it. Distribution splits the statements into
  // two loops, one of which is parallel at the outermost level.
  Suite.push_back({"distribute_mixed",
                   "program distribute_mixed\n"
                   "  array c[40]\n"
                   "  array d[40]\n"
                   "  for i = 2 to 17 do\n"
                   "    c[i] = c[i - 1] + 1\n"
                   "    d[i] = d[i] * 2\n"
                   "  end\n"
                   "end\n"});
  // Two conformable parallel loops over the same array: fusion merges
  // them (producer feeds consumer forward), halving loop overhead.
  Suite.push_back({"fuse_pair",
                   "program fuse_pair\n"
                   "  array e[40]\n"
                   "  array f[40]\n"
                   "  for i = 1 to 16 do\n"
                   "    e[i] = i + 3\n"
                   "  end\n"
                   "  for j = 1 to 16 do\n"
                   "    f[j] = e[j] + 1\n"
                   "  end\n"
                   "end\n"});
  // Five-point-style stencil with vectors (<, =) and (=, <): the band
  // is fully permutable, so tiling is legal; neither loop can run
  // parallel, making the tiled (locality) schedule the best one.
  Suite.push_back({"tile_stencil",
                   "program tile_stencil\n"
                   "  array g[40][40]\n"
                   "  for i = 2 to 17 do\n"
                   "    for j = 2 to 17 do\n"
                   "      g[i][j] = g[i - 1][j] + g[i][j - 1]\n"
                   "    end\n"
                   "  end\n"
                   "end\n"});
  return Suite;
}

std::vector<std::pair<std::string, std::string>>
edda::generateKernelSuite() {
  std::vector<std::pair<std::string, std::string>> Suite;
  // Out-of-place 1D Jacobi: reads and writes touch different arrays,
  // so no dependence is carried and every width is safe.
  Suite.push_back({"stencil1d_jacobi",
                   "program stencil1d_jacobi\n"
                   "  array a[40]\n"
                   "  array b[40]\n"
                   "  for i = 1 to 30 do\n"
                   "    b[i] = a[i - 1] + a[i] + a[i + 1]\n"
                   "  end\n"
                   "end\n"});
  // In-place Gauss-Seidel sweep: flow dependence at distance 1 pins
  // the width to 1 and defeats every block partition.
  Suite.push_back({"stencil1d_seidel",
                   "program stencil1d_seidel\n"
                   "  array a[40]\n"
                   "  for i = 1 to 30 do\n"
                   "    a[i] = a[i - 1] + 1\n"
                   "  end\n"
                   "end\n"});
  // Wide shift: the only carried distance is exactly 8, so widths up
  // to 8 are safe and 9 is not. A distance-8 chain still crosses some
  // boundary of every block size, so no coarsening factor exists.
  Suite.push_back({"stencil1d_wide",
                   "program stencil1d_wide\n"
                   "  array a[60]\n"
                   "  array b[60]\n"
                   "  for i = 8 to 40 do\n"
                   "    a[i] = a[i - 8] + b[i]\n"
                   "  end\n"
                   "end\n"});
  // Out-of-place five-point 2D Jacobi: both loops dependence-free.
  Suite.push_back({"stencil2d_jacobi",
                   "program stencil2d_jacobi\n"
                   "  array a[20][20]\n"
                   "  array b[20][20]\n"
                   "  for i = 1 to 10 do\n"
                   "    for j = 1 to 10 do\n"
                   "      b[i][j] = a[i - 1][j] + a[i + 1][j] + a[i][j - 1]\n"
                   "                + a[i][j + 1] + a[i][j]\n"
                   "    end\n"
                   "  end\n"
                   "end\n"});
  // Radius-2 star stencil, also out of place.
  Suite.push_back({"stencil2d_star",
                   "program stencil2d_star\n"
                   "  array a[20][20]\n"
                   "  array b[20][20]\n"
                   "  for i = 2 to 10 do\n"
                   "    for j = 2 to 10 do\n"
                   "      b[i][j] = a[i - 2][j] + a[i + 2][j] + a[i][j - 2]\n"
                   "                + a[i][j + 2]\n"
                   "    end\n"
                   "  end\n"
                   "end\n"});
  // Diagonal wavefront: distance (1, 1). The outer loop carries it at
  // distance 1 (serial); with the outer iteration fixed the inner loop
  // is dependence-free.
  Suite.push_back({"wavefront",
                   "program wavefront\n"
                   "  array a[20][20]\n"
                   "  for i = 1 to 10 do\n"
                   "    for j = 1 to 10 do\n"
                   "      a[i][j] = a[i - 1][j - 1] + 1\n"
                   "    end\n"
                   "  end\n"
                   "end\n"});
  // Sum reduction: the scalar recurrence is reorder-safe, and the
  // array is read-only, so the loop is fully parallel.
  Suite.push_back({"reduction_sum",
                   "program reduction_sum\n"
                   "  array a[40]\n"
                   "  array b[4]\n"
                   "  s = 0\n"
                   "  for i = 1 to 30 do\n"
                   "    s = s + a[i]\n"
                   "  end\n"
                   "  b[1] = s\n"
                   "end\n"});
  // Dot product: same shape with two read-only operand arrays.
  Suite.push_back({"reduction_dot",
                   "program reduction_dot\n"
                   "  array a[40]\n"
                   "  array b[40]\n"
                   "  array c[4]\n"
                   "  s = 0\n"
                   "  for i = 1 to 30 do\n"
                   "    s = s + a[i] * b[i]\n"
                   "  end\n"
                   "  c[1] = s\n"
                   "end\n"});
  // Stride-2 in-place gather: even elements written, odd elements
  // read — the extended GCD test proves independence outright.
  Suite.push_back({"gather_stride",
                   "program gather_stride\n"
                   "  array a[60]\n"
                   "  for i = 1 to 14 do\n"
                   "    a[2 * i] = a[2 * i + 1] + 1\n"
                   "  end\n"
                   "end\n"});
  // Symbolic-offset gather into a separate array: the shifts exercise
  // symbolic subscript handling but carry nothing.
  Suite.push_back({"gather_symbolic",
                   "program gather_symbolic\n"
                   "  read n\n"
                   "  array a[80]\n"
                   "  array b[80]\n"
                   "  array c[80]\n"
                   "  for i = 20 to 40 do\n"
                   "    a[i] = b[i + n] + c[i - n]\n"
                   "  end\n"
                   "end\n"});
  // Symbolic-distance in-place scatter: the dependence distance is n,
  // which no test can pin — the client must stay serial.
  Suite.push_back({"scatter_symbolic",
                   "program scatter_symbolic\n"
                   "  read n\n"
                   "  array a[80]\n"
                   "  for i = 20 to 40 do\n"
                   "    a[i + n] = a[i] + 1\n"
                   "  end\n"
                   "end\n"});
  // Block-aligned stride-2 scatter: writes a[i], reads a[2i - 8]. The
  // carried pairs are (0,4) (2,5) (4,6) (6,7) (9,10) (10,12) (11,14)
  // — minimal distance 1 (no vector width), but every pair stays
  // inside one aligned block of 8, and every smaller block size is
  // crossed, so the minimal coarsening factor is exactly 8.
  Suite.push_back({"scatter_fold",
                   "program scatter_fold\n"
                   "  array a[40]\n"
                   "  for i = 0 to 15 do\n"
                   "    a[i] = a[2 * i - 8] + 1\n"
                   "  end\n"
                   "end\n"});
  // Privatizable temporary: dead across iterations, so per-lane copies
  // make any chunking safe; the arrays never conflict.
  Suite.push_back({"private_tmp",
                   "program private_tmp\n"
                   "  array a[40]\n"
                   "  array b[40]\n"
                   "  for i = 1 to 30 do\n"
                   "    t = a[i] * 2\n"
                   "    b[i] = t + 1\n"
                   "  end\n"
                   "end\n"});
  // Degenerate single-trip loop over a genuine recurrence shape: no
  // dependence can be carried, but the client reports width 1 — not
  // unbounded — mirroring the search's no-degenerate-parallel rule.
  Suite.push_back({"trip_one",
                   "program trip_one\n"
                   "  array a[20]\n"
                   "  for i = 5 to 5 do\n"
                   "    a[i] = a[i - 1] + 1\n"
                   "  end\n"
                   "end\n"});
  return Suite;
}

namespace {

/// Emits one unconstrained random program for the fuzzer.
class RandomEmitter {
public:
  RandomEmitter(SplitRng &Rng, const RandomProgramOptions &Opts)
      : Rng(Rng), Opts(Opts) {}

  std::string run() {
    unsigned NumArrays = 1 + Rng.below(std::max(1u, Opts.MaxArrays));
    for (unsigned A = 0; A < NumArrays; ++A)
      Ranks.push_back(1 + static_cast<unsigned>(Rng.below(2)));

    std::string Body;
    unsigned Stmts = 1 + Rng.below(std::max(1u, Opts.MaxTopStmts));
    for (unsigned S = 0; S < Stmts; ++S)
      Body += emitStmt(1);

    std::string Out = "program fuzz\n";
    for (unsigned A = 0; A < Ranks.size(); ++A) {
      Out += "  array a" + std::to_string(A);
      for (unsigned R = 0; R < Ranks[A]; ++R)
        Out += "[4096]";
      Out += "\n";
    }
    if (UsedSymbolic)
      Out += "  read n\n";
    Out += Body;
    Out += "end\n";
    return Out;
  }

private:
  SplitRng &Rng;
  const RandomProgramOptions &Opts;
  std::vector<unsigned> Ranks;
  std::vector<std::string> Scope; ///< In-scope loop variables.
  unsigned NextVar = 0;
  bool UsedSymbolic = false;

  int64_t smallConst() { return static_cast<int64_t>(Rng.below(7)) - 3; }

  /// Appends " + c" / " - c" to \p E (nothing for c == 0).
  static void addConst(std::string &E, int64_t C) {
    if (C > 0)
      E += " + " + std::to_string(C);
    else if (C < 0)
      E += " - " + std::to_string(-C);
  }

  /// A random affine expression over the in-scope loop variables (and
  /// occasionally the symbolic constant n).
  std::string affine() {
    std::string E;
    for (const std::string &Var : Scope) {
      if (Rng.below(100) >= 45)
        continue;
      int64_t C = 1 + static_cast<int64_t>(Rng.below(3));
      std::string Term =
          C == 1 ? Var : std::to_string(C) + "*" + Var;
      E += E.empty() ? Term : " + " + Term;
    }
    if (Opts.AllowSymbolic && Rng.below(100) < 15) {
      UsedSymbolic = true;
      int64_t C = 1 + static_cast<int64_t>(Rng.below(2));
      std::string Term = C == 1 ? std::string("n") : "2*n";
      E += E.empty() ? Term : " + " + Term;
    }
    if (E.empty())
      return std::to_string(1 + Rng.below(9));
    addConst(E, smallConst());
    return E;
  }

  std::string subscripts(unsigned Array) {
    std::string S;
    for (unsigned R = 0; R < Ranks[Array]; ++R)
      S += "[" + affine() + "]";
    return S;
  }

  std::string indent(unsigned Depth) {
    return std::string(2 * Depth, ' ');
  }

  std::string emitAssign(unsigned Depth) {
    unsigned Lhs = static_cast<unsigned>(Rng.below(Ranks.size()));
    if (Rng.below(100) < 12) {
      // Scalar accumulation reading an array (a read-only pair source).
      return indent(Depth) + "s = s + a" + std::to_string(Lhs) +
             subscripts(Lhs) + "\n";
    }
    unsigned Rhs = Rng.below(100) < 70
                       ? Lhs
                       : static_cast<unsigned>(Rng.below(Ranks.size()));
    return indent(Depth) + "a" + std::to_string(Lhs) +
           subscripts(Lhs) + " = a" + std::to_string(Rhs) +
           subscripts(Rhs) + " + 1\n";
  }

  std::string emitLoop(unsigned Depth) {
    std::string Var = "v" + std::to_string(NextVar++);
    int64_t MaxB = std::max<int64_t>(2, Opts.MaxBound);

    std::string Lo, Hi;
    unsigned Shape = static_cast<unsigned>(Rng.below(100));
    if (!Scope.empty() && Shape < 20) {
      // Triangular: couple the upper bound to an outer variable.
      const std::string &Outer = Scope[Rng.below(Scope.size())];
      Lo = "1";
      Hi = Outer;
      addConst(Hi, smallConst());
    } else if (!Scope.empty() && Shape < 35) {
      // Banded: a window around an outer variable.
      const std::string &Outer = Scope[Rng.below(Scope.size())];
      int64_t B = 1 + static_cast<int64_t>(Rng.below(3));
      Lo = Outer + " - " + std::to_string(B);
      Hi = Outer + " + " + std::to_string(B);
    } else if (Opts.AllowSymbolic && Shape < 47) {
      // Symbolic extent (the paper's section 8 shape).
      UsedSymbolic = true;
      Lo = "1";
      Hi = "n";
    } else if (Shape < 52) {
      // Degenerate: empty on its face.
      Lo = std::to_string(2 + Rng.below(3));
      Hi = "1";
    } else {
      int64_t L = 1 + static_cast<int64_t>(Rng.below(3));
      Lo = std::to_string(L);
      Hi = std::to_string(L + 1 +
                          static_cast<int64_t>(Rng.below(MaxB)));
    }

    std::string Out = indent(Depth) + "for " + Var + " = " + Lo +
                      " to " + Hi + " do\n";
    Scope.push_back(Var);
    unsigned BodyStmts = 1 + Rng.below(2);
    for (unsigned S = 0; S < BodyStmts; ++S)
      Out += emitStmt(Depth + 1);
    Scope.pop_back();
    Out += indent(Depth) + "end\n";
    return Out;
  }

  std::string emitStmt(unsigned Depth) {
    bool CanNest = Depth <= Opts.MaxDepth;
    if (CanNest && (Scope.empty() || Rng.below(100) < 55))
      return emitLoop(Depth);
    return emitAssign(Depth);
  }
};

} // namespace

std::string
edda::generateRandomProgram(SplitRng &Rng,
                            const RandomProgramOptions &Opts) {
  return RandomEmitter(Rng, Opts).run();
}

//===----------------------------------------------------------------------===//
// Random edits (incremental re-analysis)
//===----------------------------------------------------------------------===//

namespace {

/// Mutable edit sites: every assignment with its owning body (so
/// insert/delete can splice the statement list) and every loop.
struct EditSites {
  struct AssignSite {
    std::vector<StmtPtr> *ParentBody;
    size_t Index;
  };
  std::vector<AssignSite> Assigns;
  std::vector<LoopStmt *> Loops;
};

void collectEditSites(std::vector<StmtPtr> &Body, EditSites &Out) {
  for (size_t I = 0; I < Body.size(); ++I) {
    if (Body[I]->kind() == StmtKind::Loop) {
      LoopStmt &L = asLoop(*Body[I]);
      Out.Loops.push_back(&L);
      collectEditSites(L.body(), Out);
    } else {
      Out.Assigns.push_back({&Body, I});
    }
  }
}

} // namespace

std::string edda::applyRandomEdit(Program &Prog, SplitRng &Rng) {
  EditSites Sites;
  collectEditSites(Prog.body(), Sites);
  if (Sites.Assigns.empty())
    return "none (no assignments)";

  // Retry until a kind applies; every program with an assignment admits
  // at least the rhs tweak, so this terminates.
  for (;;) {
    unsigned Kind = static_cast<unsigned>(Rng.below(5));
    switch (Kind) {
    case 0: { // Left-hand-side subscript: sub -> sub + c.
      EditSites::AssignSite Site =
          Sites.Assigns[Rng.below(Sites.Assigns.size())];
      AssignStmt &A = asAssign(**(Site.ParentBody->begin() +
                                  static_cast<long>(Site.Index)));
      if (!A.isArrayLhs())
        continue;
      unsigned Dim = static_cast<unsigned>(
          Rng.below(A.lhsSubscripts().size()));
      int64_t C = 1 + static_cast<int64_t>(Rng.below(2));
      A.setLhsSubscript(Dim, Prog.exprs().makeAdd(A.lhsSubscripts()[Dim],
                                           Prog.exprs().makeConst(C)));
      return "subscript+" + std::to_string(C);
    }
    case 1: { // Right-hand side: rhs -> rhs + c (references untouched).
      EditSites::AssignSite Site =
          Sites.Assigns[Rng.below(Sites.Assigns.size())];
      AssignStmt &A = asAssign(**(Site.ParentBody->begin() +
                                  static_cast<long>(Site.Index)));
      int64_t C = 1 + static_cast<int64_t>(Rng.below(3));
      A.setRhs(Prog.exprs().makeAdd(A.rhs(), Prog.exprs().makeConst(C)));
      return "rhs+" + std::to_string(C);
    }
    case 2: { // Loop bound: lo or hi bumped by one.
      if (Sites.Loops.empty())
        continue;
      LoopStmt &L = *Sites.Loops[Rng.below(Sites.Loops.size())];
      if (Rng.below(2) == 0) {
        L.setLo(Prog.exprs().makeAdd(L.lo(), Prog.exprs().makeConst(1)));
        return "bound-lo+1";
      }
      L.setHi(Prog.exprs().makeAdd(L.hi(), Prog.exprs().makeConst(1)));
      return "bound-hi+1";
    }
    case 3: { // Insert a clone of an existing assignment.
      EditSites::AssignSite Site =
          Sites.Assigns[Rng.below(Sites.Assigns.size())];
      StmtPtr Clone = (*Site.ParentBody)[Site.Index]->clone();
      size_t At = Rng.below(Site.ParentBody->size() + 1);
      Site.ParentBody->insert(Site.ParentBody->begin() +
                                  static_cast<long>(At),
                              std::move(Clone));
      return "insert@" + std::to_string(At);
    }
    default: { // Delete an assignment (never the last in its body).
      EditSites::AssignSite Site =
          Sites.Assigns[Rng.below(Sites.Assigns.size())];
      if (Site.ParentBody->size() <= 1 || Sites.Assigns.size() <= 1)
        continue;
      Site.ParentBody->erase(Site.ParentBody->begin() +
                             static_cast<long>(Site.Index));
      return "delete@" + std::to_string(Site.Index);
    }
    }
  }
}
