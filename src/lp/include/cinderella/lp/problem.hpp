// Linear-program model shared by the LP and ILP solvers.
//
// All variables are continuous and implicitly bounded below by zero; this
// matches IPET, where every variable is an execution count.  Upper bounds
// are expressed as ordinary constraints.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cinderella::lp {

/// One `coeff * x[var]` term of a sparse linear expression.
struct Term {
  int var = 0;
  double coeff = 0.0;

  friend bool operator==(const Term&, const Term&) = default;
};

/// Sparse linear expression `sum(terms) + constant`.
class LinearExpr {
 public:
  LinearExpr() = default;

  /// sum(coeff[v] * x[v]) over the nonzero entries, in one pass (add()
  /// searches the terms already present).
  [[nodiscard]] static LinearExpr fromDense(const std::vector<double>& coeff);

  /// Adds `coeff * x[var]`; merges with an existing term for `var`.
  void add(int var, double coeff);
  void addConstant(double value) { constant_ += value; }

  /// Removes zero-coefficient terms and sorts by variable index.
  void canonicalize();

  /// After canonicalize(): sums each run of terms of one variable into
  /// one term, in order, keeping a zero sum.  Returns the constant and
  /// clears it, leaving the expression a constraint row keeps.
  double foldIntoRow();

  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }
  [[nodiscard]] double constant() const { return constant_; }

  /// Evaluates the expression at the given point.
  [[nodiscard]] double evaluate(const std::vector<double>& point) const;

  /// Largest variable index referenced, or -1 when empty.
  [[nodiscard]] int maxVar() const;

 private:
  std::vector<Term> terms_;
  double constant_ = 0.0;
};

enum class Relation { LessEq, GreaterEq, Equal };

[[nodiscard]] const char* relationStr(Relation rel);

/// Constraint `expr (<=|>=|=) rhs`.  The expression's constant is folded
/// into the right-hand side by the solver.
struct Constraint {
  LinearExpr expr;
  Relation rel = Relation::LessEq;
  double rhs = 0.0;

  /// True when `point` satisfies the constraint within `tol`.
  [[nodiscard]] bool satisfiedBy(const std::vector<double>& point,
                                 double tol = 1e-6) const;
};

enum class Sense { Maximize, Minimize };

/// A complete LP: objective, sense, and constraint rows over variables
/// x[0..numVars), each with implicit bound x >= 0.
class Problem {
 public:
  /// Creates a fresh variable and returns its index.
  int addVar(std::string name = {});

  /// Ensures at least `count` variables exist.
  void ensureVars(int count);

  void setObjective(LinearExpr expr, Sense sense);
  void addConstraint(Constraint c);
  void addConstraint(LinearExpr expr, Relation rel, double rhs);

  [[nodiscard]] int numVars() const { return static_cast<int>(names_.size()); }
  [[nodiscard]] const LinearExpr& objective() const { return objective_; }
  [[nodiscard]] Sense sense() const { return sense_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const std::string& varName(int var) const {
    return names_[static_cast<std::size_t>(var)];
  }

  /// True when `point` satisfies every constraint and all nonnegativity
  /// bounds within `tol`.
  [[nodiscard]] bool isFeasiblePoint(const std::vector<double>& point,
                                     double tol = 1e-6) const;

  /// Human-readable dump (for diagnostics and tests).
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> names_;
  LinearExpr objective_;
  Sense sense_ = Sense::Maximize;
  std::vector<Constraint> constraints_;
};

}  // namespace cinderella::lp
