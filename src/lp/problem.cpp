#include "cinderella/lp/problem.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "cinderella/support/error.hpp"

namespace cinderella::lp {

LinearExpr LinearExpr::fromDense(const std::vector<double>& coeff) {
  LinearExpr expr;
  for (std::size_t v = 0; v < coeff.size(); ++v) {
    if (coeff[v] != 0.0) expr.terms_.push_back({static_cast<int>(v), coeff[v]});
  }
  return expr;
}

void LinearExpr::add(int var, double coeff) {
  CIN_REQUIRE(var >= 0);
  for (auto& t : terms_) {
    if (t.var == var) {
      t.coeff += coeff;
      return;
    }
  }
  terms_.push_back({var, coeff});
}

void LinearExpr::canonicalize() {
  std::erase_if(terms_, [](const Term& t) { return t.coeff == 0.0; });
  std::sort(terms_.begin(), terms_.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
}

double LinearExpr::foldIntoRow() {
  std::size_t kept = 0;
  for (const Term& t : terms_) {
    CIN_REQUIRE(t.var >= 0);
    if (kept > 0 && terms_[kept - 1].var == t.var) {
      terms_[kept - 1].coeff += t.coeff;
    } else {
      terms_[kept++] = t;
    }
  }
  terms_.resize(kept);
  return std::exchange(constant_, 0.0);
}

double LinearExpr::evaluate(const std::vector<double>& point) const {
  double value = constant_;
  for (const auto& t : terms_) {
    CIN_REQUIRE(static_cast<std::size_t>(t.var) < point.size());
    value += t.coeff * point[static_cast<std::size_t>(t.var)];
  }
  return value;
}

int LinearExpr::maxVar() const {
  int best = -1;
  for (const auto& t : terms_) best = std::max(best, t.var);
  return best;
}

const char* relationStr(Relation rel) {
  switch (rel) {
    case Relation::LessEq:
      return "<=";
    case Relation::GreaterEq:
      return ">=";
    case Relation::Equal:
      return "=";
  }
  return "?";
}

bool Constraint::satisfiedBy(const std::vector<double>& point,
                             double tol) const {
  const double lhs = expr.evaluate(point);
  switch (rel) {
    case Relation::LessEq:
      return lhs <= rhs + tol;
    case Relation::GreaterEq:
      return lhs >= rhs - tol;
    case Relation::Equal:
      return std::abs(lhs - rhs) <= tol;
  }
  return false;
}

int Problem::addVar(std::string name) {
  if (name.empty()) name = "v" + std::to_string(names_.size());
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

void Problem::ensureVars(int count) {
  while (numVars() < count) addVar();
}

void Problem::setObjective(LinearExpr expr, Sense sense) {
  expr.canonicalize();
  CIN_REQUIRE(expr.maxVar() < numVars());
  objective_ = std::move(expr);
  sense_ = sense;
}

void Problem::addConstraint(Constraint c) {
  c.expr.canonicalize();
  CIN_REQUIRE(c.expr.maxVar() < numVars());
  // Fold the expression constant into the right-hand side.
  c.rhs -= c.expr.foldIntoRow();
  constraints_.push_back(std::move(c));
}

void Problem::addConstraint(LinearExpr expr, Relation rel, double rhs) {
  addConstraint(Constraint{std::move(expr), rel, rhs});
}

bool Problem::isFeasiblePoint(const std::vector<double>& point,
                              double tol) const {
  if (point.size() != static_cast<std::size_t>(numVars())) return false;
  for (double v : point) {
    if (v < -tol) return false;
  }
  return std::all_of(
      constraints_.begin(), constraints_.end(),
      [&](const Constraint& c) { return c.satisfiedBy(point, tol); });
}

namespace {
void appendExpr(std::ostringstream& out, const LinearExpr& expr,
                const Problem& p) {
  bool first = true;
  for (const auto& t : expr.terms()) {
    if (!first) out << (t.coeff >= 0 ? " + " : " - ");
    const double mag = first ? t.coeff : std::abs(t.coeff);
    if (mag != 1.0) out << mag << "*";
    out << p.varName(t.var);
    first = false;
  }
  if (first) out << "0";
}
}  // namespace

std::string Problem::str() const {
  std::ostringstream out;
  out << (sense_ == Sense::Maximize ? "maximize " : "minimize ");
  appendExpr(out, objective_, *this);
  out << "\nsubject to\n";
  for (const auto& c : constraints_) {
    out << "  ";
    appendExpr(out, c.expr, *this);
    out << " " << relationStr(c.rel) << " " << c.rhs << "\n";
  }
  out << "  all variables >= 0\n";
  return out.str();
}

}  // namespace cinderella::lp
