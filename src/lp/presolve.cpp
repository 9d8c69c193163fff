#include "cinderella/lp/presolve.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "cinderella/lp/carrier_index.hpp"

namespace cinderella::lp {

namespace {

using Int128 = __int128;

/// Magnitude cap on every integer the reduction manipulates.  Well
/// inside the range where a double is exact, with headroom for sums, so
/// converting back to the double-based Problem never rounds.
constexpr long long kMaxMagnitude = 1LL << 52;

/// Fixpoint round cap: reductions left on the table after this many
/// rounds are a lost optimization, never a soundness problem.
constexpr int kMaxRounds = 25;

/// Substitution fill-in cap: a variable occurring in more rows than
/// this is not worth eliminating (each occurrence merges the pivot row
/// in).
constexpr std::size_t kMaxSubstOccurrences = 16;

/// True when `v` is an exact integer of safe magnitude; writes it out.
bool exactInt(double v, long long* out) {
  if (!(v >= -static_cast<double>(kMaxMagnitude) &&
        v <= static_cast<double>(kMaxMagnitude))) {
    return false;
  }
  if (v != std::nearbyint(v)) return false;
  *out = static_cast<long long>(v);
  return true;
}

bool fits(Int128 v) {
  return v >= -static_cast<Int128>(kMaxMagnitude) &&
         v <= static_cast<Int128>(kMaxMagnitude);
}

struct WTerm {
  int var = 0;
  long long coeff = 0;

  friend bool operator==(const WTerm&, const WTerm&) = default;
};

/// Working form of one exactly-integral constraint row.
struct WRow {
  std::vector<WTerm> terms;  // sorted by var, nonzero coefficients
  Relation rel = Relation::LessEq;
  long long rhs = 0;
  bool alive = true;
};

struct VarState {
  bool fixed = false;
  bool substituted = false;
  /// Appears in a row with non-integral data: exempt from every
  /// reduction (the row is kept verbatim and exact reasoning about the
  /// variable is impossible).
  bool untouchable = false;
  long long value = 0;  // when fixed
  bool hasUb = false;
  long long ub = 0;
  /// Row currently enforcing the upper bound (never removed as
  /// redundant while it is the active source).
  int ubSource = -1;

  [[nodiscard]] bool eliminated() const { return fixed || substituted; }
};

/// Activity bound that may be infinite in either direction.
struct Bound {
  bool finite = true;
  Int128 value = 0;
};

/// Coefficient of `var` in `terms` (sorted by var), or 0 when absent.
long long coeffOf(const std::vector<WTerm>& terms, int var) {
  const auto it = std::lower_bound(
      terms.begin(), terms.end(), var,
      [](const WTerm& t, int v) { return t.var < v; });
  return it != terms.end() && it->var == var ? it->coeff : 0;
}

/// Hash of a row's (rel, terms): equal rows hash equal.
std::uint64_t rowHash(const WRow& row) {
  std::uint64_t h = static_cast<std::uint64_t>(row.rel);
  auto mix = [&h](std::uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const WTerm& t : row.terms) {
    mix(static_cast<std::uint64_t>(t.var));
    mix(static_cast<std::uint64_t>(t.coeff));
  }
  return h;
}

/// Order in which duplicate groups are collapsed: relation, then terms
/// lexicographically by (var, coeff).  It decides which rows are gone
/// when a contradictory Equal group proves infeasibility.
bool rowLess(const WRow& a, const WRow& b) {
  if (a.rel != b.rel) return a.rel < b.rel;
  return std::lexicographical_compare(
      a.terms.begin(), a.terms.end(), b.terms.begin(), b.terms.end(),
      [](const WTerm& x, const WTerm& y) {
        return x.var != y.var ? x.var < y.var : x.coeff < y.coeff;
      });
}

}  // namespace

Reduction Reduction::reduce(const Problem& original,
                            const SimplexOptions& options) {
  (void)options;
  Reduction out;
  const int n = original.numVars();
  const auto& cons = original.constraints();
  const int m = static_cast<int>(cons.size());
  out.origVars_ = n;

  std::vector<WRow> rows(static_cast<std::size_t>(m));
  std::vector<char> integral(static_cast<std::size_t>(m), 1);
  std::vector<VarState> vars(static_cast<std::size_t>(n));

  // Parse every constraint into exact-integer working form; rows with
  // any non-integral number are kept verbatim and quarantine their
  // variables from all reductions.
  for (int i = 0; i < m; ++i) {
    const Constraint& c = cons[static_cast<std::size_t>(i)];
    WRow& row = rows[static_cast<std::size_t>(i)];
    row.rel = c.rel;
    bool ok = exactInt(c.rhs - c.expr.constant(), &row.rhs);
    if (ok) {
      row.terms.reserve(c.expr.terms().size());
      for (const Term& t : c.expr.terms()) {
        long long coeff = 0;
        if (t.var < 0 || t.var >= n || !exactInt(t.coeff, &coeff)) {
          ok = false;
          break;
        }
        if (coeff == 0) continue;
        row.terms.push_back(WTerm{t.var, coeff});
      }
    }
    if (ok) {
      std::sort(row.terms.begin(), row.terms.end(),
                [](const WTerm& a, const WTerm& b) { return a.var < b.var; });
      // Merge duplicate variables exactly, in place.
      std::size_t w = 0;
      for (std::size_t k = 0; k < row.terms.size(); ++k) {
        const WTerm t = row.terms[k];
        if (w > 0 && row.terms[w - 1].var == t.var) {
          const Int128 sum =
              static_cast<Int128>(row.terms[w - 1].coeff) + t.coeff;
          if (!fits(sum)) {
            ok = false;
            break;
          }
          row.terms[w - 1].coeff = static_cast<long long>(sum);
        } else {
          row.terms[w++] = t;
        }
      }
      if (ok) {
        row.terms.resize(w);
        std::erase_if(row.terms, [](const WTerm& t) { return t.coeff == 0; });
      }
    }
    if (!ok) {
      integral[static_cast<std::size_t>(i)] = 0;
      row.terms.clear();
      for (const Term& t : c.expr.terms()) {
        if (t.var >= 0 && t.var < n) {
          vars[static_cast<std::size_t>(t.var)].untouchable = true;
        }
      }
    }
  }

  // Occurrence lists: every alive integral row carrying v is on v's
  // list.  Entries go stale when a row is removed or v cancels out of
  // it; they are filtered when the list is read, never eagerly.
  CarrierIndex occ;
  occ.reset(n, m);
  for (int i = 0; i < m; ++i) {
    for (const WTerm& t : rows[static_cast<std::size_t>(i)].terms) {
      occ.add(t.var, i);
    }
  }

  // Duplicate-row hash table: open addressing, one slot per group of
  // identical rows; the group is linked through groupNext in ascending
  // row index.
  const std::size_t slots =
      std::bit_ceil(std::max<std::size_t>(2, 2 * static_cast<std::size_t>(m)));
  std::vector<int> slotHead(slots);
  std::vector<int> slotTail(slots);
  std::vector<std::uint64_t> slotHash(slots);
  std::vector<int> groupNext(static_cast<std::size_t>(m));
  std::vector<std::size_t> groups;  // slots holding two or more rows

  // Substitution scratch: the rows carrying the eliminated variable,
  // and one rewritten row.
  std::vector<int> carriers;
  std::vector<WTerm> merged;

  bool infeasible = false;
  bool aborted = false;  // integer overflow: bail out, solve unreduced
  bool changed = false;

  auto removeRow = [&](int r) {
    rows[static_cast<std::size_t>(r)].alive = false;
    ++out.stats_.rowsRemoved;
    changed = true;
  };

  auto fixVar = [&](int v, long long val) {
    VarState& s = vars[static_cast<std::size_t>(v)];
    if (val < 0 || (s.hasUb && val > s.ub)) {
      infeasible = true;
      return;
    }
    if (s.fixed) {
      if (s.value != val) infeasible = true;
      return;
    }
    // A variable appearing in a non-integral row cannot be eliminated
    // (that row is kept verbatim and would dangle); the forced-value
    // inference above is still valid, only the elimination is skipped.
    if (s.untouchable || s.substituted) return;
    s.fixed = true;
    s.value = val;
    ++out.stats_.colsFixed;
    out.restores_.push_back(Restore{v, static_cast<double>(val), {}});
    changed = true;
  };

  int rounds = 0;
  changed = true;
  while (changed && !infeasible && !aborted && rounds < kMaxRounds) {
    changed = false;
    ++rounds;

    for (int r = 0; r < m && !infeasible && !aborted; ++r) {
      WRow& row = rows[static_cast<std::size_t>(r)];
      if (!row.alive || !integral[static_cast<std::size_t>(r)]) continue;

      // (c) Fold fixed variables into the right-hand side.
      {
        std::size_t w = 0;
        Int128 rhs = row.rhs;
        for (const WTerm& t : row.terms) {
          const VarState& s = vars[static_cast<std::size_t>(t.var)];
          if (s.fixed) {
            rhs -= static_cast<Int128>(t.coeff) * s.value;
            changed = true;
          } else {
            row.terms[w++] = t;
          }
        }
        if (w != row.terms.size()) {
          row.terms.resize(w);
          if (!fits(rhs)) {
            aborted = true;
            break;
          }
          row.rhs = static_cast<long long>(rhs);
        }
      }

      // Empty row: verified exactly, then removed.
      if (row.terms.empty()) {
        const bool violated =
            (row.rel == Relation::LessEq && row.rhs < 0) ||
            (row.rel == Relation::GreaterEq && row.rhs > 0) ||
            (row.rel == Relation::Equal && row.rhs != 0);
        if (violated) {
          infeasible = true;
          break;
        }
        removeRow(r);
        continue;
      }

      // (b) Activity bounds from x >= 0 and harvested upper bounds.
      Bound minAct;
      Bound maxAct;
      for (const WTerm& t : row.terms) {
        const VarState& s = vars[static_cast<std::size_t>(t.var)];
        if (t.coeff > 0) {
          if (s.hasUb) {
            maxAct.value += static_cast<Int128>(t.coeff) * s.ub;
          } else {
            maxAct.finite = false;
          }
        } else {
          if (s.hasUb) {
            minAct.value += static_cast<Int128>(t.coeff) * s.ub;
          } else {
            minAct.finite = false;
          }
        }
      }

      if ((row.rel == Relation::LessEq || row.rel == Relation::Equal) &&
          minAct.finite && minAct.value > row.rhs) {
        infeasible = true;
        break;
      }
      if ((row.rel == Relation::GreaterEq || row.rel == Relation::Equal) &&
          maxAct.finite && maxAct.value < row.rhs) {
        infeasible = true;
        break;
      }

      // (d) Rows that can never bind are dropped — except an active
      // upper-bound source, which must keep enforcing its bound.
      auto isUbSource = [&] {
        for (const WTerm& t : row.terms) {
          if (vars[static_cast<std::size_t>(t.var)].ubSource == r) return true;
        }
        return false;
      };
      if (row.rel == Relation::LessEq && maxAct.finite &&
          maxAct.value <= row.rhs && !isUbSource()) {
        removeRow(r);
        continue;
      }
      if (row.rel == Relation::GreaterEq && minAct.finite &&
          minAct.value >= row.rhs && !isUbSource()) {
        removeRow(r);
        continue;
      }

      // (b) Forcing rows: the rhs pins the activity at an attainable
      // extreme, so every participating variable sits at the bound that
      // realizes it (each term's extreme is unique since coeff != 0).
      const bool forceMin =
          minAct.finite && minAct.value == row.rhs &&
          (row.rel == Relation::LessEq || row.rel == Relation::Equal);
      const bool forceMax =
          maxAct.finite && maxAct.value == row.rhs &&
          (row.rel == Relation::GreaterEq || row.rel == Relation::Equal);
      if (forceMin || forceMax) {
        for (const WTerm& t : row.terms) {
          VarState& s = vars[static_cast<std::size_t>(t.var)];
          const bool atUb = forceMin ? (t.coeff < 0) : (t.coeff > 0);
          const long long val = atUb ? s.ub : 0;
          fixVar(t.var, val);
          if (infeasible) break;
        }
        continue;
      }

      // Singleton rows: fix (Equal with exact division) or harvest an
      // upper bound (LessEq/GreaterEq whose normalized form is x <= u).
      if (row.terms.size() == 1) {
        const int v = row.terms[0].var;
        const long long a = row.terms[0].coeff;
        VarState& s = vars[static_cast<std::size_t>(v)];
        if (s.untouchable) continue;
        if (row.rel == Relation::Equal) {
          if (row.rhs % a == 0) {
            const long long val = row.rhs / a;
            if (val < 0) {
              infeasible = true;
              break;
            }
            fixVar(v, val);
          }
        } else if ((row.rel == Relation::LessEq && a > 0) ||
                   (row.rel == Relation::GreaterEq && a < 0)) {
          if (row.rhs % a == 0) {
            const long long u = row.rhs / a;
            if (u < 0) {
              infeasible = true;
              break;
            }
            if (u == 0) {
              fixVar(v, 0);
            } else if (!s.hasUb || u < s.ub) {
              s.hasUb = true;
              s.ub = u;
              s.ubSource = r;
              changed = true;
            }
          }
        }
      }
    }
    if (infeasible || aborted) break;

    // (d) Duplicate / dominated rows: identical term vectors with the
    // same relation collapse to the tighter right-hand side;
    // contradictory Equal twins prove infeasibility.  Rows are grouped
    // by hash; each group is walked in ascending row index, so the
    // survivor is the tightest row, the lowest index on ties.
    {
      std::fill(slotHead.begin(), slotHead.end(), -1);
      groups.clear();
      for (int r = 0; r < m; ++r) {
        const WRow& row = rows[static_cast<std::size_t>(r)];
        if (!row.alive || !integral[static_cast<std::size_t>(r)] ||
            row.terms.empty()) {
          continue;
        }
        const std::uint64_t h = rowHash(row);
        std::size_t slot = h & (slots - 1);
        for (; slotHead[slot] >= 0; slot = (slot + 1) & (slots - 1)) {
          const WRow& head = rows[static_cast<std::size_t>(slotHead[slot])];
          if (slotHash[slot] == h && head.rel == row.rel &&
              head.terms == row.terms) {
            break;
          }
        }
        groupNext[static_cast<std::size_t>(r)] = -1;
        if (slotHead[slot] < 0) {
          slotHead[slot] = r;
          slotHash[slot] = h;
        } else {
          if (slotTail[slot] == slotHead[slot]) groups.push_back(slot);
          groupNext[static_cast<std::size_t>(slotTail[slot])] = r;
        }
        slotTail[slot] = r;
      }
      std::sort(groups.begin(), groups.end(),
                [&](std::size_t a, std::size_t b) {
                  return rowLess(
                      rows[static_cast<std::size_t>(slotHead[a])],
                      rows[static_cast<std::size_t>(slotHead[b])]);
                });
      for (const std::size_t slot : groups) {
        int keeper = slotHead[slot];
        for (int r2 = groupNext[static_cast<std::size_t>(keeper)];
             r2 >= 0; r2 = groupNext[static_cast<std::size_t>(r2)]) {
          const WRow& a = rows[static_cast<std::size_t>(keeper)];
          const WRow& b = rows[static_cast<std::size_t>(r2)];
          if (a.rel == Relation::Equal) {
            if (a.rhs != b.rhs) {
              infeasible = true;
              break;
            }
            removeRow(r2);
            continue;
          }
          // Keep the tighter row; the looser one's slack stays
          // nonnegative at any point the tighter row admits.
          const bool dropSecond = a.rel == Relation::LessEq
                                      ? b.rhs >= a.rhs
                                      : b.rhs <= a.rhs;
          const int loser = dropSecond ? r2 : keeper;
          const int winner = dropSecond ? keeper : r2;
          // A dropped upper-bound source hands enforcement to its twin.
          for (const WTerm& t : a.terms) {
            VarState& s = vars[static_cast<std::size_t>(t.var)];
            if (s.ubSource == loser) s.ubSource = winner;
          }
          removeRow(loser);
          keeper = winner;
        }
        if (infeasible) break;
      }
    }
    if (infeasible) break;

    // (a) Singleton-equality substitution: eliminate v from an Equal
    // row when v has a unit coefficient and the solved-out expression
    // has only nonnegative coefficients and constant, so the implicit
    // v >= 0 is implied by the remaining variables and can be dropped
    // with the row.  Flow-conservation rows x_i = sum d_in are the
    // canonical instance.
    for (int r = 0; r < m && !infeasible && !aborted; ++r) {
      WRow& row = rows[static_cast<std::size_t>(r)];
      if (!row.alive || !integral[static_cast<std::size_t>(r)]) continue;
      if (row.rel != Relation::Equal || row.terms.size() < 2) continue;
      // A fixed-but-not-yet-folded term would leak an eliminated
      // variable into the restore formula, which must only reference
      // variables still free at record time (reverse replay restores
      // later eliminations first).  Let the next round's fold clean the
      // row before it becomes a substitution pivot.
      bool stale = false;
      int positive = 0;
      for (const WTerm& t : row.terms) {
        stale = stale || vars[static_cast<std::size_t>(t.var)].eliminated();
        positive += t.coeff > 0 ? 1 : 0;
      }
      if (stale) continue;
      const int negative = static_cast<int>(row.terms.size()) - positive;

      int pick = -1;
      long long av = 0;
      for (const WTerm& t : row.terms) {
        const VarState& s = vars[static_cast<std::size_t>(t.var)];
        if (s.untouchable || s.hasUb) continue;
        if (t.coeff != 1 && t.coeff != -1) continue;
        // Implied nonnegativity of v = av * (rhs - sum a_j x_j):
        // every coefficient -av*a_j and the constant av*rhs must be
        // >= 0, so v >= 0 follows from the other variables' bounds.
        // That is: av*rhs >= 0, and v is the only term of its sign.
        if (t.coeff * row.rhs < 0) continue;
        if ((t.coeff > 0 ? positive : negative) != 1) continue;
        pick = t.var;
        av = t.coeff;
        break;
      }
      if (pick < 0) continue;

      // The rows carrying v, read off its occurrence list; stale and
      // repeated entries are unlinked on the way.  Row r is among them.
      carriers.clear();
      occ.walk(pick, [&](int i) {
        const WRow& other = rows[static_cast<std::size_t>(i)];
        if (!other.alive || coeffOf(other.terms, pick) == 0) return false;
        carriers.push_back(i);
        return true;
      });
      // Fill-in cap on the other rows.
      if (carriers.size() - 1 > kMaxSubstOccurrences) continue;

      // Commit: rewrite every other row and record the restore formula
      // v = av*rhs - sum av*a_j x_j (the objective is rewritten from
      // these records, see reducedObjective).  Each rewritten
      // number is checked in 128-bit; an overflow aborts the whole
      // reduction, so a half-rewritten system is never used.  A variable
      // of row r new to a row (fill-in) enters its occurrence list.
      for (const int i : carriers) {
        if (i == r) continue;
        WRow& other = rows[static_cast<std::size_t>(i)];
        const Int128 f =
            static_cast<Int128>(coeffOf(other.terms, pick)) * av;
        merged.clear();
        auto it = other.terms.begin();
        auto jt = row.terms.begin();
        while (!aborted &&
               (it != other.terms.end() || jt != row.terms.end())) {
          if (jt == row.terms.end() ||
              (it != other.terms.end() && it->var < jt->var)) {
            if (it->var != pick) merged.push_back(*it);
            ++it;
          } else if (it == other.terms.end() || jt->var < it->var) {
            if (jt->var != pick) {
              const Int128 c = -f * jt->coeff;
              aborted = !fits(c);
              merged.push_back(WTerm{jt->var, static_cast<long long>(c)});
              occ.add(jt->var, i);
            }
            ++jt;
          } else {
            if (it->var != pick) {
              const Int128 c = it->coeff - f * jt->coeff;
              aborted = !fits(c);
              if (c != 0) {
                merged.push_back(WTerm{it->var, static_cast<long long>(c)});
              }
            }
            ++it;
            ++jt;
          }
        }
        const Int128 rhs = other.rhs - f * row.rhs;
        if (aborted || !fits(rhs)) {
          aborted = true;
          break;
        }
        other.terms.swap(merged);
        other.rhs = static_cast<long long>(rhs);
      }
      if (aborted) break;
      Restore restore;
      restore.var = pick;
      restore.terms.reserve(row.terms.size() - 1);
      restore.constant = static_cast<double>(av) *
                         static_cast<double>(row.rhs);
      for (const WTerm& t : row.terms) {
        if (t.var == pick) continue;
        restore.terms.push_back(
            Term{t.var, -static_cast<double>(av) *
                            static_cast<double>(t.coeff)});
      }
      out.restores_.push_back(std::move(restore));
      vars[static_cast<std::size_t>(pick)].substituted = true;
      ++out.stats_.substitutions;
      removeRow(r);
    }
  }
  out.stats_.propagationRounds = rounds;

  if (aborted) {
    // Integer overflow somewhere: discard everything and report an
    // ineffective reduction so the caller solves the original problem.
    Reduction fresh;
    fresh.origVars_ = n;
    fresh.stats_.propagationRounds = rounds;
    return fresh;
  }
  if (infeasible) {
    out.infeasible_ = true;
    return out;
  }

  // Final sweep: fold variables fixed in the last round into any row
  // still carrying them, removing rows that empty out (their exactness
  // checks mirror the loop above).
  for (int r = 0; r < m; ++r) {
    WRow& row = rows[static_cast<std::size_t>(r)];
    if (!row.alive || !integral[static_cast<std::size_t>(r)]) continue;
    std::size_t w = 0;
    Int128 rhs = row.rhs;
    for (const WTerm& t : row.terms) {
      const VarState& s = vars[static_cast<std::size_t>(t.var)];
      if (s.fixed) {
        rhs -= static_cast<Int128>(t.coeff) * s.value;
      } else {
        row.terms[w++] = t;
      }
    }
    if (w != row.terms.size()) {
      row.terms.resize(w);
      if (!fits(rhs)) {
        Reduction fresh;
        fresh.origVars_ = n;
        fresh.stats_.propagationRounds = rounds;
        return fresh;
      }
      row.rhs = static_cast<long long>(rhs);
    }
    if (row.terms.empty()) {
      const bool violated =
          (row.rel == Relation::LessEq && row.rhs < 0) ||
          (row.rel == Relation::GreaterEq && row.rhs > 0) ||
          (row.rel == Relation::Equal && row.rhs != 0);
      if (violated) {
        out.infeasible_ = true;
        return out;
      }
      removeRow(r);
    }
  }

  // Assemble the maps and the reduced problem.
  out.varMap_.assign(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    if (!vars[static_cast<std::size_t>(v)].eliminated()) {
      out.varMap_[static_cast<std::size_t>(v)] =
          static_cast<int>(out.reducedVars_.size());
      out.reducedVars_.push_back(v);
    }
  }

  for (const int v : out.reducedVars_) {
    out.reduced_.addVar(original.varName(v));
  }
  out.reduced_.setObjective(out.reducedObjective(original.objective()),
                            original.sense());

  for (int r = 0; r < m; ++r) {
    const WRow& row = rows[static_cast<std::size_t>(r)];
    if (!row.alive) continue;
    LinearExpr expr;
    if (integral[static_cast<std::size_t>(r)]) {
      for (const WTerm& t : row.terms) {
        expr.add(out.varMap_[static_cast<std::size_t>(t.var)],
                 static_cast<double>(t.coeff));
      }
      out.reduced_.addConstraint(std::move(expr), row.rel,
                                 static_cast<double>(row.rhs));
    } else {
      const Constraint& c = cons[static_cast<std::size_t>(r)];
      for (const Term& t : c.expr.terms()) {
        expr.add(out.varMap_[static_cast<std::size_t>(t.var)], t.coeff);
      }
      expr.addConstant(c.expr.constant());
      out.reduced_.addConstraint(std::move(expr), c.rel, c.rhs);
    }
  }

  return out;
}

LinearExpr Reduction::reducedObjective(const LinearExpr& objective) const {
  // Accumulate, replay each substitution in elimination order, fold the
  // fixed variables in ascending order, and assemble over the surviving
  // variables.  reduce() builds reduced()'s objective with this too.
  const int n = origVars_;
  std::vector<double> obj(static_cast<std::size_t>(n), 0.0);
  for (const Term& t : objective.terms()) {
    if (t.var >= 0 && t.var < n) {
      obj[static_cast<std::size_t>(t.var)] += t.coeff;
    }
  }
  double objConst = objective.constant();
  std::vector<const Restore*> fixes;
  for (const Restore& r : restores_) {
    if (r.terms.empty()) {
      fixes.push_back(&r);
      continue;
    }
    // v = constant + sum coeff_j x_j: move v's cost onto the x_j.  A
    // substitution row always keeps a term besides v, so an empty term
    // list above marks a fix.
    double& cv = obj[static_cast<std::size_t>(r.var)];
    if (cv == 0.0) continue;
    for (const Term& t : r.terms) {
      obj[static_cast<std::size_t>(t.var)] += cv * t.coeff;
    }
    objConst += cv * r.constant;
    cv = 0.0;
  }
  std::sort(fixes.begin(), fixes.end(),
            [](const Restore* a, const Restore* b) { return a->var < b->var; });
  for (const Restore* r : fixes) {
    const double c = obj[static_cast<std::size_t>(r->var)];
    if (c != 0.0) objConst += c * r->constant;
  }
  LinearExpr out;
  for (const int v : reducedVars_) {
    const double c = obj[static_cast<std::size_t>(v)];
    if (c != 0.0) out.add(varMap_[static_cast<std::size_t>(v)], c);
  }
  out.addConstant(objConst);
  return out;
}

std::vector<double> Reduction::postsolveValues(
    const std::vector<double>& reducedValues) const {
  std::vector<double> out(static_cast<std::size_t>(origVars_), 0.0);
  for (std::size_t j = 0; j < reducedVars_.size(); ++j) {
    out[static_cast<std::size_t>(reducedVars_[j])] =
        j < reducedValues.size() ? reducedValues[j] : 0.0;
  }
  // Reverse elimination order: a substitution formula only references
  // variables that were still free when it was recorded, and those are
  // restored first.
  for (auto it = restores_.rbegin(); it != restores_.rend(); ++it) {
    double v = it->constant;
    for (const Term& t : it->terms) {
      v += t.coeff * out[static_cast<std::size_t>(t.var)];
    }
    if (v < 0 && v > -1e-7) v = 0;  // same clamp as the tableau readout
    out[static_cast<std::size_t>(it->var)] = v;
  }
  return out;
}

}  // namespace cinderella::lp
