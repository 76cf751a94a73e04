#include "sem/logic/fourier_motzkin.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <optional>

namespace semcor {

namespace {

using Int128 = __int128;

Int128 Gcd128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Working representation with wide coefficients during combination.
struct WideConstraint {
  std::map<VarRef, Int128> coeffs;
  Int128 konst = 0;
  LinRel rel = LinRel::kLe;

  static WideConstraint From(const LinearConstraint& c) {
    WideConstraint w;
    for (const auto& [v, k] : c.term.coeffs) w.coeffs[v] = k;
    w.konst = c.term.konst;
    w.rel = c.rel;
    return w;
  }
};

/// Reduces by gcd and converts back to int64; nullopt on overflow.
std::optional<LinearConstraint> Narrow(const WideConstraint& w,
                                       int64_t max_coefficient) {
  Int128 g = w.konst < 0 ? -w.konst : w.konst;
  for (const auto& [v, k] : w.coeffs) g = Gcd128(g, k);
  LinearConstraint out;
  out.rel = w.rel;
  const Int128 div = g == 0 ? 1 : g;
  Int128 konst = w.konst / div;
  if (konst > max_coefficient || konst < -max_coefficient) return std::nullopt;
  out.term.konst = static_cast<int64_t>(konst);
  for (const auto& [v, k] : w.coeffs) {
    Int128 reduced = k / div;
    if (reduced == 0) continue;
    if (reduced > max_coefficient || reduced < -max_coefficient) {
      return std::nullopt;
    }
    out.term.coeffs[v] = static_cast<int64_t>(reduced);
  }
  return out;
}

/// scale1 * c1 + scale2 * c2 with the given result relation.
std::optional<LinearConstraint> CombineScaled(const LinearConstraint& c1,
                                              Int128 scale1,
                                              const LinearConstraint& c2,
                                              Int128 scale2, LinRel rel,
                                              int64_t max_coefficient) {
  WideConstraint w;
  w.rel = rel;
  w.konst = Int128(c1.term.konst) * scale1 + Int128(c2.term.konst) * scale2;
  for (const auto& [v, k] : c1.term.coeffs) w.coeffs[v] += Int128(k) * scale1;
  for (const auto& [v, k] : c2.term.coeffs) w.coeffs[v] += Int128(k) * scale2;
  for (auto it = w.coeffs.begin(); it != w.coeffs.end();) {
    if (it->second == 0) {
      it = w.coeffs.erase(it);
    } else {
      ++it;
    }
  }
  return Narrow(w, max_coefficient);
}

/// Checks a variable-free constraint. Returns false iff contradictory.
bool ConstantHolds(const LinearConstraint& c) {
  switch (c.rel) {
    case LinRel::kLe:
      return c.term.konst <= 0;
    case LinRel::kLt:
      return c.term.konst < 0;
    case LinRel::kEq:
      return c.term.konst == 0;
  }
  return false;
}

int64_t CoeffOf(const LinearConstraint& c, const VarRef& var) {
  auto it = c.term.coeffs.find(var);
  return it == c.term.coeffs.end() ? 0 : it->second;
}

}  // namespace

bool FmProvesUnsat(std::vector<LinearConstraint> constraints,
                   const FmOptions& options) {
  // All variables are integer-valued, so strict inequalities tighten:
  // t < 0  <=>  t + 1 <= 0. This closes the common rational gaps
  // (e.g. i < 3 && i > 2) without a full integer decision procedure.
  // Explicit zero coefficients are stripped: they would otherwise be
  // mistaken for occurrences during pivot selection (a non-terminating
  // "elimination" that never removes the variable).
  for (LinearConstraint& c : constraints) {
    if (c.rel == LinRel::kLt) {
      c.rel = LinRel::kLe;
      ++c.term.konst;
    }
    for (auto it = c.term.coeffs.begin(); it != c.term.coeffs.end();) {
      it = it->second == 0 ? c.term.coeffs.erase(it) : std::next(it);
    }
  }
  // Iteratively eliminate variables; detect constant contradictions as they
  // appear. Any bail-out returns false ("not proved").
  bool gave_up = false;
  while (true) {
    // Filter constant constraints.
    std::vector<LinearConstraint> work;
    for (const LinearConstraint& c : constraints) {
      if (c.term.coeffs.empty()) {
        if (!ConstantHolds(c)) return true;  // contradiction: unsat proved
        continue;                            // trivially true: drop
      }
      work.push_back(c);
    }
    if (work.empty()) return false;  // satisfiable over rationals (or unknown)
    if (gave_up) return false;

    // Pick the variable with the fewest pos*neg combinations.
    std::map<VarRef, std::pair<int, int>> occurrence;  // var -> (pos, neg)
    bool has_eq = false;
    for (const LinearConstraint& c : work) {
      for (const auto& [v, k] : c.term.coeffs) {
        if (c.rel == LinRel::kEq) {
          has_eq = true;
          occurrence[v];  // ensure present
        } else if (k > 0) {
          occurrence[v].first++;
        } else {
          occurrence[v].second++;
        }
      }
    }
    // Prefer eliminating through an equality (exact and cheap).
    std::optional<size_t> eq_index;
    if (has_eq) {
      for (size_t i = 0; i < work.size(); ++i) {
        if (work[i].rel == LinRel::kEq && !work[i].term.coeffs.empty()) {
          eq_index = i;
          break;
        }
      }
    }

    std::vector<LinearConstraint> next;
    if (eq_index) {
      const LinearConstraint eq = work[*eq_index];
      const VarRef var = eq.term.coeffs.begin()->first;
      const int64_t c = eq.term.coeffs.begin()->second;
      const Int128 abs_c = c < 0 ? -Int128(c) : Int128(c);
      const int sign_c = c < 0 ? -1 : 1;
      for (size_t i = 0; i < work.size(); ++i) {
        if (i == *eq_index) continue;
        const int64_t d = CoeffOf(work[i], var);
        if (d == 0) {
          next.push_back(work[i]);
          continue;
        }
        // work[i]*|c| + eq*(-d*sign(c)): cancels var; scaling an inequality
        // by |c| > 0 preserves its relation, and EQ scales by anything.
        std::optional<LinearConstraint> combined = CombineScaled(
            work[i], abs_c, eq, -Int128(d) * sign_c, work[i].rel,
            options.max_coefficient);
        if (!combined) {
          gave_up = true;
          break;
        }
        next.push_back(*combined);
      }
    } else {
      // Pure inequalities: classic FM step on the cheapest variable.
      const VarRef* best = nullptr;
      long best_cost = 0;
      for (const auto& [v, pn] : occurrence) {
        const long cost = static_cast<long>(pn.first) * pn.second;
        if (best == nullptr || cost < best_cost) {
          best = &v;
          best_cost = cost;
        }
      }
      if (best == nullptr) return false;
      const VarRef var = *best;
      std::vector<LinearConstraint> pos, neg;
      for (const LinearConstraint& c : work) {
        const int64_t k = CoeffOf(c, var);
        if (k == 0) {
          next.push_back(c);
        } else if (k > 0) {
          pos.push_back(c);
        } else {
          neg.push_back(c);
        }
      }
      // One-sided variable: those constraints are always satisfiable; drop.
      if (!pos.empty() && !neg.empty()) {
        for (const LinearConstraint& p : pos) {
          for (const LinearConstraint& n : neg) {
            const Int128 a = CoeffOf(p, var);    // > 0
            const Int128 b = -CoeffOf(n, var);   // > 0
            const LinRel rel = (p.rel == LinRel::kLt || n.rel == LinRel::kLt)
                                   ? LinRel::kLt
                                   : LinRel::kLe;
            std::optional<LinearConstraint> combined = CombineScaled(
                p, b, n, a, rel, options.max_coefficient);
            if (!combined) {
              gave_up = true;
              break;
            }
            next.push_back(*combined);
            if (static_cast<int>(next.size()) > options.max_constraints) {
              gave_up = true;
              break;
            }
          }
          if (gave_up) break;
        }
      }
    }
    constraints = std::move(next);
  }
}

namespace {

/// A constraint resolved against the witness search's variable order: its
/// terms as (variable index, coefficient) pairs in the constraint's own
/// (VarRef) order, so evaluation sums exactly as LinearConstraint::Holds.
struct DenseConstraint {
  std::vector<std::pair<size_t, int64_t>> terms;
  int64_t konst = 0;
  LinRel rel = LinRel::kLe;

  bool Holds(const std::vector<int64_t>& assign) const {
    int64_t v = konst;
    for (const auto& [index, c] : terms) v += c * assign[index];
    switch (rel) {
      case LinRel::kLe:
        return v <= 0;
      case LinRel::kLt:
        return v < 0;
      case LinRel::kEq:
        return v == 0;
    }
    return false;
  }
};

/// Depth-first search over a dense assignment vector. `checkable_at[i]`
/// lists the constraints whose variables are all among vars[0..i-1], so
/// they are checked as soon as vars[i-1] is assigned.
struct WitnessSearch {
  const std::vector<std::vector<DenseConstraint>>& checkable_at;
  std::vector<int64_t> assign;
  int64_t bound = 0;
  int64_t max_nodes = 0;
  int64_t nodes = 0;

  // Value enumeration: 0, 1, -1, 2, -2, ... (small magnitudes first).
  static int64_t ValueAt(int64_t step) {
    if (step == 0) return 0;
    const int64_t mag = (step + 1) / 2;
    return (step % 2 == 1) ? mag : -mag;
  }

  bool Dfs(size_t i) {
    if (i == assign.size()) return true;
    for (int64_t step = 0; step <= 2 * bound; ++step) {
      if (++nodes > max_nodes) return false;
      assign[i] = ValueAt(step);
      bool ok = true;
      for (const DenseConstraint& c : checkable_at[i + 1]) {
        if (!c.Holds(assign)) {
          ok = false;
          break;
        }
      }
      if (ok && Dfs(i + 1)) return true;
    }
    return false;
  }
};

}  // namespace

bool FindIntegerWitness(const std::vector<LinearConstraint>& constraints,
                        int64_t bound, int64_t max_nodes,
                        std::map<VarRef, int64_t>* witness,
                        int64_t* nodes) {
  if (nodes != nullptr) *nodes = 0;
  // Gather variables in deterministic (first-occurrence) order, resolving
  // each constraint's terms to variable indices on the way.
  std::vector<VarRef> vars;
  std::vector<DenseConstraint> dense(constraints.size());
  std::vector<size_t> last(constraints.size(), 0);
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const LinearConstraint& c = constraints[ci];
    dense[ci].konst = c.term.konst;
    dense[ci].rel = c.rel;
    dense[ci].terms.reserve(c.term.coeffs.size());
    for (const auto& [v, k] : c.term.coeffs) {
      size_t idx = std::find(vars.begin(), vars.end(), v) - vars.begin();
      if (idx == vars.size()) vars.push_back(v);
      dense[ci].terms.emplace_back(idx, k);
      last[ci] = std::max(last[ci], idx + 1);
    }
  }
  // checkable_at[i]: constraints whose variables are all among vars[0..i).
  std::vector<std::vector<DenseConstraint>> checkable_at(vars.size() + 1);
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    checkable_at[last[ci]].push_back(std::move(dense[ci]));
  }
  // Constant constraints must hold outright.
  for (const DenseConstraint& c : checkable_at[0]) {
    if (!c.Holds({})) return false;
  }

  WitnessSearch search{checkable_at, std::vector<int64_t>(vars.size(), 0),
                       bound, max_nodes};
  const bool found = search.Dfs(0);
  if (nodes != nullptr) *nodes = search.nodes;
  if (!found) return false;
  witness->clear();
  for (size_t i = 0; i < vars.size(); ++i) {
    witness->emplace(vars[i], search.assign[i]);
  }
  return true;
}

}  // namespace semcor
