#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "sem/logic/decide.h"
#include "sem/logic/dnf.h"
#include "sem/logic/fourier_motzkin.h"
#include "sem/logic/linear.h"

namespace semcor {
namespace {

Expr X() { return DbVar("x"); }
Expr Y() { return DbVar("y"); }
Expr Z() { return DbVar("z"); }

// ---- linear extraction ----

TEST(LinearTest, ExtractsLinearCombination) {
  TermAbstraction abs;
  auto t = ToLinear(Add(Mul(Lit(int64_t{3}), X()), Sub(Y(), Lit(int64_t{7}))),
                    &abs);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->konst, -7);
  EXPECT_EQ(t->coeffs.at({VarKind::kDb, "x"}), 3);
  EXPECT_EQ(t->coeffs.at({VarKind::kDb, "y"}), 1);
  EXPECT_TRUE(abs.terms().empty());
}

TEST(LinearTest, CancelsCoefficients) {
  TermAbstraction abs;
  auto t = ToLinear(Sub(X(), X()), &abs);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->IsConstant());
  EXPECT_EQ(t->konst, 0);
}

TEST(LinearTest, AbstractsNonLinearTerms) {
  TermAbstraction abs;
  auto t = ToLinear(Mul(X(), Y()), &abs);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(abs.terms().size(), 1u);
  // The same term maps to the same abstraction variable.
  auto t2 = ToLinear(Mul(X(), Y()), &abs);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(abs.terms().size(), 1u);
  EXPECT_EQ(t->coeffs.begin()->first, t2->coeffs.begin()->first);
}

TEST(LinearTest, AbstractsAggregates) {
  TermAbstraction abs;
  auto t = ToLinear(Count("T", True()), &abs);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(abs.terms().size(), 1u);
}

TEST(LinearTest, NonIntegerYieldsNullopt) {
  TermAbstraction abs;
  EXPECT_FALSE(ToLinear(Lit(std::string("s")), &abs).has_value());
  EXPECT_FALSE(ToLinear(Lit(true), &abs).has_value());
}

TEST(LinearTest, AtomToConstraintsSplitsNe) {
  TermAbstraction abs;
  auto alts = AtomToConstraints(Ne(X(), Lit(int64_t{3})), false, &abs);
  ASSERT_TRUE(alts.has_value());
  EXPECT_EQ(alts->size(), 2u);  // x < 3 OR x > 3
}

TEST(LinearTest, NegationFlipsOperator) {
  TermAbstraction abs;
  auto alts = AtomToConstraints(Lt(X(), Lit(int64_t{3})), true, &abs);
  ASSERT_TRUE(alts.has_value());
  ASSERT_EQ(alts->size(), 1u);
  // !(x < 3) == x >= 3 == 3 - x <= 0.
  std::map<VarRef, int64_t> sat = {{{VarKind::kDb, "x"}, 3}};
  std::map<VarRef, int64_t> unsat = {{{VarKind::kDb, "x"}, 2}};
  EXPECT_TRUE((*alts)[0][0].Holds(sat));
  EXPECT_FALSE((*alts)[0][0].Holds(unsat));
}

// ---- DNF ----

TEST(DnfTest, DistributesOrOverAnd) {
  Expr p = Gt(X(), Lit(int64_t{0}));
  Expr q = Gt(Y(), Lit(int64_t{0}));
  Expr r = Gt(Z(), Lit(int64_t{0}));
  Result<Dnf> d = ToDnf(And(Or(p, q), r), 100);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().cubes.size(), 2u);
}

TEST(DnfTest, PushesNegationInward) {
  Expr p = Gt(X(), Lit(int64_t{0}));
  Expr q = Gt(Y(), Lit(int64_t{0}));
  Result<Dnf> d = ToDnf(Not(And(p, q)), 100);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().cubes.size(), 2u);  // !p | !q
  for (const Cube& cube : d.value().cubes) {
    ASSERT_EQ(cube.size(), 1u);
    EXPECT_TRUE(cube[0].negated);
  }
}

TEST(DnfTest, ImpliesExpansion) {
  Expr p = Gt(X(), Lit(int64_t{0}));
  Expr q = Gt(Y(), Lit(int64_t{0}));
  Result<Dnf> d = ToDnf(Not(Implies(p, q)), 100);  // p & !q
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.value().cubes.size(), 1u);
  EXPECT_EQ(d.value().cubes[0].size(), 2u);
}

TEST(DnfTest, TrueAndFalse) {
  Result<Dnf> t = ToDnf(True(), 10);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.value().cubes.size(), 1u);
  EXPECT_TRUE(t.value().cubes[0].empty());
  Result<Dnf> f = ToDnf(False(), 10);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f.value().cubes.empty());
}

TEST(DnfTest, BudgetOverflow) {
  // (a1|b1) & (a2|b2) & ... grows exponentially.
  std::vector<Expr> clauses;
  for (int i = 0; i < 20; ++i) {
    clauses.push_back(Or(Gt(DbVar("a" + std::to_string(i)), Lit(int64_t{0})),
                         Gt(DbVar("b" + std::to_string(i)), Lit(int64_t{0}))));
  }
  Result<Dnf> d = ToDnf(And(clauses), 1000);
  EXPECT_FALSE(d.ok());
}

// ---- Fourier-Motzkin ----

LinearConstraint Make(std::map<std::string, int64_t> coeffs, int64_t konst,
                      LinRel rel) {
  LinearConstraint c;
  for (const auto& [name, k] : coeffs) {
    c.term.coeffs[{VarKind::kDb, name}] = k;
  }
  c.term.konst = konst;
  c.rel = rel;
  return c;
}

TEST(FmTest, ProvesSimpleContradiction) {
  // x <= -1 && -x <= -1  (x <= -1 && x >= 1).
  std::vector<LinearConstraint> cs = {Make({{"x", 1}}, 1, LinRel::kLe),
                                      Make({{"x", -1}}, 1, LinRel::kLe)};
  EXPECT_TRUE(FmProvesUnsat(cs));
}

TEST(FmTest, SatisfiableSystemNotProvedUnsat) {
  std::vector<LinearConstraint> cs = {Make({{"x", 1}}, -5, LinRel::kLe),
                                      Make({{"x", -1}}, 0, LinRel::kLe)};
  EXPECT_FALSE(FmProvesUnsat(cs));
}

TEST(FmTest, StrictInequalityChain) {
  // x < y && y < x is unsat.
  std::vector<LinearConstraint> cs = {
      Make({{"x", 1}, {"y", -1}}, 0, LinRel::kLt),
      Make({{"x", -1}, {"y", 1}}, 0, LinRel::kLt)};
  EXPECT_TRUE(FmProvesUnsat(cs));
}

TEST(FmTest, EqualityPropagation) {
  // x == 3 && y == x && y <= 2 is unsat.
  std::vector<LinearConstraint> cs = {
      Make({{"x", 1}}, -3, LinRel::kEq),
      Make({{"y", 1}, {"x", -1}}, 0, LinRel::kEq),
      Make({{"y", 1}}, -2, LinRel::kLe)};
  EXPECT_TRUE(FmProvesUnsat(cs));
}

TEST(FmTest, TransitiveChain) {
  // a <= b <= c <= a-1 is unsat.
  std::vector<LinearConstraint> cs = {
      Make({{"a", 1}, {"b", -1}}, 0, LinRel::kLe),
      Make({{"b", 1}, {"c", -1}}, 0, LinRel::kLe),
      Make({{"c", 1}, {"a", -1}}, 1, LinRel::kLe)};
  EXPECT_TRUE(FmProvesUnsat(cs));
}

TEST(FmTest, IntegerWitnessSearch) {
  // 2 <= x <= 4 && x == y.
  std::vector<LinearConstraint> cs = {
      Make({{"x", -1}}, 2, LinRel::kLe), Make({{"x", 1}}, -4, LinRel::kLe),
      Make({{"x", 1}, {"y", -1}}, 0, LinRel::kEq)};
  std::map<VarRef, int64_t> witness;
  ASSERT_TRUE(FindIntegerWitness(cs, 10, 100000, &witness));
  const int64_t x = witness.at({VarKind::kDb, "x"});
  EXPECT_GE(x, 2);
  EXPECT_LE(x, 4);
  EXPECT_EQ(witness.at({VarKind::kDb, "y"}), x);
}

TEST(FmTest, WitnessRespectsStrictness) {
  // x < 1 && x > -1 => x == 0 over ints.
  std::vector<LinearConstraint> cs = {Make({{"x", 1}}, -1, LinRel::kLt),
                                      Make({{"x", -1}}, -1, LinRel::kLt)};
  std::map<VarRef, int64_t> witness;
  ASSERT_TRUE(FindIntegerWitness(cs, 5, 10000, &witness));
  EXPECT_EQ(witness.at({VarKind::kDb, "x"}), 0);
}

TEST(FmTest, NoWitnessInBox) {
  std::vector<LinearConstraint> cs = {Make({{"x", -1}}, 100, LinRel::kLe)};
  std::map<VarRef, int64_t> witness;
  EXPECT_FALSE(FindIntegerWitness(cs, 5, 10000, &witness));
}

// Reference: the witness search as first written, over a VarRef-keyed map
// and LinearConstraint::Holds, counting nodes the same way. The production
// search must agree on the result, the witness and the node count.
bool ReferenceFindIntegerWitness(
    const std::vector<LinearConstraint>& constraints, int64_t bound,
    int64_t max_nodes, std::map<VarRef, int64_t>* witness, int64_t* nodes) {
  std::vector<VarRef> vars;
  for (const LinearConstraint& c : constraints) {
    for (const auto& [v, k] : c.term.coeffs) {
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
  }
  std::vector<std::vector<const LinearConstraint*>> checkable_at(
      vars.size() + 1);
  for (const LinearConstraint& c : constraints) {
    size_t last = 0;
    for (const auto& [v, k] : c.term.coeffs) {
      const size_t idx =
          std::find(vars.begin(), vars.end(), v) - vars.begin();
      last = std::max(last, idx + 1);
    }
    checkable_at[last].push_back(&c);
  }
  *nodes = 0;
  for (const LinearConstraint* c : checkable_at[0]) {
    if (!c->Holds({})) return false;
  }
  std::map<VarRef, int64_t> assign;
  auto value_at = [](int64_t step) -> int64_t {
    if (step == 0) return 0;
    const int64_t mag = (step + 1) / 2;
    return (step % 2 == 1) ? mag : -mag;
  };
  std::function<bool(size_t)> dfs = [&](size_t i) -> bool {
    if (i == vars.size()) {
      *witness = assign;
      return true;
    }
    for (int64_t step = 0; step <= 2 * bound; ++step) {
      if (++*nodes > max_nodes) return false;
      assign[vars[i]] = value_at(step);
      bool ok = true;
      for (const LinearConstraint* c : checkable_at[i + 1]) {
        if (!c->Holds(assign)) {
          ok = false;
          break;
        }
      }
      if (ok && dfs(i + 1)) return true;
    }
    assign.erase(vars[i]);
    return false;
  };
  return dfs(0);
}

TEST(FmTest, DenseWitnessSearchMatchesMapReference) {
  // Variables of every kind, so first-occurrence order and VarRef order
  // (kind, then name) disagree; coefficients include explicit zeros.
  const std::vector<VarRef> pool = {
      {VarKind::kLocal, "b"}, {VarKind::kDb, "z"}, {VarKind::kLogical, "$t0"},
      {VarKind::kDb, "a"},    {VarKind::kLocal, "a"}};
  const int64_t bounds[] = {0, 1, 2, 4, 16};
  const int64_t budgets[] = {1, 7, 60, 1000, 200000};
  std::mt19937_64 rng(424242);
  auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  int found = 0, exhausted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<LinearConstraint> system;
    const int n = static_cast<int>(pick(0, 5));
    for (int c = 0; c < n; ++c) {
      LinearConstraint lc;
      const int terms = static_cast<int>(pick(0, 3));
      for (int t = 0; t < terms; ++t) {
        lc.term.coeffs[pool[pick(0, pool.size() - 1)]] = pick(-3, 3);
      }
      lc.term.konst = pick(-12, 12);
      lc.rel = static_cast<LinRel>(pick(0, 2));
      system.push_back(lc);
    }
    const int64_t bound = bounds[pick(0, 4)];
    const int64_t budget = budgets[pick(0, 4)];
    const std::map<VarRef, int64_t> sentinel = {{{VarKind::kDb, "?"}, 99}};
    std::map<VarRef, int64_t> want = sentinel, got = sentinel;
    int64_t want_nodes = -1, got_nodes = -1;
    const bool want_ok =
        ReferenceFindIntegerWitness(system, bound, budget, &want, &want_nodes);
    const bool got_ok =
        FindIntegerWitness(system, bound, budget, &got, &got_nodes);
    ASSERT_EQ(want_ok, got_ok) << "system " << i;
    EXPECT_EQ(want, got) << "system " << i;
    EXPECT_EQ(want_nodes, got_nodes) << "system " << i;
    found += want_ok ? 1 : 0;
    exhausted += want_nodes > budget ? 1 : 0;
  }
  // Witnesses, refutations inside the box and exhausted budgets all occur.
  std::printf("systems: 3000; witnesses %d, budgets exhausted %d\n", found,
              exhausted);
  EXPECT_GT(found, 300);
  EXPECT_LT(found, 2900);
  EXPECT_GT(exhausted, 50);
}

// ---- validity decision ----

TEST(DecideTest, ValidTautology) {
  // x >= 0 => x + 1 >= 1.
  Expr f = Implies(Ge(X(), Lit(int64_t{0})),
                   Ge(Add(X(), Lit(int64_t{1})), Lit(int64_t{1})));
  EXPECT_EQ(DecideValidity(f).verdict, Verdict::kValid);
}

TEST(DecideTest, InvalidWithCounterexample) {
  // x >= 0 => x >= 1 is falsified by x == 0.
  Expr f = Implies(Ge(X(), Lit(int64_t{0})), Ge(X(), Lit(int64_t{1})));
  DecideResult r = DecideValidity(f);
  EXPECT_EQ(r.verdict, Verdict::kInvalid);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->ints.at({VarKind::kDb, "x"}), 0);
}

TEST(DecideTest, WithdrawPreservesBalanceInvariant) {
  // The Figure-1 core: sav+ch >= Sav+Ch && Sav+Ch >= w && ch >= Ch
  //   => Sav - w + ch >= 0.
  Expr sav = DbVar("sav"), ch = DbVar("ch");
  Expr Sav = Local("Sav"), Ch = Local("Ch"), w = Local("w");
  Expr f = Implies(And({Ge(Add(sav, ch), Add(Sav, Ch)), Ge(Add(Sav, Ch), w),
                        Ge(ch, Ch)}),
                   Ge(Add(Sub(Sav, w), ch), Lit(int64_t{0})));
  EXPECT_EQ(DecideValidity(f).verdict, Verdict::kValid);
}

TEST(DecideTest, WriteSkewIsInvalid) {
  // Withdraw_ch's write does NOT preserve the other's read-step assertion.
  Expr sav = DbVar("sav"), ch = DbVar("ch");
  Expr f = Implies(
      And({Ge(Add(sav, ch), Add(Local("Sav"), Local("Ch"))),
           Ge(Add(Local("Sav2"), Local("Ch2")), Local("w2")),
           Ge(Local("w2"), Lit(int64_t{1}))}),
      Ge(Add(sav, Sub(Local("Ch2"), Local("w2"))),
         Add(Local("Sav"), Local("Ch"))));
  EXPECT_EQ(DecideValidity(f).verdict, Verdict::kInvalid);
}

TEST(DecideTest, OpaqueComplementaryLiterals) {
  Expr p = Exists("T", Eq(Attr("a"), Lit(int64_t{1})));
  EXPECT_EQ(DecideValidity(Implies(p, p)).verdict, Verdict::kValid);
  EXPECT_EQ(DecideValidity(Or(p, Not(p))).verdict, Verdict::kValid);
}

TEST(DecideTest, AbstractedTermsShareVariables) {
  // count(T|p) > 3 => count(T|p) > 2 holds by abstraction.
  Expr c = Count("T", Eq(Attr("a"), Lit(int64_t{1})));
  Expr f = Implies(Gt(c, Lit(int64_t{3})), Gt(c, Lit(int64_t{2})));
  EXPECT_EQ(DecideValidity(f).verdict, Verdict::kValid);
}

TEST(DecideTest, UnknownForUnprovableOpaque) {
  // Two different counts cannot be related.
  Expr c1 = Count("T", Eq(Attr("a"), Lit(int64_t{1})));
  Expr c2 = Count("T", Eq(Attr("a"), Lit(int64_t{2})));
  Expr f = Implies(Gt(c1, Lit(int64_t{0})), Gt(c2, Lit(int64_t{0})));
  EXPECT_EQ(DecideValidity(f).verdict, Verdict::kUnknown);
}

TEST(DecideTest, ForallSubsumption) {
  // forall(T: v <= x) => forall(T: v <= x+1).
  Expr a = Forall("T", True(), Le(Attr("v"), X()));
  Expr b = Forall("T", True(), Le(Attr("v"), Add(X(), Lit(int64_t{1}))));
  EXPECT_EQ(DecideValidity(Implies(a, b)).verdict, Verdict::kValid);
  // The converse is not derivable.
  EXPECT_NE(DecideValidity(Implies(b, a)).verdict, Verdict::kValid);
}

TEST(DecideTest, ForallSubsumptionWithRestrictedDomain) {
  // forall(T | k==1 : v >= 0) => forall(T | k==1 && v < 5 : v >= -1).
  Expr a = Forall("T", Eq(Attr("k"), Lit(int64_t{1})),
                  Ge(Attr("v"), Lit(int64_t{0})));
  Expr b = Forall("T",
                  And(Eq(Attr("k"), Lit(int64_t{1})),
                      Lt(Attr("v"), Lit(int64_t{5}))),
                  Ge(Attr("v"), Lit(int64_t{-1})));
  EXPECT_EQ(DecideValidity(Implies(a, b)).verdict, Verdict::kValid);
}

TEST(DecideTest, ExistsSubsumption) {
  // exists(T | v > 5) => exists(T | v > 3).
  Expr a = Exists("T", Gt(Attr("v"), Lit(int64_t{5})));
  Expr b = Exists("T", Gt(Attr("v"), Lit(int64_t{3})));
  EXPECT_EQ(DecideValidity(Implies(a, b)).verdict, Verdict::kValid);
  EXPECT_NE(DecideValidity(Implies(b, a)).verdict, Verdict::kValid);
}

TEST(DecideTest, ProvablyUnsat) {
  EXPECT_TRUE(ProvablyUnsat(And(Gt(X(), Lit(int64_t{3})),
                                Lt(X(), Lit(int64_t{2})))));
  EXPECT_FALSE(ProvablyUnsat(Gt(X(), Lit(int64_t{3}))));
  // Intersection of tuple predicates (predicate-lock conflicts).
  EXPECT_TRUE(ProvablyUnsat(And(Eq(Attr("d"), Lit(int64_t{1})),
                                Eq(Attr("d"), Lit(int64_t{2})))));
  EXPECT_FALSE(ProvablyUnsat(And(Eq(Attr("d"), Lit(int64_t{1})),
                                 Eq(Attr("c"), Lit(int64_t{2})))));
}

TEST(DecideTest, ProvablySat) {
  std::map<VarRef, int64_t> witness;
  EXPECT_TRUE(ProvablySat(And(Gt(X(), Lit(int64_t{2})), Lt(X(), Lit(int64_t{4}))),
                          &witness));
  EXPECT_EQ(witness.at({VarKind::kDb, "x"}), 3);
}

// Parameterized validity sweep: x >= k => x >= k-1 for many k.
class MonotoneShiftTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(MonotoneShiftTest, WeakeningIsValid) {
  const int64_t k = GetParam();
  Expr f = Implies(Ge(X(), Lit(k)), Ge(X(), Lit(k - 1)));
  EXPECT_EQ(DecideValidity(f).verdict, Verdict::kValid);
  Expr g = Implies(Ge(X(), Lit(k)), Ge(X(), Lit(k + 1)));
  EXPECT_EQ(DecideValidity(g).verdict, Verdict::kInvalid);
}

INSTANTIATE_TEST_SUITE_P(Shifts, MonotoneShiftTest,
                         ::testing::Values(-7, -1, 0, 1, 5, 12));

}  // namespace
}  // namespace semcor
