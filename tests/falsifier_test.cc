#include <cstdio>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sem/logic/falsifier.h"
#include "sem/logic/memo.h"

namespace semcor {
namespace {

SchemaShapes OrdersShape() {
  SchemaShapes shapes;
  shapes["ORDERS"] = TableShape{{{"deliv_date", Value::Type::kInt},
                                 {"done", Value::Type::kBool},
                                 {"cust", Value::Type::kString}}};
  return shapes;
}

TEST(FalsifierTest, FindsScalarModel) {
  Expr f = And(Gt(DbVar("x"), Lit(int64_t{2})), Lt(DbVar("x"), Lit(int64_t{5})));
  auto model = FindModel(f, {}, FalsifierOptions());
  ASSERT_TRUE(model.has_value());
  Result<bool> check = EvalBool(f, *model);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check.value());
}

TEST(FalsifierTest, RespectsStringComparisons) {
  Expr f = Eq(Local("c"), Lit(std::string("a")));
  auto model = FindModel(f, {}, FalsifierOptions());
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->GetVar({VarKind::kLocal, "c"}).value().AsString(), "a");
}

TEST(FalsifierTest, GeneratesTablesFromShapes) {
  Expr f = Gt(Count("ORDERS", Eq(Attr("done"), Lit(false))), Lit(int64_t{0}));
  auto model = FindModel(f, OrdersShape(), FalsifierOptions());
  ASSERT_TRUE(model.has_value());
  Result<bool> check = EvalBool(f, *model);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check.value());
}

TEST(FalsifierTest, CombinedTableAndScalarConstraint) {
  // A model where some undone order is due today.
  Expr f = And(
      Ge(Local("today"), Lit(int64_t{1})),
      Exists("ORDERS", And(Eq(Attr("deliv_date"), Local("today")),
                           Eq(Attr("done"), Lit(false)))));
  FalsifierOptions options;
  options.attempts = 20000;
  auto model = FindModel(f, OrdersShape(), options);
  ASSERT_TRUE(model.has_value());
  Result<bool> check = EvalBool(f, *model);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check.value());
}

TEST(FalsifierTest, UnsatisfiableFindsNothing) {
  Expr f = And(Gt(DbVar("x"), Lit(int64_t{2})), Lt(DbVar("x"), Lit(int64_t{1})));
  FalsifierOptions options;
  options.attempts = 500;
  EXPECT_FALSE(FindModel(f, {}, options).has_value());
}

TEST(FalsifierTest, BooleanLocalsAreTyped) {
  // `found` appears as a bare boolean atom.
  Expr f = And(Implies(Local("found"), Gt(DbVar("x"), Lit(int64_t{0}))),
               Local("found"));
  FalsifierOptions options;
  options.var_types[{VarKind::kLocal, "found"}] = Value::Type::kBool;
  auto model = FindModel(f, {}, options);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(model->GetVar({VarKind::kLocal, "found"}).value().AsBool());
}

TEST(FalsifierTest, InferVarTypesFromComparisons) {
  Expr f = And(Eq(Local("s"), Lit(std::string("b"))),
               Eq(Local("flag"), Lit(true)));
  auto types = InferVarTypes(f);
  EXPECT_EQ(types.at({VarKind::kLocal, "s"}), Value::Type::kString);
  EXPECT_EQ(types.at({VarKind::kLocal, "flag"}), Value::Type::kBool);
}

TEST(FalsifierTest, DeterministicForFixedSeed) {
  Expr f = Gt(DbVar("x"), Lit(int64_t{0}));
  FalsifierOptions options;
  auto m1 = FindModel(f, {}, options);
  auto m2 = FindModel(f, {}, options);
  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m1->GetVar({VarKind::kDb, "x"}).value(),
            m2->GetVar({VarKind::kDb, "x"}).value());
}

// A memoized search returns the model (or the absence of one) the uncached
// search finds, and a different seed, shape or option is a different query.
TEST(FalsifierTest, MemoReturnsTheUncachedModel) {
  const Expr found = And(
      Ge(Local("today"), Lit(int64_t{1})),
      Exists("ORDERS", And(Eq(Attr("deliv_date"), Local("today")),
                           Eq(Attr("done"), Lit(false)))));
  const Expr none = And(Gt(DbVar("x"), Lit(int64_t{3})),
                        Lt(DbVar("x"), Lit(int64_t{2})));
  FalsifierOptions options;
  options.attempts = 500;
  DecisionMemo memo;
  auto same = [](const std::optional<MapEvalContext>& a,
                 const std::optional<MapEvalContext>& b) {
    if (a.has_value() != b.has_value()) return false;
    return !a || (a->vars() == b->vars() && a->tables() == b->tables());
  };
  for (uint64_t seed : {1, 2, 3}) {
    options.seed = seed;
    for (const Expr& f : {found, none}) {
      const auto want = FindModel(f, OrdersShape(), options);
      EXPECT_TRUE(same(FindModel(f, OrdersShape(), options, &memo), want));
      EXPECT_TRUE(same(FindModel(f, OrdersShape(), options, &memo), want));
    }
  }
  EXPECT_TRUE(FindModel(found, OrdersShape(), options).has_value());
  EXPECT_FALSE(FindModel(none, OrdersShape(), options).has_value());
  MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.hits, 6);
  // Another shape set or option is a miss, not the cached answer.
  EXPECT_TRUE(same(FindModel(found, {}, options, &memo),
                   FindModel(found, {}, options)));
  options.max_rows = 1;
  EXPECT_TRUE(same(FindModel(found, OrdersShape(), options, &memo),
                   FindModel(found, OrdersShape(), options)));
  stats = memo.Stats();
  EXPECT_EQ(stats.misses, 8);
  EXPECT_EQ(stats.hits, 6);
}

// ---- reference: a fresh MapEvalContext per attempt ----

Value ReferenceRandomValue(Value::Type type, Rng* rng,
                           const FalsifierOptions& options) {
  switch (type) {
    case Value::Type::kInt:
      return Value::Int(rng->Uniform(options.value_min, options.value_max));
    case Value::Type::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case Value::Type::kString: {
      const auto& pool = options.string_pool;
      if (pool.empty()) return Value::Str("s");
      return Value::Str(pool[rng->Uniform(0, pool.size() - 1)]);
    }
    default:
      return Value::Null();
  }
}

/// FindModel as it was first written: every attempt builds its own context
/// and fresh tuples. The production search must draw and return exactly
/// what this does.
std::optional<MapEvalContext> ReferenceFindModel(
    const Expr& constraint, const SchemaShapes& shapes,
    const FalsifierOptions& options) {
  FreeVars fv = CollectFreeVars(constraint);
  const std::map<VarRef, Value::Type> types =
      ModelVarTypes(constraint, shapes, options);
  auto type_of = [&](const VarRef& v) {
    auto it = types.find(v);
    return it == types.end() ? Value::Type::kInt : it->second;
  };
  std::vector<VarRef> vars;
  for (const std::string& n : fv.db) vars.push_back({VarKind::kDb, n});
  for (const std::string& n : fv.locals) vars.push_back({VarKind::kLocal, n});
  for (const std::string& n : fv.logicals) {
    vars.push_back({VarKind::kLogical, n});
  }
  Rng rng(options.seed);
  for (int attempt = 0; attempt < options.attempts; ++attempt) {
    MapEvalContext ctx;
    for (const VarRef& v : vars) {
      ctx.Set(v, ReferenceRandomValue(type_of(v), &rng, options));
    }
    for (const std::string& table : fv.tables) {
      auto it = shapes.find(table);
      ctx.MutableTable(table);
      if (it == shapes.end()) continue;
      const int rows = static_cast<int>(rng.Uniform(0, options.max_rows));
      for (int r = 0; r < rows; ++r) {
        Tuple t;
        for (const auto& [attr, type] : it->second.attrs) {
          t[attr] = ReferenceRandomValue(type, &rng, options);
        }
        ctx.AddTuple(table, std::move(t));
      }
    }
    Result<bool> holds = EvalBool(constraint, ctx);
    if (holds.ok() && holds.value()) return ctx;
  }
  return std::nullopt;
}

/// Random formulas over ints, strings and bools, two shaped tables (one
/// with a repeated attribute name) and a table with no known shape.
class FormulaGen {
 public:
  explicit FormulaGen(uint64_t seed) : rng_(seed) {}

  static SchemaShapes Shapes() {
    SchemaShapes shapes = OrdersShape();
    shapes["PAIRS"] = TableShape{{{"v", Value::Type::kInt},
                                  {"w", Value::Type::kInt},
                                  {"v", Value::Type::kInt}}};
    return shapes;
  }

  Expr Formula(int depth) {
    switch (Pick(depth > 0 ? 9 : 5)) {
      case 0:
        return Compare(IntTerm(depth), IntTerm(depth));
      case 1:
        return Eq(Local("s"), Lit(std::string(1, static_cast<char>(
                                                     'a' + Pick(4)))));
      case 2:
        return Local("flag");
      case 3:
        return Exists(Table(), TuplePred());
      case 4:
        return Eq(Local("s"), DbVar("name"));
      case 5:
        return Not(Formula(depth - 1));
      case 6:
        return And(Formula(depth - 1), Formula(depth - 1));
      case 7:
        return Or(Formula(depth - 1), Formula(depth - 1));
      default:
        return Pick(2) == 0 ? Implies(Formula(depth - 1), Formula(depth - 1))
                            : Forall(Table(), TuplePred(), TuplePred());
    }
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_.Uniform(0, n - 1)); }

  Expr Compare(Expr a, Expr b) {
    switch (Pick(6)) {
      case 0:
        return Eq(a, b);
      case 1:
        return Ne(a, b);
      case 2:
        return Lt(a, b);
      case 3:
        return Le(a, b);
      case 4:
        return Gt(a, b);
      default:
        return Ge(a, b);
    }
  }

  std::string Table() {
    static const char* const kTables[] = {"ORDERS", "PAIRS", "UNSHAPED"};
    return kTables[Pick(3)];
  }

  Expr IntTerm(int depth) {
    switch (Pick(depth > 0 ? 9 : 4)) {
      case 0:
        return Lit(static_cast<int64_t>(Pick(9)) - 4);
      case 1:
        return DbVar(Pick(2) == 0 ? "x" : "y");
      case 2:
        return Logical("n");
      case 3:
        return Local("k");
      case 4:
        return Add(IntTerm(depth - 1), IntTerm(depth - 1));
      case 5:
        return Sub(IntTerm(depth - 1), IntTerm(depth - 1));
      case 6:
        return Count(Table(), TuplePred());
      case 7:
        return SumOf("PAIRS", "v", TuplePred());
      default:
        return MaxOf("ORDERS", "deliv_date", TuplePred(), -1);
    }
  }

  /// A predicate over one tuple of any table; attributes a table lacks make
  /// evaluation fail, which both searches must treat alike.
  Expr TuplePred() {
    switch (Pick(6)) {
      case 0:
        return Compare(Attr("deliv_date"), IntTerm(0));
      case 1:
        return Eq(Attr("done"), Lit(Pick(2) == 0));
      case 2:
        return Eq(Attr("cust"), Local("s"));
      case 3:
        return Compare(Attr("v"), Attr("w"));
      case 4:
        return Gt(Attr("v"), IntTerm(0));
      default:
        return Lit(true);
    }
  }

  Rng rng_;
};

TEST(FalsifierTest, InPlaceSearchMatchesFreshContextReference) {
  const SchemaShapes shapes = FormulaGen::Shapes();
  FormulaGen gen(20240917);
  int found = 0;
  std::map<std::string, int> models_with_rows;
  for (int i = 0; i < 1200; ++i) {
    const Expr f = gen.Formula(3);
    FalsifierOptions options;
    options.attempts = 40;
    options.seed = 0x5eed + static_cast<uint64_t>(i);
    options.max_rows = i % 5;
    if (i % 7 == 0) options.string_pool = {};
    if (i % 11 == 0) options.var_types[{VarKind::kDb, "x"}] = Value::Type::kBool;
    const auto want = ReferenceFindModel(f, shapes, options);
    const auto got = FindModel(f, shapes, options);
    ASSERT_EQ(want.has_value(), got.has_value()) << i << ": " << ToString(f);
    if (!want) continue;
    ++found;
    EXPECT_EQ(want->vars(), got->vars()) << i << ": " << ToString(f);
    EXPECT_EQ(want->tables(), got->tables()) << i << ": " << ToString(f);
    for (const auto& [table, rows] : want->tables()) {
      if (!rows.empty()) ++models_with_rows[table];
    }
  }
  // Both outcomes are exercised, and models carry rows of both shapes.
  std::printf("models found: %d of 1200; with ORDERS rows %d, PAIRS rows %d\n",
              found, models_with_rows["ORDERS"], models_with_rows["PAIRS"]);
  EXPECT_GT(found, 200);
  EXPECT_LT(found, 1100);
  EXPECT_GT(models_with_rows["ORDERS"], 20);
  EXPECT_GT(models_with_rows["PAIRS"], 20);
}

}  // namespace
}  // namespace semcor
