#ifndef SEMCOR_SEM_LOGIC_FALSIFIER_H_
#define SEMCOR_SEM_LOGIC_FALSIFIER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "sem/expr/eval.h"
#include "sem/expr/expr.h"

namespace semcor {

/// Attribute layout of a table, used to generate random tuples.
struct TableShape {
  std::vector<std::pair<std::string, Value::Type>> attrs;
};

/// table name -> shape. Workloads export their SchemaShapes so analysis can
/// generate well-typed random databases.
using SchemaShapes = std::map<std::string, TableShape>;

struct FalsifierOptions {
  int attempts = 4000;           ///< random states to try
  int64_t value_min = -8;        ///< integer value range
  int64_t value_max = 8;
  int max_rows = 4;              ///< tuples per table, 0..max_rows
  uint64_t seed = 0x5eed;
  std::vector<std::string> string_pool = {"a", "b", "c"};
  /// Type overrides for scalar variables; variables not listed are typed by
  /// a usage-inference pass (compared against string => string, etc.).
  std::map<VarRef, Value::Type> var_types;
};

/// Randomized model search: looks for a state (variable assignment + table
/// contents) that satisfies `constraint`. Returns the witnessing context if
/// found. Sound for refutation (the returned state genuinely satisfies the
/// formula); incomplete (absence of a model is not proof of unsat).
///
/// Each attempt draws, from one Rng seeded with `options.seed`, a value for
/// every free variable (db, then locals, then logicals, each in name order,
/// typed by ModelVarTypes) and then, for every scanned table in name order
/// whose shape is known, a row count in [0, max_rows] and each row's
/// attributes in shape order. A table with no known shape stays empty.
std::optional<MapEvalContext> FindModel(const Expr& constraint,
                                        const SchemaShapes& shapes,
                                        const FalsifierOptions& options);

/// The type FindModel draws for each free variable: `options.var_types`,
/// then types inferred from comparisons (against literals and against
/// table attributes) and from boolean positions. Unlisted variables are
/// ints.
std::map<VarRef, Value::Type> ModelVarTypes(const Expr& constraint,
                                            const SchemaShapes& shapes,
                                            const FalsifierOptions& options);

/// Infers a plausible type for every free scalar variable of `e` from the
/// comparisons it appears in. Defaults to int.
std::map<VarRef, Value::Type> InferVarTypes(const Expr& e);

}  // namespace semcor

#endif  // SEMCOR_SEM_LOGIC_FALSIFIER_H_
