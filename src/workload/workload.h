#ifndef SEMCOR_WORKLOAD_WORKLOAD_H_
#define SEMCOR_WORKLOAD_WORKLOAD_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sem/check/theorems.h"
#include "storage/store.h"
#include "txn/executor.h"

namespace semcor {

/// A transaction request's parameters in the order given. A name may appear
/// twice here; `Workload::Instantiate` rejects that.
using ParamList = std::vector<std::pair<std::string, Value>>;

/// A named, fully pinned transaction mix for the schedule explorer. Unlike
/// the weighted random `mix`, every instance's parameters are fixed, so a
/// mix names a *reproducible* concurrency scenario — including the corner
/// cases (e.g. banking write skew needs withdrawals large enough that each
/// is covered by the sum but not by one account, which random draws over
/// small amounts essentially never produce).
struct ExploreMix {
  struct Entry {
    std::string type;  ///< transaction type name
    ParamList params;  ///< pinned parameter values
  };
  std::string name;
  std::string note;  ///< what scenario this mix probes
  std::vector<Entry> txns;
};

/// A paper workload: the statically analyzable Application plus the runtime
/// harness pieces (initial database, random parameter draws, and the level
/// assignment the paper's analysis yields). A type's signature is the names
/// and value types of its first analysis scenario, the program the advisor
/// checked; `Instantiate` is the only path from (type, params) to a program.
struct Workload {
  Application app;

  /// Populates the store with the workload's schema and initial data.
  std::function<Status(Store*)> setup;

  /// Draws random parameters for a known type (for `Instantiate` only).
  std::function<ParamList(const std::string& type, Rng&)> draw_params;

  /// The isolation level the paper's analysis assigns to each type (used by
  /// benches as the "advisor-chosen" configuration and cross-checked
  /// against LevelAdvisor output in tests).
  std::map<std::string, IsoLevel> paper_levels;

  /// Default mix for the executor: type name -> weight.
  std::vector<std::pair<std::string, double>> mix;

  /// Named pinned-parameter mixes for the schedule explorer (may be empty).
  std::vector<ExploreMix> explore_mixes;

  /// Binds `params` to the type's signature and builds the program. Fails
  /// with InvalidArgument for an unknown type and for a missing, unknown,
  /// duplicated or mistyped parameter, naming it. An integer 0 or 1 binds
  /// to a boolean parameter (wire parameters are integers).
  Result<std::shared_ptr<const TxnProgram>> Instantiate(
      const std::string& type, const ParamList& params) const;

  /// As above, with the parameters from `draw_params`.
  Result<std::shared_ptr<const TxnProgram>> Instantiate(const std::string& type,
                                                        Rng& rng) const;

  /// Draws a type name from `mix` by weight (the mix must be non-empty).
  const std::string& DrawType(Rng& rng) const;

  /// Looks up an explore mix by name (nullptr if absent).
  const ExploreMix* FindExploreMix(const std::string& name) const;

  /// Draws a WorkItem from the mix at the given level assignment
  /// (every type mapped through `levels`; missing entries use `fallback`).
  WorkItem DrawFromMix(Rng& rng, const std::map<std::string, IsoLevel>& levels,
                       IsoLevel fallback) const;
};

/// Factories (one per workload module).
Workload MakeBankingWorkload(int accounts = 4);
Workload MakePayrollWorkload(int employees = 4);
Workload MakeMailingWorkload();
/// §6 orders application. `one_order_per_day` switches the business rule
/// from "no gaps" to "exactly one order per day" (§6's READ COMMITTED with
/// first-committer-wins discussion).
Workload MakeOrdersWorkload(bool one_order_per_day = false);
/// TPC-C (lite): all five transaction types at spec-shaped dimensions.
/// `districts`, `customers`, and `items` are per-warehouse; districts and
/// customers are flattened to global indices, stock is keyed (w_id, i_id).
Workload MakeTpccWorkload(int warehouses = 2, int districts = 2,
                          int customers = 8, int items = 16);

}  // namespace semcor

#endif  // SEMCOR_WORKLOAD_WORKLOAD_H_
