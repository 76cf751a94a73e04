#include "common/str_util.h"
#include "sem/prog/builder.h"
#include "workload/workload.h"

namespace semcor {

namespace {

constexpr int64_t kRate = 10;  ///< hourly rate (constant, see DESIGN.md)
constexpr const char* kEmp = "EMP";

Expr IdIs(const Expr& id) { return Eq(Attr("id"), id); }

/// I_sal for employee i: rate * num_hrs == sal for that record (Example 2).
Expr SalInvariant(int64_t i) {
  return Forall(kEmp, IdIs(Lit(i)),
                Eq(Mul(Lit(kRate), Attr("num_hrs")), Attr("sal")));
}

/// Example 2's Hours(i, h): two separate writes that individually break
/// I_sal but jointly preserve it.
TransactionType MakeHours() {
  TransactionType type;
  type.name = "Hours";
  type.make = [](const std::map<std::string, Value>& params) {
    const int64_t i = params.at("i").AsInt();
    const Expr ii = SalInvariant(i);
    const Expr b = Ge(Local("h"), Lit(int64_t{0}));

    ProgramBuilder builder("Hours");
    builder.IPart(ii).BPart(b);
    builder.Pre(And(ii, b))
        .Update(kEmp, IdIs(Lit(i)),
                {{"num_hrs", Add(Attr("num_hrs"), Local("h"))}});
    // Intermediate: salary still reflects the *old* hours.
    builder
        .Pre(And(b, Forall(kEmp, IdIs(Lit(i)),
                           Eq(Mul(Lit(kRate),
                                  Sub(Attr("num_hrs"), Local("h"))),
                              Attr("sal")))))
        .Update(kEmp, IdIs(Lit(i)),
                {{"sal", Add(Attr("sal"), Mul(Lit(kRate), Local("h")))}});
    builder.Result(True());
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"i", Value::Int(1)}, {"h", Value::Int(2)}}};
  return type;
}

/// Example 2's Print_Records(i): one atomic read of the record; the
/// specification requires the printed record to be a consistent snapshot
/// (the postcondition asserts the record satisfied I_sal when read).
TransactionType MakePrintRecords() {
  TransactionType type;
  type.name = "Print_Records";
  type.make = [](const std::map<std::string, Value>& params) {
    const int64_t i = params.at("i").AsInt();
    const Expr ii = SalInvariant(i);

    ProgramBuilder builder("Print_Records");
    builder.IPart(ii);
    builder.Pre(ii).SelectRows("rec", kEmp, IdIs(Lit(i)));
    // Postcondition of the read == precondition of the (local) print step.
    builder.Pre(ii).Let("printed", Lit(true));
    builder.Result(Eq(Local("printed"), Lit(true)));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"i", Value::Int(1)}}};
  return type;
}

}  // namespace

Workload MakePayrollWorkload(int employees) {
  Workload w;
  w.app.name = "payroll";
  w.app.types = {MakeHours(), MakePrintRecords()};
  std::vector<Expr> invariant;
  for (int i = 0; i < employees; ++i) invariant.push_back(SalInvariant(i));
  w.app.invariant = And(std::move(invariant));
  w.app.shapes[kEmp] = TableShape{{{"id", Value::Type::kInt},
                                   {"num_hrs", Value::Type::kInt},
                                   {"sal", Value::Type::kInt}}};

  w.setup = [employees](Store* store) -> Status {
    Status s = store->CreateTable(
        kEmp, Schema({{"id", Value::Type::kInt},
                      {"num_hrs", Value::Type::kInt},
                      {"sal", Value::Type::kInt}}));
    if (!s.ok()) return s;
    for (int i = 0; i < employees; ++i) {
      Result<RowId> row = store->LoadRow(
          kEmp, Tuple{{"id", Value::Int(i)},
                      {"num_hrs", Value::Int(8)},
                      {"sal", Value::Int(8 * kRate)}});
      if (!row.ok()) return row.status();
    }
    return Status::Ok();
  };

  w.draw_params = [employees](const std::string& name, Rng& rng) {
    ParamList params;
    params.emplace_back("i", Value::Int(rng.Uniform(0, employees - 1)));
    if (name == "Hours") {
      params.emplace_back("h", Value::Int(rng.Uniform(1, 8)));
    }
    return params;
  };

  w.paper_levels = {{"Hours", IsoLevel::kReadCommitted},
                    {"Print_Records", IsoLevel::kReadCommitted}};
  w.mix = {{"Hours", 0.5}, {"Print_Records", 0.5}};

  // Explorer scenario: an hours update racing the report printer (§5's
  // READ COMMITTED discussion — Print_Records only needs a consistent view
  // per record, so RC is enough and exploration should find no anomaly).
  w.explore_mixes = {
      {"hours_print",
       "hours update concurrent with record printing",
       {{"Hours", {{"i", Value::Int(1)}, {"h", Value::Int(4)}}},
        {"Print_Records", {{"i", Value::Int(1)}}}}},
  };
  return w;
}

}  // namespace semcor
