#include "common/str_util.h"
#include "sem/prog/builder.h"
#include "workload/workload.h"

namespace semcor {

namespace {

constexpr const char* kCust = "CUST";

/// I_c (Example 1): every customer record has a valid (non-empty) name and
/// address.
Expr CustInvariant() {
  return Forall(kCust, True(),
                And(Ne(Attr("name"), Lit(std::string())),
                    Ne(Attr("address"), Lit(std::string()))));
}

/// Example 1's Mailing_List: scans the array and prints labels; the weak
/// specification only requires printed labels to be *valid*, which I_c
/// guarantees at any instant — even against uncommitted data.
TransactionType MakeMailingList() {
  TransactionType type;
  type.name = "Mailing_List";
  type.make = [](const std::map<std::string, Value>& params) {
    ProgramBuilder builder("Mailing_List");
    builder.IPart(CustInvariant());
    builder.Pre(CustInvariant()).SelectRows("labels", kCust, True());
    builder.Pre(CustInvariant()).Let("printed", Lit(true));
    builder.Result(Eq(Local("printed"), Lit(true)));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{}};
  return type;
}

/// Example 2's strengthened Mailing_List: every printed label must refer to
/// a (still-existing) customer — the rollback of a New_Order invalidates
/// this at READ UNCOMMITTED.
TransactionType MakeMailingListStrong() {
  TransactionType type;
  type.name = "Mailing_List_Strong";
  type.make = [](const std::map<std::string, Value>& params) {
    const Expr name_is = Eq(Attr("name"), Local("c"));
    ProgramBuilder builder("Mailing_List_Strong");
    builder.IPart(CustInvariant());
    builder.Pre(CustInvariant())
        .SelectAgg("found", Exists(kCust, name_is));
    // If we printed c's label, c is a customer.
    builder.Pre(And(CustInvariant(),
                    Implies(Local("found"), Exists(kCust, name_is))))
        .Let("printed", Local("found"));
    builder.Result(Implies(Local("printed"), Exists(kCust, name_is)));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"c", Value::Str("a")}}};
  return type;
}

/// Example 1's New_Order restricted to the customer table: inserts the
/// customer's record if this is their first order. A rollback deletes the
/// inserted record again (the interference Example 2 turns on).
TransactionType MakeNewOrderCust() {
  TransactionType type;
  type.name = "New_Order_Cust";
  type.make = [](const std::map<std::string, Value>& params) {
    const Expr ic = CustInvariant();
    const Expr b = And(Ne(Local("customer"), Lit(std::string())),
                       Ne(Local("address"), Lit(std::string())));
    const Expr name_is = Eq(Attr("name"), Local("customer"));

    ProgramBuilder builder("New_Order_Cust");
    builder.IPart(ic).BPart(b);
    builder.Pre(And(ic, b)).SelectAgg("cnt", Count(kCust, name_is));
    builder.Pre(And(ic, b))
        .If(Eq(Local("cnt"), Lit(int64_t{0})), [&](ProgramBuilder& then_block) {
          then_block.Pre(And(ic, b))
              .Insert(kCust, {{"name", Local("customer")},
                              {"address", Local("address")}});
        });
    builder.Result(Exists(kCust, name_is));
    return builder.Build(params);
  };
  type.analysis_scenarios = {
      {{"customer", Value::Str("a")}, {"address", Value::Str("b")}}};
  return type;
}

}  // namespace

Workload MakeMailingWorkload() {
  Workload w;
  w.app.name = "mailing";
  w.app.types = {MakeMailingList(), MakeMailingListStrong(),
                 MakeNewOrderCust()};
  w.app.invariant = CustInvariant();
  w.app.shapes[kCust] = TableShape{
      {{"name", Value::Type::kString}, {"address", Value::Type::kString}}};

  w.setup = [](Store* store) -> Status {
    Status s = store->CreateTable(kCust, Schema({{"name", Value::Type::kString},
                                                 {"address",
                                                  Value::Type::kString}}));
    if (!s.ok()) return s;
    for (const char* name : {"a", "b", "c"}) {
      Result<RowId> row = store->LoadRow(
          kCust,
          Tuple{{"name", Value::Str(name)}, {"address", Value::Str("addr")}});
      if (!row.ok()) return row.status();
    }
    return Status::Ok();
  };

  w.draw_params = [](const std::string& name, Rng& rng) {
    static const char* kNames[] = {"a", "b", "c", "d", "e", "f"};
    ParamList params;
    const char* customer = kNames[rng.Uniform(0, 5)];
    if (name == "Mailing_List_Strong") {
      params.emplace_back("c", Value::Str(customer));
    } else if (name == "New_Order_Cust") {
      params.emplace_back("customer", Value::Str(customer));
      params.emplace_back("address", Value::Str("addr"));
    }
    return params;
  };

  w.paper_levels = {{"Mailing_List", IsoLevel::kReadUncommitted},
                    {"Mailing_List_Strong", IsoLevel::kReadCommitted},
                    {"New_Order_Cust", IsoLevel::kReadCommitted}};
  w.mix = {{"Mailing_List", 0.3},
           {"Mailing_List_Strong", 0.3},
           {"New_Order_Cust", 0.4}};
  return w;
}

}  // namespace semcor
