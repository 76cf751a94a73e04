#include "common/str_util.h"
#include "sem/prog/builder.h"
#include "workload/workload.h"

namespace semcor {

namespace {

constexpr const char* kOrders = "ORDERS";
constexpr const char* kCust = "CUST";
constexpr const char* kMaxDate = "maximum_date";

/// I_c: every customer record has a valid name.
Expr CustValid() {
  return Forall(kCust, True(), Ne(Attr("cust_name"), Lit(std::string())));
}

/// Delivery dates are in [1, maximum_date] and the counter is sane. This is
/// the machine-checkable core of the paper's "no gaps" discussion: the
/// MAXDATE counter bounds every outstanding order (I_max's stable half).
Expr DateBounds() {
  return And(Ge(DbVar(kMaxDate), Lit(int64_t{0})),
             Forall(kOrders, True(),
                    And(Ge(Attr("deliv_date"), Lit(int64_t{1})),
                        Le(Attr("deliv_date"), DbVar(kMaxDate)))));
}

/// "one_order_per_day": together with DateBounds, |ORDERS| == maximum_date
/// forces exactly one order per day in [1, maximum_date].
Expr OneOrderPerDay() {
  return Eq(Count(kOrders, True()), DbVar(kMaxDate));
}

/// Mid-transaction variant of OneOrderPerDay: the counter was bumped but
/// the order is not inserted yet.
Expr OneOrderPerDayPending() {
  return Eq(Add(Count(kOrders, True()), Lit(int64_t{1})), DbVar(kMaxDate));
}

/// Figure 2: prints a mailing list; the weak specification makes it correct
/// at READ UNCOMMITTED.
TransactionType MakeMailingList() {
  TransactionType type;
  type.name = "Mailing_List";
  type.make = [](const std::map<std::string, Value>& params) {
    ProgramBuilder builder("Mailing_List");
    builder.IPart(CustValid());
    builder.Pre(CustValid()).SelectRows("labels", kCust, True());
    builder.Pre(CustValid()).Let("printed", Lit(true));
    builder.Result(Eq(Local("printed"), Lit(true)));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{}};
  return type;
}

/// Figure 3: processes a new order. With the "no gaps" business rule it is
/// correct at READ COMMITTED; with "one order per day" the equality
/// annotation on the MAXDATE read forces READ COMMITTED with
/// first-committer-wins (§6).
TransactionType MakeNewOrder(bool one_order_per_day) {
  TransactionType type;
  type.name = "New_Order";
  type.make = [one_order_per_day](const std::map<std::string, Value>& params) {
    const Expr b = Ne(Local("customer"), Lit(std::string()));
    std::vector<Expr> ii_parts = {CustValid(), DateBounds()};
    if (one_order_per_day) ii_parts.push_back(OneOrderPerDay());
    const Expr ii = And(ii_parts);

    ProgramBuilder builder("New_Order");
    builder.IPart(ii).BPart(b);

    builder.Pre(And(ii, b)).Read("maxdate", kMaxDate);
    // Postcondition of the MAXDATE read: weak (monotone) under "no gaps",
    // an equality under "one order per day" — the paper's crux. The read is
    // followed by a write of the same item, so Theorem 3 exempts it.
    const Expr read_post =
        one_order_per_day
            ? And({ii, b, Eq(DbVar(kMaxDate), Local("maxdate"))})
            : And({ii, b, Ge(DbVar(kMaxDate), Local("maxdate"))});
    builder.Pre(read_post).Write(kMaxDate,
                                 Add(Local("maxdate"), Lit(int64_t{1})));

    // After the UPDATE of MAXDATE (I'_max): the counter is exactly one past
    // the value we read; under one-order-per-day the order count lags by
    // one. This annotation follows a write, so it is lock-protected and not
    // an interference obligation.
    std::vector<Expr> mid_parts = {CustValid(), DateBounds(), b,
                                   Eq(DbVar(kMaxDate),
                                      Add(Local("maxdate"), Lit(int64_t{1})))};
    if (one_order_per_day) mid_parts.push_back(OneOrderPerDayPending());
    const Expr mid = And(mid_parts);

    builder.Pre(mid).SelectAgg(
        "custcount", Count(kOrders, Eq(Attr("cust_name"), Local("customer"))));
    // Postcondition of the COUNT select (checked): only stable facts.
    std::vector<Expr> count_post_parts = {
        CustValid(), DateBounds(), b,
        Ge(DbVar(kMaxDate), Add(Local("maxdate"), Lit(int64_t{1})))};
    if (one_order_per_day) count_post_parts.push_back(OneOrderPerDayPending());
    const Expr count_post = And(count_post_parts);

    builder.Pre(count_post)
        .If(Eq(Local("custcount"), Lit(int64_t{0})),
            [&](ProgramBuilder& then_block) {
              then_block.Pre(mid).Insert(kCust,
                                         {{"cust_name", Local("customer")},
                                          {"address", Local("address")},
                                          {"num_orders", Lit(int64_t{1})}});
            },
            [&](ProgramBuilder& else_block) {
              else_block.Pre(mid).Update(
                  kCust, Eq(Attr("cust_name"), Local("customer")),
                  {{"num_orders", Add(Local("custcount"), Lit(int64_t{1}))}});
            });
    builder.Pre(mid).Insert(
        kOrders, {{"order_info", Local("order_info")},
                  {"cust_name", Local("customer")},
                  {"deliv_date", Add(Local("maxdate"), Lit(int64_t{1}))},
                  {"done", Lit(false)}});
    // Q_i, weakened per the paper's footnotes 3-4: the order and the
    // customer exist at commit time (mutable fields unconstrained).
    builder.Result(
        And(Exists(kOrders, Eq(Attr("order_info"), Local("order_info"))),
            Exists(kCust, Eq(Attr("cust_name"), Local("customer")))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"customer", Value::Str("a")},
                              {"address", Value::Str("addr")},
                              {"order_info", Value::Int(901)}}};
  return type;
}

/// Figure 4: delivers today's orders. The SELECT postcondition is interfered
/// with by another Delivery, but only through UPDATEs whose predicate
/// intersects the SELECT predicate — Theorem 6's condition (2) — so
/// REPEATABLE READ suffices.
TransactionType MakeDelivery() {
  TransactionType type;
  type.name = "Delivery";
  type.make = [](const std::map<std::string, Value>& params) {
    const Expr due_today = And(Eq(Attr("deliv_date"), Local("today")),
                               Eq(Attr("done"), Lit(false)));
    const Expr ii = And({DateBounds(), Ge(Local("today"), Lit(int64_t{1})),
                         Lt(Local("today"), DbVar(kMaxDate))});

    ProgramBuilder builder("Delivery");
    builder.IPart(ii);
    builder.Pre(ii).SelectRows("buff", kOrders, due_today);
    builder
        .Pre(And(ii, Eq(Count(kOrders, due_today), Local("buff_count"))))
        .Update(kOrders, due_today, {{"done", Lit(true)}});
    builder.Result(Forall(kOrders, Eq(Attr("deliv_date"), Local("today")),
                          Eq(Attr("done"), Lit(true))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"today", Value::Int(3)}}};
  return type;
}

/// Figure 5: audits order consistency; phantoms from New_Order defeat
/// REPEATABLE READ, so it must run SERIALIZABLE.
TransactionType MakeAudit() {
  TransactionType type;
  type.name = "Audit";
  type.make = [](const std::map<std::string, Value>& params) {
    const Expr orders_of_c = Eq(Attr("cust_name"), Local("customer"));
    const Expr oc = Eq(Count(kOrders, orders_of_c),
                       MaxOf(kCust, "num_orders", orders_of_c, 0));

    ProgramBuilder builder("Audit");
    builder.IPart(oc);
    builder.Pre(oc).SelectAgg("count1", Count(kOrders, orders_of_c));
    builder.Pre(And(oc, Eq(Local("count1"), Count(kOrders, orders_of_c))))
        .SelectAgg("count2", MaxOf(kCust, "num_orders", orders_of_c, 0));
    builder
        .Pre(And({oc, Eq(Local("count1"), Count(kOrders, orders_of_c)),
                  Eq(Local("count2"),
                     MaxOf(kCust, "num_orders", orders_of_c, 0))}))
        .Let("retv", Eq(Local("count1"), Local("count2")));
    builder.Result(Eq(Local("retv"), Lit(true)));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"customer", Value::Str("a")}}};
  return type;
}

}  // namespace

Workload MakeOrdersWorkload(bool one_order_per_day) {
  Workload w;
  w.app.name = one_order_per_day ? "orders_unique" : "orders";
  w.app.types = {MakeMailingList(), MakeNewOrder(one_order_per_day),
                 MakeDelivery(), MakeAudit()};
  std::vector<Expr> invariant = {CustValid(), DateBounds()};
  if (one_order_per_day) invariant.push_back(OneOrderPerDay());
  w.app.invariant = And(std::move(invariant));
  w.app.shapes[kOrders] = TableShape{{{"order_info", Value::Type::kInt},
                                      {"cust_name", Value::Type::kString},
                                      {"deliv_date", Value::Type::kInt},
                                      {"done", Value::Type::kBool}}};
  w.app.shapes[kCust] = TableShape{{{"cust_name", Value::Type::kString},
                                    {"address", Value::Type::kString},
                                    {"num_orders", Value::Type::kInt}}};

  w.setup = [](Store* store) -> Status {
    Status s = store->CreateItem(kMaxDate, Value::Int(5));
    if (!s.ok()) return s;
    s = store->CreateTable(kOrders,
                           Schema({{"order_info", Value::Type::kInt},
                                   {"cust_name", Value::Type::kString},
                                   {"deliv_date", Value::Type::kInt},
                                   {"done", Value::Type::kBool}}));
    if (!s.ok()) return s;
    s = store->CreateTable(kCust, Schema({{"cust_name", Value::Type::kString},
                                          {"address", Value::Type::kString},
                                          {"num_orders", Value::Type::kInt}}));
    if (!s.ok()) return s;
    // One order per day 1..5; customers a (3 orders) and b (2 orders).
    const char* owners[] = {"a", "b", "a", "b", "a"};
    for (int d = 1; d <= 5; ++d) {
      Result<RowId> row = store->LoadRow(
          kOrders, Tuple{{"order_info", Value::Int(d)},
                         {"cust_name", Value::Str(owners[d - 1])},
                         {"deliv_date", Value::Int(d)},
                         {"done", Value::Bool(false)}});
      if (!row.ok()) return row.status();
    }
    for (const auto& [name, orders] :
         std::vector<std::pair<std::string, int>>{{"a", 3}, {"b", 2}}) {
      Result<RowId> row = store->LoadRow(
          kCust, Tuple{{"cust_name", Value::Str(name)},
                       {"address", Value::Str("addr")},
                       {"num_orders", Value::Int(orders)}});
      if (!row.ok()) return row.status();
    }
    return Status::Ok();
  };

  w.draw_params = [](const std::string& name, Rng& rng) {
    static const char* kNames[] = {"a", "b", "c", "d", "e", "f"};
    ParamList params;
    if (name == "New_Order") {
      params.emplace_back("customer", Value::Str(kNames[rng.Uniform(0, 5)]));
      params.emplace_back("address", Value::Str("addr"));
      params.emplace_back("order_info",
                          Value::Int(rng.Uniform(1000, 99999999)));
    } else if (name == "Delivery") {
      params.emplace_back("today", Value::Int(rng.Uniform(1, 4)));
    } else if (name == "Audit") {
      params.emplace_back("customer", Value::Str(kNames[rng.Uniform(0, 5)]));
    }
    return params;
  };

  w.paper_levels = {
      {"Mailing_List", IsoLevel::kReadUncommitted},
      {"New_Order", one_order_per_day ? IsoLevel::kReadCommittedFcw
                                      : IsoLevel::kReadCommitted},
      {"Delivery", IsoLevel::kRepeatableRead},
      {"Audit", IsoLevel::kSerializable}};
  w.mix = {{"Mailing_List", 0.15},
           {"New_Order", 0.45},
           {"Delivery", 0.25},
           {"Audit", 0.15}};

  // Explorer scenario: two orders for the same customer racing on the
  // "next sequence number" read (§6's phantom / duplicate-order hazard).
  w.explore_mixes = {
      {"new_order_race",
       "two concurrent New_Order transactions for one customer",
       {{"New_Order",
         {{"customer", Value::Str("a")},
          {"address", Value::Str("addr")},
          {"order_info", Value::Int(101)}}},
        {"New_Order",
         {{"customer", Value::Str("a")},
          {"address", Value::Str("addr")},
          {"order_info", Value::Int(102)}}}}},
  };
  return w;
}

}  // namespace semcor
