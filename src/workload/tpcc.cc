#include "common/str_util.h"
#include "sem/prog/builder.h"
#include "workload/workload.h"

namespace semcor {

namespace {

constexpr const char* kOrder = "OORDER";
constexpr const char* kStock = "STOCK";
constexpr const char* kOline = "OLINE";

// Districts and customers are addressed by *global* index: district
// g = w * districts_per_wh + d, customer c = w * customers_per_wh + k.
// Stock is per-warehouse: one STOCK row per (w_id, i_id).
std::string NextOid(int64_t d) { return ItemName("district", d, "next_o_id"); }
std::string DistYtd(int64_t d) { return ItemName("district", d, "ytd"); }
std::string Balance(int64_t c) { return ItemName("customer", c, "balance"); }
std::string YtdPay(int64_t c) { return ItemName("customer", c, "ytd_payment"); }
std::string WhYtd(int64_t wh) { return ItemName("warehouse", wh, "ytd"); }

/// Stock quantities never go negative (TNewOrder's guarded decrement).
Expr StockNonNeg() {
  return Forall(kStock, True(), Ge(Attr("quantity"), Lit(int64_t{0})));
}

/// The district's revenue counter equals the total of its order lines.
Expr RevenueConsistent(int64_t d) {
  return Eq(DbVar(DistYtd(d)),
            SumOf(kOline, "amount", Eq(Attr("d_id"), Lit(d))));
}

/// Orders of district d have ids below the district's next-order counter.
Expr OrdersBound(int64_t d) {
  return And(Ge(DbVar(NextOid(d)), Lit(int64_t{1})),
             Forall(kOrder, Eq(Attr("d_id"), Lit(d)),
                    Lt(Attr("o_id"), DbVar(NextOid(d)))));
}

/// TPC-C consistency condition 1 (lite): each customer's balance plus
/// payment history is conserved at the loaded 100 — TPayment debits the
/// balance by exactly what it books into ytd_payment.
Expr CustomerConserved(int64_t c) {
  return Eq(Add(DbVar(Balance(c)), DbVar(YtdPay(c))), Lit(int64_t{100}));
}

/// TPC-C consistency condition 2 (lite): the warehouses' YTD counters
/// account for exactly the money the customers' payment histories record —
/// a payment is atomic across the warehouse counter and the history, even
/// when it pays for a remote warehouse's customer.
Expr MoneyConserved(int warehouses, int customers_total) {
  Expr wh = Lit(int64_t{0});
  for (int w = 0; w < warehouses; ++w) wh = Add(wh, DbVar(WhYtd(w)));
  Expr pay = Lit(int64_t{0});
  for (int c = 0; c < customers_total; ++c) pay = Add(pay, DbVar(YtdPay(c)));
  return Eq(wh, pay);
}

/// TPC-C NewOrder: allocate an order id, insert the order, decrement stock
/// at the supplying warehouse (guarded; ~10% of draws supply from a remote
/// warehouse), book the revenue, and — per the spec's 1% rule — roll the
/// whole transaction back after doing the work when `rollback` is set. The
/// equality annotation on the counter read forces RC-FCW, exactly like §6's
/// one-order-per-day New_Order.
TransactionType MakeTNewOrder() {
  TransactionType type;
  type.name = "TNewOrder";
  type.make = [](const std::map<std::string, Value>& params) {
    const int64_t d = params.at("d").AsInt();
    // A bool from the generator; a nonzero int from a wire client, whose
    // explicit parameters are all integers.
    const auto flag = params.find("rollback");
    const bool rollback =
        flag != params.end() && (flag->second.is_bool()
                                     ? flag->second.AsBool()
                                     : flag->second.AsInt() != 0);
    const std::string counter = NextOid(d);
    const std::string dytd = DistYtd(d);
    const Expr ii = And({StockNonNeg(), OrdersBound(d), RevenueConsistent(d)});
    const Expr b = And(Ge(Local("qty"), Lit(int64_t{1})),
                       Le(Local("qty"), Lit(int64_t{10})));

    ProgramBuilder builder("TNewOrder");
    builder.IPart(ii).BPart(b);
    builder.Pre(And(ii, b)).Read("next", counter);
    builder.Pre(And({ii, b, Eq(DbVar(counter), Local("next"))}))
        .Write(counter, Add(Local("next"), Lit(int64_t{1})));
    const Expr mid = And({StockNonNeg(), b, RevenueConsistent(d),
                          Eq(DbVar(counter), Add(Local("next"), Lit(int64_t{1}))),
                          Forall(kOrder, Eq(Attr("d_id"), Lit(d)),
                                 Lt(Attr("o_id"), DbVar(counter)))});
    builder.Pre(mid).Insert(kOrder, {{"o_id", Local("next")},
                                     {"d_id", Lit(d)},
                                     {"c_id", Local("c")},
                                     {"delivered", Lit(false)}});
    builder.Pre(mid).Update(
        kStock,
        And({Eq(Attr("w_id"), Local("supply_w")),
             Eq(Attr("i_id"), Local("item")),
             Ge(Attr("quantity"), Local("qty"))}),
        {{"quantity", Sub(Attr("quantity"), Local("qty"))}});
    // Revenue: book the order line and the district YTD together. The YTD
    // read is followed by a write of the same item (RC-FCW protected).
    builder.Pre(mid).Let("amount", Mul(Local("qty"), Lit(int64_t{5})));
    builder.Pre(mid).Read("dytd", dytd);
    builder.Pre(And(mid, Eq(DbVar(dytd), Local("dytd"))))
        .Write(dytd, Add(Local("dytd"), Local("amount")));
    // Mid-state: the counter leads the booked lines by exactly `amount`.
    const Expr revenue_pending =
        Eq(DbVar(dytd),
           Add(SumOf(kOline, "amount", Eq(Attr("d_id"), Lit(d))),
               Local("amount")));
    builder.Pre(And(mid, revenue_pending))
        .Insert(kOline, {{"o_id", Local("next")},
                         {"d_id", Lit(d)},
                         {"amount", Local("amount")}});
    // TPC-C 2.4.1.4: 1% of NewOrders are given an unused item number and
    // must roll back after performing the full order entry. The undo path
    // exercises rollback of real writes, not an early bail-out.
    if (rollback) builder.Abort();
    builder.Result(Exists(kOrder, And(Eq(Attr("o_id"), Local("next")),
                                      Eq(Attr("d_id"), Lit(d)))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"d", Value::Int(1)},
                              {"c", Value::Int(1)},
                              {"item", Value::Int(1)},
                              {"supply_w", Value::Int(0)},
                              {"qty", Value::Int(3)},
                              {"rollback", Value::Bool(false)}}};
  return type;
}

/// TPC-C Payment: move money, maintain the home warehouse's YTD. ~15% of
/// draws pay for a customer who belongs to a remote warehouse, so the
/// conservation invariants span warehouses. Both reads are followed by
/// writes of the same item (RC-FCW protected).
TransactionType MakeTPayment() {
  TransactionType type;
  type.name = "TPayment";
  type.make = [](const std::map<std::string, Value>& params) {
    const int64_t c = params.at("c").AsInt();
    const int64_t wh = params.at("w").AsInt();
    const std::string bal = Balance(c);
    const std::string ypay = YtdPay(c);
    const std::string wytd = WhYtd(wh);
    const Expr ii = Ge(DbVar(wytd), Lit(int64_t{0}));
    const Expr b = Ge(Local("amount"), Lit(int64_t{1}));

    ProgramBuilder builder("TPayment");
    builder.IPart(ii).BPart(b);
    builder.Pre(And(ii, b)).Read("bal", bal);
    builder.Pre(And({ii, b, Eq(DbVar(bal), Local("bal"))}))
        .Write(bal, Sub(Local("bal"), Local("amount")));
    builder.Pre(And(ii, b)).Read("wytd", wytd);
    builder
        .Pre(And({b, Eq(DbVar(wytd), Local("wytd")),
                  Ge(Local("wytd"), Lit(int64_t{0}))}))
        .Write(wytd, Add(Local("wytd"), Local("amount")));
    builder.Pre(And(ii, b)).Read("ypay", ypay);
    builder.Pre(And({ii, b, Eq(DbVar(ypay), Local("ypay"))}))
        .Write(ypay, Add(Local("ypay"), Local("amount")));
    builder.Result(ii);
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"c", Value::Int(1)},
                              {"w", Value::Int(0)},
                              {"amount", Value::Int(5)}}};
  return type;
}

/// TPC-C OrderStatus: read-only, weak (approximate) specification — correct
/// at READ UNCOMMITTED, and declared READ ONLY so SSI applies the Cahill
/// read-only optimization when the mix runs there.
TransactionType MakeTOrderStatus() {
  TransactionType type;
  type.name = "TOrderStatus";
  type.make = [](const std::map<std::string, Value>& params) {
    const int64_t c = params.at("c").AsInt();
    ProgramBuilder builder("TOrderStatus");
    builder.Pre(True()).Read("bal", Balance(c));
    builder.Pre(True()).SelectAgg(
        "orders", Count(kOrder, Eq(Attr("c_id"), Lit(c))));
    builder.Result(True());
    TxnProgram program = builder.Build(params);
    program.declared_read_only = true;
    return program;
  };
  type.analysis_scenarios = {{{"c", Value::Int(1)}}};
  return type;
}

/// TPC-C Delivery: deliver all undelivered orders of a district below the
/// horizon read from the district counter. REPEATABLE READ suffices via
/// Theorem 6 condition (2), mirroring §6's Delivery.
TransactionType MakeTDelivery() {
  TransactionType type;
  type.name = "TDelivery";
  type.make = [](const std::map<std::string, Value>& params) {
    const int64_t d = params.at("d").AsInt();
    const std::string counter = NextOid(d);
    const Expr due = And({Eq(Attr("d_id"), Lit(d)),
                          Eq(Attr("delivered"), Lit(false)),
                          Lt(Attr("o_id"), Local("h"))});
    const Expr ii = OrdersBound(d);

    ProgramBuilder builder("TDelivery");
    builder.IPart(ii);
    builder.Pre(ii).Read("h", counter);
    const Expr horizon = And(ii, Le(Local("h"), DbVar(counter)));
    builder.Pre(horizon).SelectRows("due", kOrder, due);
    builder
        .Pre(And(horizon, Eq(Count(kOrder, due), Local("due_count"))))
        .Update(kOrder, due, {{"delivered", Lit(true)}});
    builder.Result(And(Le(Local("h"), DbVar(counter)),
                       Forall(kOrder,
                              And(Eq(Attr("d_id"), Lit(d)),
                                  Lt(Attr("o_id"), Local("h"))),
                              Eq(Attr("delivered"), Lit(true)))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"d", Value::Int(1)}}};
  return type;
}

/// TPC-C StockLevel: approximate count of the home warehouse's low-stock
/// items — READ UNCOMMITTED per its weak specification, declared READ ONLY
/// for the SSI optimization.
TransactionType MakeTStockLevel() {
  TransactionType type;
  type.name = "TStockLevel";
  type.make = [](const std::map<std::string, Value>& params) {
    ProgramBuilder builder("TStockLevel");
    builder.Pre(True()).SelectAgg(
        "low", Count(kStock, And(Eq(Attr("w_id"), Local("w")),
                                 Lt(Attr("quantity"), Local("threshold")))));
    builder.Result(True());
    TxnProgram program = builder.Build(params);
    program.declared_read_only = true;
    return program;
  };
  type.analysis_scenarios = {{{"w", Value::Int(0)},
                              {"threshold", Value::Int(5)}}};
  return type;
}

}  // namespace

Workload MakeTpccWorkload(int warehouses, int districts, int customers,
                          int items) {
  // Dimensions are per-warehouse; flatten to global indices for item keys.
  const int districts_total = warehouses * districts;
  const int customers_total = warehouses * customers;

  Workload w;
  w.app.name = "tpcc";
  w.app.types = {MakeTNewOrder(), MakeTPayment(), MakeTOrderStatus(),
                 MakeTDelivery(), MakeTStockLevel()};
  std::vector<Expr> invariant = {StockNonNeg(),
                                 MoneyConserved(warehouses, customers_total)};
  for (int wh = 0; wh < warehouses; ++wh) {
    invariant.push_back(Ge(DbVar(WhYtd(wh)), Lit(int64_t{0})));
  }
  for (int d = 0; d < districts_total; ++d) {
    invariant.push_back(OrdersBound(d));
    invariant.push_back(RevenueConsistent(d));
  }
  for (int c = 0; c < customers_total; ++c) {
    invariant.push_back(CustomerConserved(c));
  }
  w.app.invariant = And(std::move(invariant));
  w.app.shapes[kOrder] = TableShape{{{"o_id", Value::Type::kInt},
                                     {"d_id", Value::Type::kInt},
                                     {"c_id", Value::Type::kInt},
                                     {"delivered", Value::Type::kBool}}};
  w.app.shapes[kStock] = TableShape{{{"w_id", Value::Type::kInt},
                                     {"i_id", Value::Type::kInt},
                                     {"quantity", Value::Type::kInt}}};
  w.app.shapes[kOline] = TableShape{{{"o_id", Value::Type::kInt},
                                     {"d_id", Value::Type::kInt},
                                     {"amount", Value::Type::kInt}}};

  w.setup = [warehouses, districts_total, customers_total,
             items](Store* store) -> Status {
    Status s = Status::Ok();
    for (int wh = 0; wh < warehouses; ++wh) {
      s = store->CreateItem(WhYtd(wh), Value::Int(0));
      if (!s.ok()) return s;
    }
    for (int d = 0; d < districts_total; ++d) {
      s = store->CreateItem(NextOid(d), Value::Int(1));
      if (!s.ok()) return s;
      s = store->CreateItem(DistYtd(d), Value::Int(0));
      if (!s.ok()) return s;
    }
    for (int c = 0; c < customers_total; ++c) {
      s = store->CreateItem(Balance(c), Value::Int(100));
      if (!s.ok()) return s;
      s = store->CreateItem(YtdPay(c), Value::Int(0));
      if (!s.ok()) return s;
    }
    s = store->CreateTable(kOrder, Schema({{"o_id", Value::Type::kInt},
                                           {"d_id", Value::Type::kInt},
                                           {"c_id", Value::Type::kInt},
                                           {"delivered",
                                            Value::Type::kBool}}));
    if (!s.ok()) return s;
    s = store->CreateTable(kStock, Schema({{"w_id", Value::Type::kInt},
                                           {"i_id", Value::Type::kInt},
                                           {"quantity",
                                            Value::Type::kInt}}));
    if (!s.ok()) return s;
    s = store->CreateTable(kOline, Schema({{"o_id", Value::Type::kInt},
                                           {"d_id", Value::Type::kInt},
                                           {"amount", Value::Type::kInt}}));
    if (!s.ok()) return s;
    for (int wh = 0; wh < warehouses; ++wh) {
      for (int i = 0; i < items; ++i) {
        Result<RowId> row = store->LoadRow(
            kStock, Tuple{{"w_id", Value::Int(wh)},
                          {"i_id", Value::Int(i)},
                          {"quantity", Value::Int(100)}});
        if (!row.ok()) return row.status();
      }
    }
    return Status::Ok();
  };

  auto types = std::make_shared<std::vector<TransactionType>>(w.app.types);
  w.instantiate = [types, warehouses, districts, customers, items](
                      const std::string& name,
                      Rng& rng) -> std::shared_ptr<const TxnProgram> {
    for (const TransactionType& type : *types) {
      if (type.name != name) continue;
      // Home warehouse, then per-warehouse indices flattened to global.
      const int64_t home = rng.Uniform(0, warehouses - 1);
      auto remote_wh = [&]() -> int64_t {
        if (warehouses < 2) return home;
        const int64_t r = rng.Uniform(0, warehouses - 2);
        return r >= home ? r + 1 : r;
      };
      std::map<std::string, Value> params;
      if (name == "TNewOrder") {
        params["d"] = Value::Int(home * districts +
                                 rng.Uniform(0, districts - 1));
        params["c"] = Value::Int(home * customers +
                                 rng.Uniform(0, customers - 1));
        params["item"] = Value::Int(rng.Uniform(0, items - 1));
        // TPC-C 2.4.1.5 supplies ~1% of order *lines* remotely; with a
        // single line per order we use 10% so remote-warehouse contention
        // stays visible at bench scale.
        params["supply_w"] =
            Value::Int(rng.Bernoulli(0.10) ? remote_wh() : home);
        params["qty"] = Value::Int(rng.Uniform(1, 10));
        params["rollback"] = Value::Bool(rng.Bernoulli(0.01));
      } else if (name == "TPayment") {
        params["w"] = Value::Int(home);
        // TPC-C 2.5.1.2: 15% of payments are for a remote customer.
        const int64_t cust_wh = rng.Bernoulli(0.15) ? remote_wh() : home;
        params["c"] = Value::Int(cust_wh * customers +
                                 rng.Uniform(0, customers - 1));
        params["amount"] = Value::Int(rng.Uniform(1, 20));
      } else if (name == "TOrderStatus") {
        params["c"] = Value::Int(home * customers +
                                 rng.Uniform(0, customers - 1));
      } else if (name == "TDelivery") {
        params["d"] = Value::Int(home * districts +
                                 rng.Uniform(0, districts - 1));
      } else if (name == "TStockLevel") {
        params["w"] = Value::Int(home);
        params["threshold"] = Value::Int(rng.Uniform(5, 50));
      }
      return std::make_shared<TxnProgram>(type.make(params));
    }
    return nullptr;
  };

  w.paper_levels = {{"TNewOrder", IsoLevel::kReadCommittedFcw},
                    {"TPayment", IsoLevel::kReadCommittedFcw},
                    {"TOrderStatus", IsoLevel::kReadUncommitted},
                    {"TDelivery", IsoLevel::kRepeatableRead},
                    {"TStockLevel", IsoLevel::kReadUncommitted}};
  // TPC-C 5.2.3 standard mix (decimals of the required minimums).
  w.mix = {{"TNewOrder", 0.45},
           {"TPayment", 0.43},
           {"TOrderStatus", 0.04},
           {"TDelivery", 0.04},
           {"TStockLevel", 0.04}};
  // TPC-C 5.2.5.7 keying + mean think times, scaled 1000x down (spec
  // seconds -> milliseconds, stored in µs) so closed-loop harnesses can
  // honour the spec's pacing shape without multi-second test runs.
  w.think_time_us = {{"TNewOrder", 30000},
                     {"TPayment", 15000},
                     {"TOrderStatus", 12000},
                     {"TDelivery", 7000},
                     {"TStockLevel", 7000}};
  return w;
}

}  // namespace semcor
