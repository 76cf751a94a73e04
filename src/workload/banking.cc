#include "common/str_util.h"
#include "sem/prog/builder.h"
#include "workload/workload.h"

namespace semcor {

namespace {

std::string SavItem(int64_t i) { return ItemName("acct_sav", i, "bal"); }
std::string ChItem(int64_t i) { return ItemName("acct_ch", i, "bal"); }

/// I_i for account i: the combined balance is non-negative (Example 3's
/// I_bal).
Expr BalanceInvariant(int64_t i) {
  return Ge(Add(DbVar(SavItem(i)), DbVar(ChItem(i))), Lit(int64_t{0}));
}

/// Figure 1: Withdraw_sav(i, w) — and its mirror Withdraw_ch. `from_sav`
/// selects which account the money leaves.
TransactionType MakeWithdraw(bool from_sav) {
  TransactionType type;
  type.name = from_sav ? "Withdraw_sav" : "Withdraw_ch";
  type.make = [from_sav,
               name = type.name](const std::map<std::string, Value>& params) {
    const int64_t i = params.at("i").AsInt();
    const std::string sav = SavItem(i);
    const std::string ch = ChItem(i);
    const std::string target = from_sav ? sav : ch;
    const Expr ii = BalanceInvariant(i);
    const Expr b = Ge(Local("w"), Lit(int64_t{0}));
    const char* logical = from_sav ? "SAV0" : "CH0";

    ProgramBuilder builder(name);
    builder.IPart(ii).BPart(b);
    builder.Logical(logical, target);
    // Read both balances; the key stable facts (Figure 1): the combined
    // balance is at least what we saw, and the target balance we saw is the
    // initial one.
    builder.Pre(And(ii, b)).Read("Sav", sav);
    const Expr after_first =
        from_sav ? And({ii, b, Ge(DbVar(sav), Local("Sav")),
                        Eq(Local("Sav"), Logical(logical))})
                 : And({ii, b, Ge(DbVar(sav), Local("Sav"))});
    builder.Pre(after_first).Read("Ch", ch);
    const Expr seen_sum = Add(Local("Sav"), Local("Ch"));
    std::vector<Expr> read_step_parts = {
        ii, b, Ge(Add(DbVar(sav), DbVar(ch)), seen_sum)};
    if (from_sav) {
      read_step_parts.push_back(Ge(DbVar(ch), Local("Ch")));
      read_step_parts.push_back(Eq(Local("Sav"), Logical(logical)));
    } else {
      read_step_parts.push_back(Ge(DbVar(sav), Local("Sav")));
      read_step_parts.push_back(Eq(Local("Ch"), Logical(logical)));
    }
    const Expr read_step_post = And(read_step_parts);
    builder.Pre(read_step_post)
        .If(Ge(seen_sum, Local("w")), [&](ProgramBuilder& then_block) {
          then_block.Pre(And(read_step_post, Ge(seen_sum, Local("w"))))
              .Write(target, Sub(Local(from_sav ? "Sav" : "Ch"), Local("w")));
        });
    builder.Result(Implies(Ge(seen_sum, Local("w")),
                           Eq(DbVar(target), Sub(Logical(logical), Local("w")))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"i", Value::Int(1)}, {"w", Value::Int(2)}}};
  return type;
}

/// Example 3's Deposit_sav / Deposit_ch: bal := bal + dep with dep >= 0.
TransactionType MakeDeposit(bool to_sav) {
  TransactionType type;
  type.name = to_sav ? "Deposit_sav" : "Deposit_ch";
  type.make = [to_sav,
               name = type.name](const std::map<std::string, Value>& params) {
    const int64_t i = params.at("i").AsInt();
    const std::string target = to_sav ? SavItem(i) : ChItem(i);
    const Expr ii = BalanceInvariant(i);
    const Expr b = Ge(Local("d"), Lit(int64_t{0}));

    ProgramBuilder builder(name);
    builder.IPart(ii).BPart(b);
    builder.Logical("BAL0", target);
    builder.Pre(And(ii, b)).Read("X", target);
    builder
        .Pre(And({ii, b, Ge(DbVar(target), Local("X")),
                  Eq(Local("X"), Logical("BAL0"))}))
        .Write(target, Add(Local("X"), Local("d")));
    builder.Result(Eq(DbVar(target), Add(Logical("BAL0"), Local("d"))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"i", Value::Int(1)}, {"d", Value::Int(3)}}};
  return type;
}

}  // namespace

Workload MakeBankingWorkload(int accounts) {
  Workload w;
  w.app.name = "banking";
  w.app.types = {MakeWithdraw(true), MakeWithdraw(false), MakeDeposit(true),
                 MakeDeposit(false)};
  std::vector<Expr> invariant;
  for (int i = 0; i < accounts; ++i) invariant.push_back(BalanceInvariant(i));
  w.app.invariant = And(std::move(invariant));
  // Conventional database: no tables.

  w.setup = [accounts](Store* store) -> Status {
    for (int i = 0; i < accounts; ++i) {
      Status s = store->CreateItem(SavItem(i), Value::Int(10));
      if (!s.ok()) return s;
      s = store->CreateItem(ChItem(i), Value::Int(10));
      if (!s.ok()) return s;
    }
    return Status::Ok();
  };

  w.draw_params = [accounts](const std::string& name, Rng& rng) {
    ParamList params;
    params.emplace_back("i", Value::Int(rng.Uniform(0, accounts - 1)));
    const char* amount = StartsWith(name, "Deposit") ? "d" : "w";
    params.emplace_back(amount, Value::Int(rng.Uniform(1, 5)));
    return params;
  };

  w.paper_levels = {{"Withdraw_sav", IsoLevel::kRepeatableRead},
                    {"Withdraw_ch", IsoLevel::kRepeatableRead},
                    {"Deposit_sav", IsoLevel::kRepeatableRead},
                    {"Deposit_ch", IsoLevel::kRepeatableRead}};
  w.mix = {{"Withdraw_sav", 0.35},
           {"Withdraw_ch", 0.35},
           {"Deposit_sav", 0.15},
           {"Deposit_ch", 0.15}};

  // Pinned scenarios for the schedule explorer. Balances start at 10+10;
  // w=15 makes each withdrawal admissible against the sum (20) but not
  // against either account alone — the Example 3 write-skew setup. Random
  // draws (1..5) can never reach that regime.
  w.explore_mixes = {
      {"write_skew",
       "Example 3: concurrent sav/ch withdrawals overdraw under SNAPSHOT",
       {{"Withdraw_sav", {{"i", Value::Int(1)}, {"w", Value::Int(15)}}},
        {"Withdraw_ch", {{"i", Value::Int(1)}, {"w", Value::Int(15)}}}}},
      {"lost_update",
       "two deposits to one account; lost update below REPEATABLE READ",
       {{"Deposit_sav", {{"i", Value::Int(1)}, {"d", Value::Int(5)}}},
        {"Deposit_sav", {{"i", Value::Int(1)}, {"d", Value::Int(7)}}}}},
      {"disjoint_deposits",
       "deposits to disjoint accounts; anomaly-free at every level",
       {{"Deposit_sav", {{"i", Value::Int(0)}, {"d", Value::Int(3)}}},
        {"Deposit_ch", {{"i", Value::Int(1)}, {"d", Value::Int(4)}}}}},
      {"write_skew_padded",
       "write_skew plus an unrelated deposit (shrinker exercise)",
       {{"Withdraw_sav", {{"i", Value::Int(1)}, {"w", Value::Int(15)}}},
        {"Withdraw_ch", {{"i", Value::Int(1)}, {"w", Value::Int(15)}}},
        {"Deposit_sav", {{"i", Value::Int(0)}, {"d", Value::Int(3)}}}}},
  };
  return w;
}

}  // namespace semcor
