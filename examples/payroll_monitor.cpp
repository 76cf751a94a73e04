// Example 2 (Hours / Print_Records) with the runtime invalidation monitor:
// shows "interference is static, invalidation is dynamic" (§2). Hours'
// individual updates interfere with I_sal; at READ UNCOMMITTED the
// interleaving turns that into real invalidations, at READ COMMITTED the
// record lock prevents every one of them.

#include <cstdio>

#include "sem/rt/monitor.h"
#include "workload/workload.h"

using namespace semcor;

namespace {

void Demo(IsoLevel print_level) {
  Workload w = MakePayrollWorkload();
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  (void)w.setup(&store);
  StepDriver driver(&mgr);
  InvalidationMonitor monitor(&store, &driver);

  const ParamList hours = {{"i", Value::Int(1)}, {"h", Value::Int(4)}};
  driver.Add(w.Instantiate("Hours", hours).value(), IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Print_Records", {{"i", Value::Int(1)}}).value(),
             print_level);

  // Adversarial interleaving: Hours' first update lands between
  // Print_Records' control points.
  driver.RunSchedule({0, 1, 0, 1});
  driver.RunRoundRobin();

  std::printf("Print_Records at %-17s: %zu invalidation(s), %ld precondition "
              "violation(s)\n",
              IsoLevelName(print_level), monitor.events().size(),
              monitor.violated_preconditions());
  for (const InvalidationEvent& e : monitor.events()) {
    std::printf("    txn %d's active assertion falsified by txn %d's [%s]\n",
                e.victim, e.writer, e.writer_stmt.c_str());
  }
  if (!driver.run(1).txn().buffers.empty()) {
    const std::vector<Tuple>& rec = driver.run(1).txn().buffers.at("rec");
    if (!rec.empty()) {
      std::printf("    printed record: num_hrs=%lld sal=%lld (%s)\n",
                  static_cast<long long>(rec[0].at("num_hrs").AsInt()),
                  static_cast<long long>(rec[0].at("sal").AsInt()),
                  rec[0].at("sal").AsInt() ==
                          10 * rec[0].at("num_hrs").AsInt()
                      ? "consistent"
                      : "INCONSISTENT SNAPSHOT");
    }
  }
}

}  // namespace

int main() {
  std::printf("Hours updates emp[1] in two statements; I_sal = "
              "(rate * num_hrs == sal).\n\n");
  Demo(IsoLevel::kReadUncommitted);
  Demo(IsoLevel::kReadCommitted);
  Demo(IsoLevel::kRepeatableRead);
  return 0;
}
