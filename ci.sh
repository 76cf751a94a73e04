#!/bin/sh
# Tier-1 verification + a short exploration smoke test.
#
# 1. Clean-configure, build, and run the whole test suite.
# 2. Smoke-run the schedule explorer on the banking write-skew mix:
#    - SNAPSHOT must stay sound (exit 1 = static/dynamic contradiction);
#    - SERIALIZABLE must produce zero anomalies (--expect-no-anomalies).
set -eu

cd "$(dirname "$0")"

cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j)

# Static-analysis stage 1: clang-tidy over the analysis core, driven by the
# exported compile commands. Skipped (loudly) where clang-tidy is not
# installed — the checks still gate on developer machines and full CI
# images. --warnings-as-errors promotes every enabled check to a failure.
if command -v clang-tidy >/dev/null 2>&1; then
  clang-tidy -p build --quiet --warnings-as-errors='*' \
      src/sem/lint/parse_program.cc src/sem/lint/lint.cc \
      src/sem/check/incremental.cc src/sem/check/suitegen.cc \
      src/sem/logic/memo.cc src/sem/expr/hash.cc
else
  echo "ci.sh: clang-tidy not installed; skipping lint-the-linter stage"
fi

# Static-analysis stage 2: semcor_lint gates the example programs. The
# correctly-annotated application must lint clean; the deliberately
# under-leveled one must fail (exit 1) and its diagnostics must name the
# rejecting theorem — this is the contract editors and CI annotate on.
./build/examples/semcor_lint --program=examples/programs/banking.sem
if ./build/examples/semcor_lint --program=examples/programs/underleveled.sem \
    >lint_under.out 2>&1; then
  echo "ci.sh: FAIL — under-leveled example was not flagged"
  cat lint_under.out
  exit 1
fi
cat lint_under.out
grep -q 'Thm 1' lint_under.out
grep -q 'error' lint_under.out
rm -f lint_under.out

# ~5 seconds of exploration: the 252-schedule write-skew space is enumerated
# exhaustively and the rest of the budget is fuzzed.
./build/examples/semcor_explore --workload=banking --mix=write_skew \
    --level=snapshot --threads=4 --budget=50000 --seed=42
./build/examples/semcor_explore --workload=banking --mix=write_skew \
    --level=serializable --threads=4 --budget=2000 --seed=42 \
    --expect-no-anomalies

# The paper's §2/§6 story: the basic orders rule tolerates a lost
# maximum_date update at READ COMMITTED (replay divergence, still exit 0);
# under the strict "one order per day" rule first-committer-wins is required
# and eliminates every anomaly.
./build/examples/semcor_explore --workload=orders --mix=new_order_race \
    --level=rc --threads=2 --budget=300 --seed=7
./build/examples/semcor_explore --workload=orders_unique --mix=new_order_race \
    --level=rc_fcw --threads=2 --budget=300 --seed=7 --expect-no-anomalies

# Durability smoke: the crash-point matrix. Random write-skew schedules run
# against a WAL; every byte prefix a crash could leave must recover to a
# commit-order prefix of the schedule's history (exit 1 on any divergence).
./build/examples/semcor_explore --workload=banking --mix=write_skew \
    --level=serializable --crash-matrix=3 --seed=42
./build/examples/semcor_explore --workload=banking --mix=write_skew \
    --level=snapshot --crash-matrix=3 --seed=43

# Fault-injection stage, under ASan+UBSan: rebuild the explorer with
# sanitizers and run the banking write-skew mix at READ UNCOMMITTED with a
# fixed deterministic fault plan. The run must inject at least one fault
# (reproducible from the seed), keep the soundness cross-check green
# (exit 0), and trip no sanitizer.
cmake -B build-asan -S . -DSEMCOR_SANITIZE=ON
cmake --build build-asan -j"$(nproc)" --target semcor_explore
fault_out=$(./build-asan/examples/semcor_explore --workload=banking \
    --mix=write_skew --level=ru --threads=2 --budget=3000 --seed=42 \
    --faults=seed:7)
echo "$fault_out"
echo "$fault_out" | grep -q 'injected_faults=[1-9]'

# The sharded lock manager's multi-threaded stress battery must also be
# clean under ASan (use-after-free in the waiter queues would surface here),
# as must the WAL suite (codec round-trips, crash-point recovery, and
# committers sharing one fsync across threads), and the store and
# transaction suites (the bounded scans' equality index and its merge with
# pending rows, differential against the full scan).
cmake --build build-asan -j"$(nproc)" --target lock_shard_test wal_test \
    storage_test txn_test
for t in lock_shard_test wal_test storage_test txn_test; do
  ./build-asan/tests/"$t"
done

# ThreadSanitizer stage: the sharded lock manager and the WAL (committers
# fsyncing outside the append mutex) are the components with genuine
# cross-thread mutation, so their batteries — plus the executor, fault,
# network-server and chaos-proxy suites that drive them from worker threads —
# must come up race-free. So must the store, whose const bounded scans build
# the equality index under its mutex while writers install images, and the
# transaction manager, whose bounded aggregates race concurrent inserts.
cmake -B build-tsan -S . -DSEMCOR_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target lock_test lock_shard_test \
    executor_test fault_test net_test wal_test chaos_test storage_test txn_test
for t in lock_test lock_shard_test executor_test fault_test net_test wal_test \
    chaos_test storage_test txn_test; do
  ./build-tsan/tests/"$t"
done

# Network front-end stage: boot the server daemon on an ephemeral port, drive
# it with the bench client across explicit RU/RC/RR/SI sessions, and ask it to
# shut the server down. The client exits non-zero on any counter mismatch,
# invariant violation, or hang; the daemon must exit cleanly; the run must
# leave a parseable BENCH_E10.json behind.
rm -f BENCH_E10.json semcor_serverd.port
rm -rf ci_wal_e10
./build/examples/semcor_serverd --workload=banking --port=0 \
    --port-file=semcor_serverd.port --wal-dir=ci_wal_e10 --wal-fsync=group &
serverd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  test -s semcor_serverd.port && break
  sleep 0.2
done
./build/examples/semcor_bench_client --port="$(cat semcor_serverd.port)" \
    --threads=4 --txns=60 --levels=ru,rc,rr,si --report-id=E10 \
    --shutdown-server
wait "$serverd_pid"
rm -f semcor_serverd.port
rm -rf ci_wal_e10
test -s BENCH_E10.json
# One round trip per transaction: every inbound frame is an EXEC or a
# session frame — exactly. RunTxn never re-sends an EXEC; a regression to
# more than one request per transaction, or to a re-sent one, fails here.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
r = json.load(open("BENCH_E10.json"))
txns = r["committed"] + r["aborted"]
expected = txns + r["client_session_frames"]
assert txns > 0, r
assert r["server_frames_in"] == expected, (r["server_frames_in"], expected, r)
# Server latency gauges come from its histogram: present and ordered.
assert 0 < r["p50_us"] <= r["p95_us"] <= r["p99_us"], r
EOF
fi

# Lock-contention stage: every session at REPEATABLE READ, so conflicting
# transactions wait for each other inside the server's lock manager and
# wait-for-graph deadlocks abort one side. The run must finish (well inside
# the timeout) with the server's counters matching the client tallies.
rm -f semcor_serverd.port BENCH_E10RR.json
./build/examples/semcor_serverd --workload=banking --port=0 \
    --port-file=semcor_serverd.port --workers=4 &
serverd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  test -s semcor_serverd.port && break
  sleep 0.2
done
timeout 60 ./build/examples/semcor_bench_client \
    --port="$(cat semcor_serverd.port)" --threads=8 --txns=2000 --levels=rr \
    --report-id=E10RR --shutdown-server
wait "$serverd_pid"
rm -f semcor_serverd.port
test -s BENCH_E10RR.json
# The worker pool is the only in-flight bound: each EXEC runs start to
# finish on one of the 4 workers, however many sessions wait.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
r = json.load(open("BENCH_E10RR.json"))
assert 1 <= r["server_inflight_peak"] <= 4, r
EOF
fi

# A server that has already served a run: the client checks its tallies
# against the STATS deltas over its own run, so a second run against the
# same daemon must still report consistent counters.
rm -f semcor_serverd.port BENCH_E10again.json
./build/examples/semcor_serverd --workload=banking --port=0 \
    --port-file=semcor_serverd.port &
serverd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  test -s semcor_serverd.port && break
  sleep 0.2
done
./build/examples/semcor_bench_client --port="$(cat semcor_serverd.port)" \
    --threads=2 --txns=50 --levels=rc,si --report-id=E10again >/dev/null
second_run=$(./build/examples/semcor_bench_client \
    --port="$(cat semcor_serverd.port)" --threads=2 --txns=50 \
    --levels=rc,si --report-id=E10again --shutdown-server)
wait "$serverd_pid"
rm -f semcor_serverd.port BENCH_E10again.json
echo "$second_run" | grep -q "counters consistent"

# The WAL has one syncing policy ("group": each committer's fsync covers
# every commit appended before it starts) and no epoch knob: any other
# --wal-fsync name is a usage error at flag parse (exit 2, before any setup
# runs), and so is --group-commit-us, which is not a flag.
serverd_status=0
./build/examples/semcor_serverd --wal-fsync=per_commit >/dev/null 2>&1 \
    || serverd_status=$?
test "$serverd_status" -eq 2
serverd_status=0
./build/examples/semcor_serverd --group-commit-us=100 >/dev/null 2>&1 \
    || serverd_status=$?
test "$serverd_status" -eq 2
# The admission cap is gone (--workers bounds what is in flight), and so is
# its flag: naming it is a usage error.
serverd_status=0
./build/examples/semcor_serverd --max-inflight=4 >/dev/null 2>&1 \
    || serverd_status=$?
test "$serverd_status" -eq 2
# A session is held back only by not reading it; there is no session queue
# option and no BUSY to shed frames with, so --queue-limit is a usage error.
serverd_status=0
./build/examples/semcor_serverd --queue-limit=8 >/dev/null 2>&1 \
    || serverd_status=$?
test "$serverd_status" -eq 2

# Crash-recovery stage: the daemon serves from a WAL directory, dies by
# kill -9 mid-bench (torn tail and all), and a restart on the same directory
# must recover. The post-restart client requires invariant_ok=1 over the
# recovered state and counter parity for its own run; the JSON must report a
# non-trivial recovery.
rm -rf ci_wal_dir
rm -f BENCH_E10R.json semcor_serverd.port
./build/examples/semcor_serverd --workload=banking --port=0 \
    --port-file=semcor_serverd.port --wal-dir=ci_wal_dir --wal-fsync=group &
serverd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  test -s semcor_serverd.port && break
  sleep 0.2
done
./build/examples/semcor_bench_client --port="$(cat semcor_serverd.port)" \
    --threads=4 --txns=100000 --report-id=E10kill >/dev/null 2>&1 &
client_pid=$!
sleep 2
kill -9 "$serverd_pid"
wait "$client_pid" 2>/dev/null || true
wait "$serverd_pid" 2>/dev/null || true
rm -f semcor_serverd.port
./build/examples/semcor_serverd --workload=banking --port=0 \
    --port-file=semcor_serverd.port --wal-dir=ci_wal_dir --wal-fsync=group &
serverd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  test -s semcor_serverd.port && break
  sleep 0.2
done
./build/examples/semcor_bench_client --port="$(cat semcor_serverd.port)" \
    --threads=2 --txns=40 --report-id=E10R --shutdown-server
wait "$serverd_pid"
rm -f semcor_serverd.port
rm -rf ci_wal_dir
test -s BENCH_E10R.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
r = json.load(open("BENCH_E10R.json"))
assert r["server_invariant_ok"] == 1, r
assert r["counters_consistent"] == 1, r
assert r["server_recovered_commits"] >= 1, r
assert r["server_wal_appends"] >= 1, r
EOF
fi

# Chaos soak: seeded fault injection at both I/O boundaries. Phase 1 drives
# clients through the ChaosProxy (frame drops/truncation/duplication/delays/
# splitting) against a server with an idle deadline, then drains gracefully;
# phase 2 serves from a WAL under a seeded disk-fault plan with the panic
# fsync-failure policy, then recovers the faulted log and
# checks every acked commit survived. The binary exits non-zero if any
# oracle (no leaked sessions, nothing in flight, invariant intact, acked
# subset of recovered) fails; every fault replays from the seed.
rm -rf chaos_wal_dir BENCH_E12.json
./build/examples/semcor_chaos --duration-s=30 --threads=4 --seed=42
rm -rf chaos_wal_dir
test -s BENCH_E12.json
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json; assert json.load(open("BENCH_E12.json"))["all_ok"] == 1'
fi

# Machine-readable bench artifacts: every bench_e* emits BENCH_E<n>.json;
# CI produces the two cheap ones (substrate microbenches and the explorer
# scaling table) with small budgets — this checks the plumbing, not the
# numbers.
./build/bench/bench_e6_substrate --benchmark_min_time=0.05
test -s BENCH_E6.json
./build/bench/bench_e9_explore 5000
test -s BENCH_E9.json
./build/bench/bench_e11_wal --threads=2 --txns=30
test -s BENCH_E11.json
# Every durable commit is covered by some fsync, and no fsync covers none:
# the group row has 1 <= fsyncs <= committed.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
r = json.load(open("BENCH_E11.json"))
assert r["all_ok"] == 1, r
group = [c for c in r["configs"] if c["config"] == "group"]
assert len(group) == 1, r["configs"]
assert 1 <= group[0]["fsyncs"] <= group[0]["committed"], group[0]
EOF
fi

# E13: incremental static analysis at scale. The bench itself exits
# non-zero unless the warm re-check after a one-type edit is >= 10x faster
# than the cold O(K^2) sweep at K types.
./build/bench/bench_e13_advisor --types=200 --seed=7
test -s BENCH_E13.json

# Conformance-spec stage: semcor_spec executes every isolation-tester spec
# in tests/specs at all seven levels and diffs against the checked-in
# goldens (exit 1 on any disagreement — the gate is 100% conformance).
# E14 then re-runs the sweep as a bench, which additionally requires the
# two-ids fidelity target (16 SSI aborts = 12 false positives + 4 required
# over its 90 interleavings) and that level SSI leaves zero committed
# non-serializable executions; it must leave a parseable BENCH_E14.json.
./build/examples/semcor_spec tests/specs/*.spec
rm -f BENCH_E14.json
./build/bench/bench_e14_spec
test -s BENCH_E14.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
r = json.load(open("BENCH_E14.json"))
assert r["specs_run"] >= 12, r
assert r["specs_agreeing"] == r["specs_run"], r
assert r["two_ids_fidelity"] == 1, r
assert r["two_ids_ssi_false_positives"] == 12, r
# READ ONLY optimization: declaring s3 read-only must erase exactly the 12
# false positives and keep the 4 required aborts.
assert r["two_ids_ro_fidelity"] == 1, r
assert r["two_ids_ro_ssi_false_positives"] == 0, r
assert r["two_ids_ro_ssi_required"] == 4, r
assert r["ssi_nonser"] == 0, r
EOF
fi

# E5: the in-process TPC-C advisor study (per-type recommended levels and
# mixed-level executor runs) must complete and leave its JSON behind.
rm -f BENCH_E5.json
./build/bench/bench_e5_tpcc
test -s BENCH_E5.json

# TPC-C over the wire, stage 1 (smoke): the daemon serves the scaled
# workload; the closed-loop bench client pins two levels (SERIALIZABLE and
# SNAPSHOT round-robin) and exits non-zero on any counter mismatch or
# invariant violation over the TPC-C consistency conditions.
rm -f BENCH_E15S.json semcor_serverd.port
./build/examples/semcor_serverd --workload=tpcc --tpcc-warehouses=2 \
    --port=0 --port-file=semcor_serverd.port &
serverd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  test -s semcor_serverd.port && break
  sleep 0.2
done
./build/examples/semcor_bench_client --port="$(cat semcor_serverd.port)" \
    --threads=4 --txns=50 --levels=ser,si --report-id=E15S \
    --shutdown-server
wait "$serverd_pid"
rm -f semcor_serverd.port
test -s BENCH_E15S.json

# TPC-C over the wire, stage 2 (the E15 study): open-loop load across the
# full isolation grid — pinned SERIALIZABLE / SNAPSHOT / SSI and the
# advisor-negotiated mix. The binary exits non-zero unless every
# configuration keeps the invariant green and the negotiated mix sustains
# at least the all-SERIALIZABLE goodput; the negotiated run must actually
# mix levels (levels_used >= 2).
rm -f BENCH_E15.json
./build/examples/semcor_tpcc_study --rate=300 --warmup-ms=200 \
    --measure-ms=1500
test -s BENCH_E15.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
r = json.load(open("BENCH_E15.json"))
assert r["gates_ok"] == 1, r
assert r["negotiate_levels_used"] >= 2, r
for cfg in ("ser", "si", "ssi", "negotiate"):
    assert r[cfg + "_invariant_ok"] == 1, (cfg, r)
    assert r[cfg + "_committed"] > 0, (cfg, r)
EOF
fi

# Archive every machine-readable artifact this run produced, so a CI
# wrapper only has to preserve one directory — and fail if any expected
# artifact is missing or unparsable (a bench that silently stopped writing
# its JSON should break the build, not the dashboard).
mkdir -p ci_artifacts
for f in BENCH_E10.json BENCH_E10RR.json BENCH_E10R.json BENCH_E12.json \
         BENCH_E5.json BENCH_E6.json BENCH_E9.json BENCH_E11.json \
         BENCH_E13.json BENCH_E14.json BENCH_E15S.json BENCH_E15.json; do
  if [ ! -s "$f" ]; then
    echo "ci.sh: FAIL — expected bench artifact $f is missing or empty"
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json, sys; json.load(open('$f'))" || {
      echo "ci.sh: FAIL — $f is not valid JSON"; exit 1; }
  fi
done
for f in BENCH_E*.json; do
  if [ -s "$f" ]; then cp "$f" ci_artifacts/; fi
done

echo "ci.sh: OK"
