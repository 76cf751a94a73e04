// semcor_serverd: the multi-client transaction server daemon.
//
//   semcor_serverd --workload=banking --port=0 --workers=4
//
// Serves one workload's transaction types over the length-prefixed binary
// protocol of src/net/wire.h, with per-session isolation-level negotiation
// (clients may request a level or let the server pick the lowest
// semantically-correct one per the paper's §5 procedure). Prints the bound
// port on stdout (and to --port-file, for scripts racing an ephemeral port),
// then runs until SIGINT (immediate stop), SIGTERM (graceful drain: stop
// accepting, let in-flight transactions finish up to --drain-timeout, final
// checkpoint), a client SHUTDOWN request, or --duration-s elapses.
// Exit codes: 0 = clean shutdown, 1 = setup error (including WAL recovery
// failure), 2 = usage error, 3 = the WAL froze on a device error under the
// panic policy (acked durability could no longer be honoured). A numeric
// flag outside its range, or a WAL policy name the log does not know, is a
// usage error, never silently wrapped or deferred to startup.

#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "lock/lock_manager.h"
#include "net/server.h"

namespace {

semcor::net::Server* g_server = nullptr;

void HandleStop(int) {
  // Only async-signal-safe work here (atomic store + self-pipe write); the
  // actual teardown happens on the main thread after WaitUntilStopped.
  if (g_server != nullptr) g_server->RequestStop();
}

void HandleDrain(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

/// Checked before any narrowing cast: a negative value would otherwise wrap
/// to a huge unsigned one (an unbounded session queue, a lock-shard count
/// the resharding loop never reaches).
bool InRange(const char* flag, int64_t value, int64_t lo, int64_t hi) {
  if (value >= lo && value <= hi) return true;
  std::fprintf(stderr, "semcor_serverd: --%s=%lld out of range [%lld, %lld]\n",
               flag, static_cast<long long>(value), static_cast<long long>(lo),
               static_cast<long long>(hi));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  semcor::net::ServerOptions options;
  std::string port_file;
  int port = 0;
  int duration_s = 0;
  int64_t queue_limit = static_cast<int64_t>(options.session_queue_limit);
  int64_t lock_shards = 0;

  semcor::cli::Flags flags(
      "semcor_serverd",
      "Serve a semcor workload's transactions over TCP with per-session "
      "isolation-level negotiation.");
  flags.Str("workload", &options.workload,
            "workload to serve (banking|payroll|orders|orders_unique|tpcc)");
  flags.Int("tpcc-warehouses", &options.tpcc_warehouses,
            "tpcc: number of warehouses");
  flags.Int("tpcc-districts", &options.tpcc_districts,
            "tpcc: districts per warehouse");
  flags.Int("tpcc-customers", &options.tpcc_customers,
            "tpcc: customers per warehouse");
  flags.Int("tpcc-items", &options.tpcc_items, "tpcc: items in the catalog");
  flags.Int("port", &port, "TCP port to bind on 127.0.0.1 (0 = ephemeral)");
  flags.Int("workers", &options.workers,
            "worker threads, each running one transaction at a time; also "
            "the bound on transactions in flight (1..1024)");
  flags.I64("queue-limit", &queue_limit,
            "per-session pending-request cap before BUSY");
  flags.U64("seed", &options.seed, "seed for server-side draws");
  flags.I64("lock-shards", &lock_shards,
            "lock manager shards (0 = default, at most 64)");
  flags.Str("port-file", &port_file, "write the bound port to this file");
  flags.Int("duration-s", &duration_s, "stop after N seconds (0 = run forever)");
  flags.Str("wal-dir", &options.wal_dir,
            "write-ahead-log directory (empty = memory-only)");
  flags.Str("wal-fsync", &options.wal_fsync,
            "WAL fsync policy: none|group");
  flags.Str("wal-fsync-failure", &options.wal_fsync_failure,
            "reaction to a failed WAL fsync: panic|degrade");
  flags.Str("disk-faults", &options.disk_faults,
            "deterministic WAL fault plan: none | seed:N[:p_append[:p_short"
            "[:p_sync]]]");
  flags.DurationUs("idle-timeout", &options.idle_timeout_us,
                   "reap sessions with no inbound frames for this long, "
                   "0 = off (us/ms/s suffix, bare = ms)");
  flags.DurationUs("drain-timeout", &options.drain_timeout_us,
                   "SIGTERM drain: wait this long for in-flight transactions "
                   "before forcing stop, 0 = never force");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.help_requested() || flags.version_requested()) return 0;
  if (!InRange("port", port, 0, 65535) ||
      !InRange("workers", options.workers, 1, 1024) ||
      !InRange("queue-limit", queue_limit, 1, INT_MAX) ||
      !InRange("lock-shards", lock_shards, 0,
               static_cast<int64_t>(semcor::LockManager::kMaxShards)) ||
      !InRange("duration-s", duration_s, 0, INT_MAX)) {
    return 2;
  }
  semcor::wal::WalOptions wal_options;
  if (semcor::Status s = semcor::net::ParseWalOptions(options, &wal_options);
      !s.ok()) {
    std::fprintf(stderr, "semcor_serverd: %s\n", s.message().c_str());
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  options.session_queue_limit = static_cast<size_t>(queue_limit);
  options.lock_shards = static_cast<size_t>(lock_shards);

  semcor::net::Server server(options);
  if (semcor::Status s = server.Start(); !s.ok()) {
    // A failed start is a refusal to serve; the most important case is WAL
    // recovery rejecting the log (a committed transaction that cannot be
    // replayed) — serving anyway would silently drop acked durability.
    std::fprintf(stderr, "semcor_serverd: startup failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("semcor_serverd: serving %s on 127.0.0.1:%u (%d workers)\n",
              options.workload.c_str(), server.port(), options.workers);
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "semcor_serverd: cannot write %s\n",
                   port_file.c_str());
      server.Stop();
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  g_server = &server;
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleDrain);

  if (duration_s > 0) {
    // Alarm-based stop keeps the main thread free to wait.
    std::signal(SIGALRM, HandleStop);
    ::alarm(static_cast<unsigned>(duration_s));
  }
  server.WaitUntilStopped();
  const bool drained = server.draining();
  server.Stop();
  g_server = nullptr;

  const semcor::net::ServerMetricsSnapshot m = server.Metrics();
  std::printf(
      "semcor_serverd: stopped%s; sessions=%ld txns=%ld committed=%ld "
      "aborted=%ld deadlocks=%ld idle_timeouts=%ld invariant_ok=%d\n",
      drained ? " (drained)" : "", m.sessions_accepted,
      m.Committed() + m.Aborted(), m.Committed(), m.Aborted(), m.deadlocks,
      m.idle_timeouts, server.InvariantHolds() ? 1 : 0);
  if (semcor::Status wal = server.WalFailure(); !wal.ok()) {
    std::fprintf(stderr,
                 "semcor_serverd: WAL froze under the panic policy: %s\n",
                 wal.ToString().c_str());
    return 3;
  }
  return 0;
}
