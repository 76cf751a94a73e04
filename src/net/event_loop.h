#ifndef SEMCOR_NET_EVENT_LOOP_H_
#define SEMCOR_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <optional>

#include "common/status.h"

namespace semcor::net {

/// All deadlines are monotonic-clock: wall-clock jumps (NTP, suspend) must
/// never spare an idle session or cut a drain short.
using MonoClock = std::chrono::steady_clock;
using MonoTime = MonoClock::time_point;

/// Minimal poll(2)-based reactor (portable everywhere epoll isn't). One
/// thread calls Run(); it owns every registered fd and all handler
/// invocations, so handlers need no locking against each other. Other
/// threads interact with the loop exclusively through Wakeup()/Stop(): a
/// self-pipe write that makes poll return and the loop invoke the wakeup
/// handler on its own thread. That is the whole cross-thread surface — the
/// transaction server's worker pool uses it to hand finished responses back
/// for writing.
class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the self-pipe. Must be called before Run().
  Status Init();

  /// `readable`/`writable` report which poll events fired. Loop thread only.
  using Handler = std::function<void(bool readable, bool writable)>;
  void Register(int fd, Handler handler);
  void Deregister(int fd);
  /// Adds/removes POLLOUT interest for `fd`. Loop thread only.
  void WantWrite(int fd, bool on);
  /// Adds/removes POLLIN interest for `fd` (on at Register). Without it the
  /// handler still runs on POLLHUP/POLLERR, reported as readable, so a dead
  /// peer is noticed. Loop thread only.
  void WantRead(int fd, bool on);

  /// Invoked on the loop thread after every Wakeup() (coalesced).
  void SetWakeupHandler(std::function<void()> handler);

  /// The loop's one timer, owned by the loop thread like every fd: poll
  /// sleeps no longer than the armed deadline, and once it has passed the
  /// timer handler runs on the loop thread right after poll returns. Firing
  /// disarms the timer; a handler that wants to run again re-arms it, and
  /// arming an armed timer moves its deadline. Loop thread only (or before
  /// Run starts) — other threads ask for timer work via Wakeup().
  void SetTimerHandler(std::function<void()> handler);
  void ArmTimer(MonoTime when);

  /// Polls and dispatches until Stop(). Returns after the stop flag is seen.
  void Run();

  /// Thread-safe. Makes Run() return at the next dispatch boundary.
  void Stop();
  /// Thread-safe. Nudges the loop so it re-reads shared state.
  void Wakeup();

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    Handler handler;
    bool want_read = true;
    bool want_write = false;
  };

  std::map<int, Entry> fds_;
  std::optional<MonoTime> timer_at_;
  std::function<void()> on_timer_;
  std::function<void()> on_wakeup_;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_EVENT_LOOP_H_
