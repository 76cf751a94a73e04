#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/str_util.h"

namespace semcor::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

EventLoop::~EventLoop() {
  for (int fd : {wake_pipe_[0], wake_pipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
}

Status EventLoop::Init() {
  if (wake_pipe_[0] >= 0) return Status::Ok();
  if (::pipe(wake_pipe_) != 0) return Errno("pipe");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  return Status::Ok();
}

void EventLoop::Register(int fd, Handler handler) {
  fds_[fd] = Entry{std::move(handler)};
}

void EventLoop::Deregister(int fd) { fds_.erase(fd); }

void EventLoop::WantWrite(int fd, bool on) {
  auto it = fds_.find(fd);
  if (it != fds_.end()) it->second.want_write = on;
}

void EventLoop::WantRead(int fd, bool on) {
  auto it = fds_.find(fd);
  if (it != fds_.end()) it->second.want_read = on;
}

void EventLoop::SetWakeupHandler(std::function<void()> handler) {
  on_wakeup_ = std::move(handler);
}

void EventLoop::SetTimerHandler(std::function<void()> handler) {
  on_timer_ = std::move(handler);
}

void EventLoop::ArmTimer(MonoTime when) { timer_at_ = when; }

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

void EventLoop::Wakeup() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void EventLoop::Run() {
  std::vector<pollfd> pfds;
  std::vector<int> order;
  while (!stopped()) {
    pfds.clear();
    order.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, entry] : fds_) {
      short events = 0;
      if (entry.want_read) events |= POLLIN;
      if (entry.want_write) events |= POLLOUT;
      pfds.push_back(pollfd{fd, events, 0});
      order.push_back(fd);
    }
    // Sleep until the timer's deadline (capped at 500ms so a stale shared
    // flag is still noticed promptly), but never negative: an overdue timer
    // means poll should only collect what's already ready.
    int timeout_ms = 500;
    if (timer_at_.has_value()) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          *timer_at_ - MonoClock::now());
      const auto clamped = std::clamp<int64_t>(until.count() + 1, 0, 500);
      timeout_ms = static_cast<int>(clamped);
    }
    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; owner notices via stopped()
    }
    if (stopped()) break;
    if (timer_at_.has_value() && *timer_at_ <= MonoClock::now()) {
      timer_at_.reset();
      if (on_timer_) on_timer_();
      if (stopped()) break;
    }
    if (pfds[0].revents != 0) {
      char drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      if (on_wakeup_) on_wakeup_();
    }
    for (size_t i = 0; i < order.size(); ++i) {
      const pollfd& p = pfds[i + 1];
      if (p.revents == 0) continue;
      // A handler may deregister fds (including its own); re-check.
      auto it = fds_.find(order[i]);
      if (it == fds_.end()) continue;
      const bool readable = (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      const bool writable = (p.revents & POLLOUT) != 0;
      // The handler may mutate fds_; copy the callable first.
      Handler handler = it->second.handler;
      handler(readable, writable);
      if (stopped()) break;
    }
  }
  stop_.store(true, std::memory_order_release);
}

}  // namespace semcor::net
