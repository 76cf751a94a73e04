#ifndef SEMCOR_TESTS_SYNC_LATCH_H_
#define SEMCOR_TESTS_SYNC_LATCH_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "fault/fault.h"
#include "wal/wal.h"

namespace semcor {

/// Parks whichever thread reaches the WAL's pre-sync crash site until
/// Open() (or 10 s, so a failed test cannot wedge the server's workers).
/// The hook never crashes the log.
struct SyncLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool open = false;

  wal::WriteAheadLog::FaultHook Hook() {
    return [this](FaultSite site, TxnId) {
      if (site != FaultSite::kWalPreSync) return false;
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [this] { return open; });
      return false;
    };
  }
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [this] { return parked; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

}  // namespace semcor

#endif  // SEMCOR_TESTS_SYNC_LATCH_H_
