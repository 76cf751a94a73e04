// Lock-manager fairness and txn-visibility store APIs: regression coverage
// for the convoy/starvation pathologies found while tuning E3.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "lock/lock_manager.h"
#include "storage/store.h"

namespace semcor {
namespace {

TEST(FairnessTest, ReaderQueuesBehindEarlierWriter) {
  // T1 holds X; T2 (writer) queues; T3's S request must not jump the queue.
  LockManager lm;
  ASSERT_TRUE(lm.AcquireItem(1, "k", LockMode::kExclusive, false).ok());
  std::atomic<bool> t2_granted{false}, t3_granted{false};
  std::thread t2([&] {
    EXPECT_TRUE(lm.AcquireItem(2, "k", LockMode::kExclusive, true).ok());
    t2_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread t3([&] {
    EXPECT_TRUE(lm.AcquireItem(3, "k", LockMode::kShared, true).ok());
    t3_granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(t2_granted.load());
  EXPECT_FALSE(t3_granted.load());
  lm.ReleaseAll(1);
  t2.join();
  EXPECT_TRUE(t2_granted.load());
  // T3 is still behind T2's X lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(t3_granted.load());
  lm.ReleaseAll(2);
  t3.join();
  EXPECT_TRUE(t3_granted.load());
  lm.ReleaseAll(3);
}

TEST(FairnessTest, QueuedSharedRequestsGrantTogether) {
  LockManager lm;
  ASSERT_TRUE(lm.AcquireItem(1, "k", LockMode::kExclusive, false).ok());
  std::atomic<int> granted{0};
  std::vector<std::thread> readers;
  for (TxnId t = 2; t <= 4; ++t) {
    readers.emplace_back([&, t] {
      EXPECT_TRUE(lm.AcquireItem(t, "k", LockMode::kShared, true).ok());
      ++granted;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(granted.load(), 0);
  lm.ReleaseAll(1);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(granted.load(), 3);
}

TEST(FairnessTest, NonBlockingRequestsNeverCutTheQueue) {
  LockManager lm;
  ASSERT_TRUE(lm.AcquireItem(1, "k", LockMode::kShared, false).ok());
  std::thread upgrader([&] {
    // Blocks: T1 also holds S... use a separate writer txn.
    EXPECT_TRUE(lm.AcquireItem(2, "k", LockMode::kExclusive, true).ok());
    lm.ReleaseAll(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // A try-lock S from T3 while T2 waits for X must report WouldBlock.
  EXPECT_EQ(lm.AcquireItem(3, "k", LockMode::kShared, false).code(),
            Code::kWouldBlock);
  lm.ReleaseAll(1);
  upgrader.join();
}

TEST(StoreVisibilityTest, LockingScanReportsOwners) {
  Store store;
  ASSERT_TRUE(store
                  .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                            {"v", Value::Type::kInt}}))
                  .ok());
  Result<RowId> committed =
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}});
  ASSERT_TRUE(committed.ok());
  Result<RowId> dirty = store.InsertRowUncommitted(
      9, "T", {{"k", Value::Int(2)}, {"v", Value::Int(2)}});
  ASSERT_TRUE(dirty.ok());
  std::map<int64_t, std::optional<TxnId>> seen;
  ASSERT_TRUE(store
                  .Scan("T", ReadView::Locking(),
                        [&](RowId, const Tuple& t, std::optional<TxnId> owner) {
                          seen[t.at("k").AsInt()] = owner;
                        })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_FALSE(seen[1].has_value());
  EXPECT_EQ(seen[2], std::optional<TxnId>(9));
}

TEST(StoreVisibilityTest, LockingScanShowsCommittedImageOfPendingDelete) {
  Store store;
  ASSERT_TRUE(store
                  .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                            {"v", Value::Type::kInt}}))
                  .ok());
  Result<RowId> row =
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(store.WriteRowUncommitted(5, "T", row.value(), std::nullopt).ok());
  int visits = 0;
  std::optional<TxnId> owner;
  ASSERT_TRUE(store
                  .Scan("T", ReadView::Locking(),
                        [&](RowId, const Tuple&, std::optional<TxnId> o) {
                          ++visits;
                          owner = o;
                        })
                  .ok());
  // The committed image is surfaced with its pending deleter so readers
  // know to wait (latest-view scans would hide the row entirely).
  EXPECT_EQ(visits, 1);
  EXPECT_EQ(owner, std::optional<TxnId>(5));
}

TEST(StoreVisibilityTest, OwnViewPrefersOwnImage) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(1)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(7, "x", Value::Int(9)).ok());
  EXPECT_EQ(store.ReadItem("x", ReadView::Own(7)).value().AsInt(), 9);  // own
  EXPECT_EQ(store.ReadItem("x", ReadView::Own(8)).value().AsInt(), 1);
}

}  // namespace
}  // namespace semcor
