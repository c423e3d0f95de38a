#include "rel/txlog.h"

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "gtest/gtest.h"

namespace txrep::rel {
namespace {

LogOp MakeOp(int64_t pk) {
  return LogOp{LogOpType::kInsert, "T", Value::Int(pk),
               {Value::Int(pk), Value::Str("v")}};
}

TEST(TxLogTest, AppendAssignsDenseLsns) {
  TxLog log;
  EXPECT_EQ(log.Append({MakeOp(1)}), 1u);
  EXPECT_EQ(log.Append({MakeOp(2)}), 2u);
  EXPECT_EQ(log.Append({MakeOp(3)}), 3u);
  EXPECT_EQ(log.LastLsn(), 3u);
  EXPECT_EQ(log.size(), 3u);
}

TEST(TxLogTest, EmptyOpsNotLogged) {
  TxLog log;
  EXPECT_EQ(log.Append({}), 0u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.LastLsn(), 0u);
}

TEST(TxLogTest, ReadSinceFiltersAndLimits) {
  TxLog log;
  for (int i = 1; i <= 10; ++i) log.Append({MakeOp(i)});
  std::vector<LogTransaction> all = log.ReadSince(0);
  EXPECT_EQ(all.size(), 10u);
  std::vector<LogTransaction> tail = log.ReadSince(7);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].lsn, 8u);
  std::vector<LogTransaction> limited = log.ReadSince(2, 4);
  ASSERT_EQ(limited.size(), 4u);
  EXPECT_EQ(limited[0].lsn, 3u);
  EXPECT_EQ(limited[3].lsn, 6u);
}

TEST(TxLogTest, CommitMicrosStamped) {
  TxLog log;
  log.Append({MakeOp(1)});
  EXPECT_GT(log.ReadSince(0)[0].commit_micros, 0);
}

TEST(TxLogTest, TruncateDropsPrefix) {
  TxLog log;
  for (int i = 1; i <= 5; ++i) log.Append({MakeOp(i)});
  log.TruncateUpTo(3);
  std::vector<LogTransaction> rest = log.ReadSince(0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].lsn, 4u);
  EXPECT_EQ(log.LastLsn(), 5u);  // LSNs keep advancing after truncation.
  log.Append({MakeOp(6)});
  EXPECT_EQ(log.LastLsn(), 6u);
}

TEST(TxLogTest, ConcurrentAppendsGetUniqueLsns) {
  TxLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < 250; ++i) log.Append({MakeOp(i)});
    });
  }
  for (auto& t : threads) t.join();
  std::vector<LogTransaction> all = log.ReadSince(0);
  ASSERT_EQ(all.size(), 1000u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].lsn, i + 1);
  }
}

TEST(TxLogTest, WaitForAppendReturnsAtOnceWhenLaterLsnExists) {
  TxLog log;
  for (int i = 1; i <= 3; ++i) log.Append({MakeOp(i)});
  std::atomic<bool> running{true};
  EXPECT_TRUE(log.WaitForAppend(0, running));
  EXPECT_TRUE(log.WaitForAppend(2, running));
  running = false;
  EXPECT_FALSE(log.WaitForAppend(3, running));  // Stopped: no wait either.
}

TEST(TxLogTest, WaitForAppendWakesOnAppendFromAnotherThread) {
  TxLog log;
  log.Append({MakeOp(1)});
  std::atomic<bool> running{true};
  std::atomic<bool> returned{false};
  bool found = false;
  std::thread waiter([&] {
    found = log.WaitForAppend(1, running);
    returned = true;
  });
  SleepForMicros(20'000);
  EXPECT_FALSE(returned.load());  // Nothing past LSN 1 yet: still parked.
  log.Append({MakeOp(2)});
  waiter.join();
  EXPECT_TRUE(found);
}

TEST(TxLogTest, WaitForAppendWakesOnStop) {
  TxLog log;
  std::atomic<bool> running{true};
  std::atomic<bool> returned{false};
  bool found = true;
  std::thread waiter([&] {
    found = log.WaitForAppend(0, running);
    returned = true;
  });
  SleepForMicros(20'000);
  EXPECT_FALSE(returned.load());
  running = false;
  log.WakeWaiters();
  waiter.join();
  EXPECT_FALSE(found);
}

TEST(TxLogTest, WaitForAppendCountsTruncatedLsns) {
  TxLog log;
  for (int i = 1; i <= 5; ++i) log.Append({MakeOp(i)});
  log.TruncateUpTo(5);  // The log holds no entry now.
  std::atomic<bool> running{true};
  EXPECT_TRUE(log.WaitForAppend(4, running));  // LSN 5 was appended.

  bool found = false;
  std::thread waiter([&] { found = log.WaitForAppend(5, running); });
  SleepForMicros(5'000);
  log.Append({MakeOp(6)});
  waiter.join();
  EXPECT_TRUE(found);
  EXPECT_EQ(log.ReadSince(5).size(), 1u);
}

TEST(TxLogTest, DebugStringsRender) {
  LogOp insert = MakeOp(7);
  EXPECT_NE(insert.DebugString().find("INSERT"), std::string::npos);
  LogOp del{LogOpType::kDelete, "T", Value::Int(7), {}};
  EXPECT_NE(del.DebugString().find("DELETE"), std::string::npos);
  EXPECT_EQ(del.DebugString().find("after"), std::string::npos);
}

}  // namespace
}  // namespace txrep::rel
