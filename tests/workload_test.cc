// Workload-level tests: money conservation under transfers, atomic
// multi-group bookings, the closed-loop driver, and behaviour under faults.
#include <gtest/gtest.h>

#include "check/invariants.h"
#include "tests/test_util.h"
#include "workload/airline.h"
#include "workload/bank.h"
#include "workload/driver.h"
#include "workload/failures.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

TEST(Bank, TransfersConserveMoney) {
  Cluster cluster(ClusterOptions{.seed = 31});
  auto bank = cluster.AddGroup("bank", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  // Open 4 accounts with 100 each.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(test::RunOneCall(cluster, client_g, bank, "open",
                               "a" + std::to_string(i) + "=100"),
              vr::TxnOutcome::kCommitted);
  }

  sim::Rng rng(5);
  workload::ClosedLoopDriver driver(
      cluster, client_g,
      [&](std::uint64_t i) {
        const int from = static_cast<int>((i + rng.Index(4)) % 4);
        const int to = (from + 1 + static_cast<int>(rng.Index(3))) % 4;
        return workload::MakeTransferTxn(bank, "a" + std::to_string(from),
                                         bank, "a" + std::to_string(to), 5);
      },
      workload::DriverOptions{.total_txns = 40, .max_inflight = 2});
  ASSERT_TRUE(driver.Run());
  cluster.RunFor(2 * host::kSecond);

  EXPECT_EQ(workload::CommittedBankTotal(cluster, bank, 4), 400);
  EXPECT_GT(driver.accounting().committed, 0u);
}

TEST(Bank, OverdraftAborts) {
  Cluster cluster(ClusterOptions{.seed = 32});
  auto bank = cluster.AddGroup("bank", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, client_g, bank, "open", "a0=10"),
            vr::TxnOutcome::kCommitted);

  core::Cohort* primary = cluster.AnyPrimary(client_g);
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      workload::MakeTransferTxn(bank, "a0", bank, "a1", 50),
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  while (!done) cluster.RunFor(10 * host::kMillisecond);
  EXPECT_EQ(outcome, vr::TxnOutcome::kAborted);
  cluster.RunFor(500 * host::kMillisecond);
  EXPECT_EQ(workload::CommittedBankTotal(cluster, bank, 2), 10);
}

TEST(Bank, CrossGroupTransferIsAtomicUnderPrimaryCrash) {
  Cluster cluster(ClusterOptions{.seed = 33});
  auto bank_a = cluster.AddGroup("bank_a", 3);
  auto bank_b = cluster.AddGroup("bank_b", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank_a);
  workload::RegisterBankProcs(cluster, bank_b);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, client_g, bank_a, "open", "a0=1000"),
            vr::TxnOutcome::kCommitted);
  ASSERT_EQ(test::RunOneCall(cluster, client_g, bank_b, "open", "a0=1000"),
            vr::TxnOutcome::kCommitted);

  // Run transfers while crashing each bank's primary once mid-stream.
  workload::ClosedLoopDriver driver(
      cluster, client_g,
      [&](std::uint64_t) {
        return workload::MakeTransferTxn(bank_a, "a0", bank_b, "a0", 1);
      },
      workload::DriverOptions{.total_txns = 30, .max_inflight = 2});
  bool crashed = false;
  cluster.sim().scheduler().After(60 * host::kMillisecond, [&] {
    for (auto* c : cluster.Cohorts(bank_b)) {
      if (c->IsActivePrimary()) {
        c->Crash();
        crashed = true;
        break;
      }
    }
  });
  ASSERT_TRUE(driver.Run());
  EXPECT_TRUE(crashed);
  // Recover and settle so blocked participants resolve via queries.
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster.CohortAt(bank_b, i).status() == core::Status::kCrashed) {
      cluster.Recover(bank_b, i);
    }
  }
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(5 * host::kSecond);

  // Conservation: whatever committed, total money is unchanged — unless some
  // outcome is unknown, in which case the range widens by that much.
  const long long total = workload::CommittedBankTotal(cluster, bank_a, 1) +
                          workload::CommittedBankTotal(cluster, bank_b, 1);
  EXPECT_EQ(total, 2000);
}

TEST(Airline, NoOverselling) {
  Cluster cluster(ClusterOptions{.seed = 34});
  auto region = cluster.AddGroup("flights", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterAirlineProcs(cluster, region);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, client_g, region, "add_flight", "F1=5"),
            vr::TxnOutcome::kCommitted);

  workload::ClosedLoopDriver driver(
      cluster, client_g,
      [&](std::uint64_t) {
        return workload::MakeBookingTxn({{region, "F1", 1}});
      },
      workload::DriverOptions{
          .total_txns = 12, .max_inflight = 3, .retries_per_txn = 5});
  ASSERT_TRUE(driver.Run());
  cluster.RunFor(2 * host::kSecond);

  // Exactly 5 bookings can commit; the rest abort with "sold out".
  // (Lock-contention aborts are retried by the driver, as a real booking
  // frontend would.)
  EXPECT_EQ(driver.accounting().committed, 5u);
  EXPECT_EQ(workload::CommittedSeats(cluster, region, "F1"), 0);
}

TEST(Airline, MultiLegItineraryIsAllOrNothing) {
  Cluster cluster(ClusterOptions{.seed = 35});
  auto east = cluster.AddGroup("east", 3);
  auto west = cluster.AddGroup("west", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterAirlineProcs(cluster, east);
  workload::RegisterAirlineProcs(cluster, west);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, client_g, east, "add_flight", "E1=3"),
            vr::TxnOutcome::kCommitted);
  ASSERT_EQ(test::RunOneCall(cluster, client_g, west, "add_flight", "W1=1"),
            vr::TxnOutcome::kCommitted);

  // Three two-leg itineraries compete for W1's single seat: exactly one can
  // commit, and losers must not leave a dangling E1 reservation.
  workload::ClosedLoopDriver driver(
      cluster, client_g,
      [&](std::uint64_t) {
        return workload::MakeBookingTxn({{east, "E1", 1}, {west, "W1", 1}});
      },
      workload::DriverOptions{.total_txns = 3, .max_inflight = 1});
  ASSERT_TRUE(driver.Run());
  cluster.RunFor(2 * host::kSecond);

  EXPECT_EQ(driver.accounting().committed, 1u);
  EXPECT_EQ(workload::CommittedSeats(cluster, west, "W1"), 0);
  EXPECT_EQ(workload::CommittedSeats(cluster, east, "E1"), 2);
}

TEST(FailureSchedule, ArmsAndFires) {
  Cluster cluster(ClusterOptions{.seed = 36});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  workload::ArmFailureSchedule(
      cluster, {workload::FailureEvent::Crash(2 * host::kSecond, g, 0),
                workload::FailureEvent::Recover(4 * host::kSecond, g, 0)});
  cluster.RunFor(3 * host::kSecond);
  EXPECT_EQ(cluster.CohortAt(g, 0).status(), core::Status::kCrashed);
  cluster.RunFor(2 * host::kSecond);
  EXPECT_NE(cluster.CohortAt(g, 0).status(), core::Status::kCrashed);
}

TEST(FailureSchedule, RandomScheduleIsDeterministic) {
  sim::Rng r1(9), r2(9);
  auto s1 = workload::RandomCrashSchedule(r1, 1, 3, 60 * host::kSecond, 10, 2);
  auto s2 = workload::RandomCrashSchedule(r2, 1, 3, 60 * host::kSecond, 10, 2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].at, s2[i].at);
    EXPECT_EQ(static_cast<int>(s1[i].kind), static_cast<int>(s2[i].kind));
  }
}

}  // namespace
}  // namespace vsr
