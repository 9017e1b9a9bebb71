// Bank audit: cross-group transfers under continuous fault injection, with a
// conservation audit at the end.
//
// Two bank branches are separate module groups (so a transfer is a genuine
// two-participant distributed transaction through two-phase commit), a
// replicated teller group runs the transfers, and the harness crashes
// primaries and partitions the network while money moves. The audit at the
// end verifies that not a single unit of currency was created or destroyed —
// the one-copy serializability guarantee (§1) made tangible.
//
//   $ ./bank_audit [seed]
#include <cstdio>
#include <cstdlib>

#include "client/cluster.h"
#include "workload/bank.h"
#include "workload/driver.h"

using namespace vsr;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  client::ClusterOptions opts;
  opts.seed = seed;
  opts.net.loss_probability = 0.01;       // a slightly lossy network
  opts.net.duplicate_probability = 0.01;  // that sometimes duplicates
  client::Cluster cluster(opts);

  auto north = cluster.AddGroup("bank-north", 3);
  auto south = cluster.AddGroup("bank-south", 3);
  auto tellers = cluster.AddGroup("tellers", 3);
  workload::RegisterBankProcs(cluster, north);
  workload::RegisterBankProcs(cluster, south);
  cluster.Start();
  if (!cluster.RunUntilStable()) {
    std::puts("cluster failed to stabilize");
    return 1;
  }

  // Seed the books: 4 accounts per branch, 1000 each -> total 8000.
  constexpr int kAccounts = 4;
  constexpr long long kInitial = 1000;
  auto open_all = [&](vr::GroupId branch) {
    for (int i = 0; i < kAccounts; ++i) {
      bool done = false;
      cluster.AnyPrimary(tellers)->SpawnTransaction(
          workload::MakeDepositTxn(branch, "a" + std::to_string(i), kInitial),
          [&](vr::TxnOutcome) { done = true; });
      while (!done) cluster.RunFor(5 * host::kMillisecond);
    }
  };
  open_all(north);
  open_all(south);
  const long long total_before =
      workload::CommittedBankTotal(cluster, north, kAccounts) +
      workload::CommittedBankTotal(cluster, south, kAccounts);
  std::printf("books opened: total = %lld\n", total_before);

  // Chaos: crash each branch's primary twice during the run, and cut the
  // network in half once.
  int faults = 0;
  for (host::Duration at :
       {700 * host::kMillisecond, 2500 * host::kMillisecond,
        4500 * host::kMillisecond, 6500 * host::kMillisecond}) {
    cluster.sim().scheduler().After(at, [&cluster, north, south, &faults] {
      const auto target = (faults++ % 2 == 0) ? north : south;
      for (auto* c : cluster.Cohorts(target)) {
        if (c->IsActivePrimary()) {
          std::printf("[%s] crashing %s primary (cohort %u)\n",
                      host::FormatDuration(cluster.sim().Now()).c_str(),
                      faults % 2 == 1 ? "north" : "south", c->mid());
          c->Crash();
          return;
        }
      }
    });
    cluster.sim().scheduler().After(at + 1500 * host::kMillisecond,
                                    [&cluster, north, south] {
                                      for (auto g : {north, south}) {
                                        for (std::size_t i = 0; i < 3; ++i) {
                                          if (cluster.CohortAt(g, i).status() ==
                                              core::Status::kCrashed) {
                                            cluster.Recover(g, i);
                                          }
                                        }
                                      }
                                    });
  }

  // The workload: 150 random transfers, retried on abort like a real teller.
  sim::Rng rng(seed + 1);
  workload::ClosedLoopDriver driver(
      cluster, tellers,
      [&](std::uint64_t i) {
        const auto from_branch = rng.Bernoulli(0.5) ? north : south;
        const auto to_branch = rng.Bernoulli(0.5) ? north : south;
        const int from = static_cast<int>(i % kAccounts);
        const int to = static_cast<int>(rng.Index(kAccounts));
        return workload::MakeTransferTxn(
            from_branch, "a" + std::to_string(from), to_branch,
            "a" + std::to_string(to), 1 + static_cast<long long>(rng.Index(20)));
      },
      workload::DriverOptions{.total_txns = 150,
                              .max_inflight = 3,
                              .retries_per_txn = 3});
  driver.Run();

  // Quiesce: recover everyone, let queries resolve stragglers, then audit.
  for (auto g : {north, south}) {
    for (std::size_t i = 0; i < 3; ++i) {
      if (cluster.CohortAt(g, i).status() == core::Status::kCrashed) {
        cluster.Recover(g, i);
      }
    }
  }
  cluster.RunUntilStable();
  cluster.RunFor(5 * host::kSecond);

  const long long total_after =
      workload::CommittedBankTotal(cluster, north, kAccounts) +
      workload::CommittedBankTotal(cluster, south, kAccounts);
  std::printf("\nresults: %llu committed, %llu aborted, %llu unknown\n",
              static_cast<unsigned long long>(driver.accounting().committed),
              static_cast<unsigned long long>(driver.accounting().aborted),
              static_cast<unsigned long long>(driver.accounting().unknown));
  std::printf("commit latency: %s\n", driver.latency().Summary().c_str());
  std::printf("audit: total before = %lld, after = %lld -> %s\n", total_before,
              total_after,
              total_before == total_after ? "CONSERVED" : "VIOLATION!");
  return total_before == total_after ? 0 : 1;
}
