// E13 — sharding the object store across module groups (DESIGN.md §11).
//
// The paper scales by adding module groups: "a module is the unit of
// distribution" (§2), and transactions spanning groups commit with the
// two-phase protocol of §3.2. This experiment measures what that buys and
// costs when one logical store is range-partitioned across N groups:
//
//   1. throughput vs shard count — single-shard transfers spread over more
//      groups pipeline independently;
//   2. the cross-group transaction premium — a transfer whose two accounts
//      live on different shards pays a second participant in phase one;
//   3. live rebalancing under load — moving a key range between groups with
//      the §9 snapshot machinery as the bulk-move primitive, measuring the
//      handoff window, the disruption to throughput, and the correctness
//      bar: zero lost and zero duplicated commits, account by account.
#include <map>

#include "bench/bench_common.h"
#include "client/shard_rebalancer.h"
#include "client/shard_router.h"
#include "workload/sharded_bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

constexpr int kAccounts = 24;
constexpr long long kInitial = 1000;

struct RunResult {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unknown = 0;
  double txn_per_sec = 0;
  double mean_latency_us = 0;
  std::uint64_t router_refreshes = 0;
  bool conserved = false;
};

// Closed-loop transfers over a sharded bank; `cross_fraction` picks how many
// pairs straddle a shard boundary (-1 = uniform random pairs).
RunResult RunTransfers(std::uint64_t seed, std::size_t shards, int txns,
                       double cross_fraction, int max_inflight = 8,
                       bool spread_coordinators = false,
                       int accounts = kAccounts,
                       host::Duration call_service_time = 0) {
  ClusterOptions copts{.seed = seed};
  copts.cohort.call_service_time = call_service_time;
  Cluster cluster(copts);
  auto bank = workload::SetupShardedBank(cluster, shards, 3, accounts);
  // One coordinator group per shard: a single client group's primary caps
  // the sweep at its own 2PC throughput, hiding any scaling from the shards.
  std::vector<vr::GroupId> coords{bank.client_group};
  if (spread_coordinators) {
    for (std::size_t s = 1; s < shards; ++s) {
      coords.push_back(cluster.AddGroup("client" + std::to_string(s), 3));
    }
  }
  cluster.Start();
  RunResult out;
  if (!cluster.RunUntilStable()) return out;
  if (workload::FundShardedAccounts(cluster, bank, kInitial) != accounts) {
    return out;
  }

  client::ShardRouter router(cluster.directory());
  sim::Rng rng(seed * 3 + 1);
  const int per_shard = accounts / static_cast<int>(shards);
  auto pick_pair = [&](int* from, int* to) {
    if (cross_fraction >= 0 && shards > 1) {
      // Pin the pair to one shard or force it across two adjacent shards.
      const int s = static_cast<int>(rng.Index(shards));
      *from = s * per_shard + static_cast<int>(rng.Index(per_shard));
      if (rng.UniformDouble() < cross_fraction) {
        const int s2 = (s + 1) % static_cast<int>(shards);
        *to = s2 * per_shard + static_cast<int>(rng.Index(per_shard));
      } else {
        *to = s * per_shard +
              static_cast<int>((*from - s * per_shard + 1 + rng.Index(
                                    static_cast<std::size_t>(per_shard - 1))) %
                               per_shard);
      }
    } else {
      *from = static_cast<int>(rng.Index(accounts));
      *to = static_cast<int>(rng.Index(accounts));
      if (*to == *from) *to = (*to + 1) % accounts;
    }
  };

  const host::Time t0 = cluster.sim().Now();
  workload::DriverOptions opts;
  opts.total_txns = txns;
  opts.max_inflight = max_inflight;
  opts.retries_per_txn = 20;
  if (spread_coordinators) opts.coordinator_groups = coords;
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t) {
        int from = 0, to = 0;
        pick_pair(&from, &to);
        return workload::MakeShardedTransferTxn(
            router, workload::ShardAccountName(from),
            workload::ShardAccountName(to), 1);
      },
      opts);
  driver.Run();
  const double secs =
      static_cast<double>(cluster.sim().Now() - t0) / host::kSecond;
  cluster.RunFor(2 * host::kSecond);

  out.committed = driver.accounting().committed;
  out.aborted = driver.accounting().aborted;
  out.unknown = driver.accounting().unknown;
  out.txn_per_sec = secs > 0 ? static_cast<double>(out.committed) / secs : 0;
  out.mean_latency_us = driver.latency().Mean();
  out.router_refreshes = router.refreshes();
  out.conserved =
      workload::ShardedBankTotal(cluster, accounts) == accounts * kInitial;
  return out;
}

struct RebalanceResult {
  bool move_completed = false;
  double move_ms = 0;
  double handoff_ms = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted_final = 0;
  std::uint64_t unknown = 0;
  std::uint64_t router_refreshes = 0;
  std::uint64_t bulk_pulls = 0;
  std::uint64_t settle_pulls = 0;
  bool zero_lost_or_dup = false;
  bool conserved = false;
};

// Transfers stream while one shard's whole range moves to another group;
// committed outcomes fold into an exact per-account model that the final
// committed balances must match — zero lost, zero duplicated.
RebalanceResult RunRebalanceUnderLoad(std::uint64_t seed, int txns) {
  Cluster cluster(ClusterOptions{.seed = seed});
  auto bank = workload::SetupShardedBank(cluster, 3, 3, kAccounts);
  cluster.Start();
  RebalanceResult out;
  if (!cluster.RunUntilStable()) return out;
  if (workload::FundShardedAccounts(cluster, bank, kInitial) != kAccounts) {
    return out;
  }

  client::ShardRouter router(cluster.directory());
  client::ShardRebalancer rebalancer(cluster);

  struct Plan {
    int from, to;
    long long amt;
  };
  std::vector<Plan> plan;
  sim::Rng rng(seed * 5 + 3);
  for (int i = 0; i < txns; ++i) {
    const int from = static_cast<int>(rng.Index(kAccounts));
    int to = static_cast<int>(rng.Index(kAccounts));
    if (to == from) to = (to + 1) % kAccounts;
    plan.push_back({from, to, 1 + static_cast<long long>(rng.Index(5))});
  }
  std::map<int, long long> model;
  for (int i = 0; i < kAccounts; ++i) model[i] = kInitial;

  workload::DriverOptions opts;
  opts.total_txns = txns;
  opts.max_inflight = 6;
  opts.retries_per_txn = 200;  // must outlast the handoff window
  opts.on_outcome = [&](std::uint64_t i, vr::TxnOutcome o) {
    if (o == vr::TxnOutcome::kCommitted) {
      model[plan[i].from] -= plan[i].amt;
      model[plan[i].to] += plan[i].amt;
    }
  };
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t i) {
        return workload::MakeShardedTransferTxn(
            router, workload::ShardAccountName(plan[i].from),
            workload::ShardAccountName(plan[i].to), plan[i].amt);
      },
      opts);

  bool move_done = false, move_ok = false;
  cluster.sim().scheduler().After(100 * host::kMillisecond, [&] {
    const core::ShardRange* r =
        cluster.directory().Route(workload::ShardAccountName(0));
    if (r == nullptr) return;
    rebalancer.Move(r->lo, r->hi, bank.shards[2], [&](bool ok) {
      move_done = true;
      move_ok = ok;
    });
  });

  driver.Run();
  for (int i = 0; i < 1000 && !move_done; ++i) {
    cluster.RunFor(10 * host::kMillisecond);
  }
  cluster.RunFor(2 * host::kSecond);

  out.move_completed = move_done && move_ok;
  out.move_ms = static_cast<double>(rebalancer.stats().last_move_duration) /
                host::kMillisecond;
  out.handoff_ms =
      static_cast<double>(rebalancer.stats().last_handoff_window) /
      host::kMillisecond;
  out.committed = driver.accounting().committed;
  out.aborted_final = driver.accounting().aborted;
  out.unknown = driver.accounting().unknown;
  out.router_refreshes = router.refreshes();
  out.bulk_pulls = rebalancer.stats().bulk_pulls;
  out.settle_pulls = rebalancer.stats().settle_pulls;

  bool exact = out.unknown == 0;
  for (int i = 0; i < kAccounts && exact; ++i) {
    if (workload::ShardedCommittedBalance(cluster,
                                          workload::ShardAccountName(i)) !=
        model[i]) {
      exact = false;
    }
  }
  out.zero_lost_or_dup = exact;
  out.conserved = workload::ShardedBankTotal(cluster, kAccounts) ==
                  kAccounts * kInitial;
  return out;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E13: sharding the object store across module groups (DESIGN.md §11)",
      "modules are the unit of distribution (§2): range-partitioning one "
      "store over N groups scales throughput; cross-group transactions pay "
      "one extra prepare round; a key range moves between groups live with "
      "zero lost or duplicated commits");

  const int txns = bench::Scaled(300);

  // 90% shard-local pairs over a wide key space: the workload a range
  // partition is designed for. (Uniform pairs over N shards make nearly
  // every transfer a two-group transaction, and a small account set makes
  // the sweep measure account-lock contention instead of capacity.) Each
  // call occupies its primary's serial CPU for 500 us — without a service
  // time the simulator charges only network latency, one group absorbs
  // unbounded load, and the sweep would be flat by construction.
  const int sweep_accounts = 96;
  const host::Duration service = 500 * host::kMicrosecond;
  bench::Row("\n  -- throughput vs shard count (%d transfers, 90%% shard-local,",
             txns);
  bench::Row("  --   %d accounts, 500us/call service time, 32 in flight)",
             sweep_accounts);
  bench::Row("  %-8s | committed | txn/s | mean latency (us) | conserved",
             "shards");
  for (std::size_t shards : {1u, 2u, 3u, 4u}) {
    // 32 in flight: enough offered load to saturate one group, so the sweep
    // exposes whether extra groups actually add capacity.
    RunResult r = RunTransfers(13000 + shards, shards, txns, 0.1,
                               /*max_inflight=*/32,
                               /*spread_coordinators=*/true, sweep_accounts,
                               service);
    bench::Row("  %-8zu | %9llu | %5.0f | %17.0f | %s", shards,
               static_cast<unsigned long long>(r.committed), r.txn_per_sec,
               r.mean_latency_us, r.conserved ? "yes" : "NO");
    bench::Metric("throughput_txn_per_sec_shards_" + std::to_string(shards),
                  r.txn_per_sec);
  }

  bench::Row("\n  -- cross-group transaction premium (3 shards)");
  bench::Row("  %-18s | committed | mean latency (us)", "pair placement");
  {
    // Sequential (one transfer in flight) so the numbers isolate protocol
    // cost — pipelined pairs pinned to one small shard would measure lock
    // contention instead.
    RunResult same = RunTransfers(13101, 3, txns, 0.0, /*max_inflight=*/1);
    RunResult cross = RunTransfers(13102, 3, txns, 1.0, /*max_inflight=*/1);
    bench::Row("  %-18s | %9llu | %17.0f", "same shard",
               static_cast<unsigned long long>(same.committed),
               same.mean_latency_us);
    bench::Row("  %-18s | %9llu | %17.0f", "cross shard",
               static_cast<unsigned long long>(cross.committed),
               cross.mean_latency_us);
    bench::Metric("latency_us_same_shard", same.mean_latency_us);
    bench::Metric("latency_us_cross_shard", cross.mean_latency_us);
    if (same.mean_latency_us > 0) {
      bench::Metric("cross_shard_premium",
                    cross.mean_latency_us / same.mean_latency_us);
    }
  }

  bench::Row("\n  -- live rebalance under load (3 shards, move shard0 -> shard2)");
  {
    RebalanceResult r = RunRebalanceUnderLoad(13201, txns);
    bench::Row("  move completed      : %s", r.move_completed ? "yes" : "NO");
    bench::Row("  move duration       : %.1f ms (bulk pulls %llu, settle pulls %llu)",
               r.move_ms, static_cast<unsigned long long>(r.bulk_pulls),
               static_cast<unsigned long long>(r.settle_pulls));
    bench::Row("  handoff window      : %.1f ms (range unavailable)",
               r.handoff_ms);
    bench::Row("  txns committed      : %llu (aborted after retries %llu, unknown %llu)",
               static_cast<unsigned long long>(r.committed),
               static_cast<unsigned long long>(r.aborted_final),
               static_cast<unsigned long long>(r.unknown));
    bench::Row("  router refreshes    : %llu (wrong-shard rejections seen)",
               static_cast<unsigned long long>(r.router_refreshes));
    bench::Row("  zero lost/duplicated: %s",
               r.zero_lost_or_dup ? "PASS (balances == model exactly)" : "FAIL");
    bench::Row("  money conserved     : %s", r.conserved ? "yes" : "NO");
    bench::Metric("rebalance_move_ms", r.move_ms);
    bench::Metric("rebalance_handoff_ms", r.handoff_ms);
    bench::Metric("rebalance_zero_lost_or_dup", r.zero_lost_or_dup ? 1 : 0);
    bench::Metric("rebalance_conserved", r.conserved ? 1 : 0);
    if (!r.move_completed || !r.zero_lost_or_dup || !r.conserved) return 1;
  }

  bench::Row("\n  Expect: txn/s grows with shard count (independent groups");
  bench::Row("  pipeline); cross-shard transfers pay roughly one extra prepare");
  bench::Row("  round trip; the rebalance completes with a bounded handoff");
  bench::Row("  window and the model check proves no commit was lost or");
  bench::Row("  applied twice while ownership moved.");
  return 0;
}
