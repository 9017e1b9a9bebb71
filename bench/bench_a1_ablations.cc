// A1 — ablations of the design choices DESIGN.md §4 calls out, measured on
// a steady transaction workload:
//   1. sub-majority force vs forcing to ALL backups ("write-all")
//   2. buffer flush delay (background batching) vs decision latency and
//      background message count
//   3. throughput vs pipeline depth (closed-loop in-flight transactions)
#include "bench/bench_common.h"
#include "workload/driver.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct RunStats {
  double decision_us = 0;
  double call_us = 0;
  double msgs_per_txn = 0;
  double txn_per_sim_sec = 0;
};

RunStats Measure(std::size_t replicas, host::Duration flush_delay,
                 int inflight) {
  ClusterOptions opts;
  opts.seed = 11000 + replicas + flush_delay + inflight;
  opts.cohort.buffer.flush_delay = flush_delay;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", replicas);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  RunStats out;
  if (!cluster.RunUntilStable()) return out;

  cluster.network().ResetStats();
  const int kTxns = 200;
  const host::Time start = cluster.sim().Now();
  if (inflight <= 1) {
    auto phases = bench::MeasureTxnPhases(cluster, client_g, server, kTxns);
    out.decision_us = phases.decision.Mean();
    out.call_us = phases.call.Mean();
    out.txn_per_sim_sec =
        static_cast<double>(phases.committed) /
        (static_cast<double>(cluster.sim().Now() - start) / host::kSecond);
  } else {
    workload::ClosedLoopDriver driver(
        cluster, client_g,
        [&](std::uint64_t i) {
          const std::string args = "k" + std::to_string(i % 64) + "=v";
          return [args, server](core::TxnHandle& h) -> host::Task<bool> {
            co_await h.Call(server, "put", args);
            co_return true;
          };
        },
        workload::DriverOptions{.total_txns = kTxns, .max_inflight = inflight});
    driver.Run();
    out.decision_us = 0;
    out.txn_per_sim_sec =
        static_cast<double>(driver.accounting().committed) /
        (static_cast<double>(cluster.sim().Now() - start) / host::kSecond);
  }
  std::uint64_t total = 0;
  for (const auto& [type, count] : cluster.network().stats().sent_by_type) {
    if (type != static_cast<std::uint16_t>(vr::MsgType::kPing)) total += count;
  }
  out.msgs_per_txn = static_cast<double>(total) / kTxns;
  return out;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "A1: design-choice ablations (DESIGN.md §4)",
      "sub-majority force, background batching, and pipelining — the knobs "
      "behind the paper's performance claims");

  bench::Row("  1) Sub-majority force vs waiting for ALL backups");
  bench::Row("     (n=3: force waits for 1 of 2 backups; n=2: the single");
  bench::Row("     backup IS the sub-majority — the force-all tail):");
  for (std::size_t n : {2u, 3u, 5u}) {
    auto r = Measure(n, 500 * host::kMicrosecond, 1);
    bench::Row("     n=%zu: decision %6.0fus  (waits for %zu of %zu backups)",
               n, r.decision_us, vr::SubMajorityOf(n), n - 1);
  }

  bench::Row("\n  2) Background flush (batching) delay sweep, n=3:");
  bench::Row("     %-12s | decision latency | data msgs/txn", "flush delay");
  for (host::Duration d :
       {host::Duration{0}, 200 * host::kMicrosecond, 500 * host::kMicrosecond,
        2 * host::kMillisecond, 10 * host::kMillisecond}) {
    auto r = Measure(3, d, 1);
    bench::Row("     %-12s | %10.0fus     | %6.1f",
               host::FormatDuration(d).c_str(), r.decision_us, r.msgs_per_txn);
  }
  bench::Row("     (bigger batches -> fewer messages but later acks, so the");
  bench::Row("      commit-time force waits longer: classic batching trade)");

  bench::Row("\n  3) Throughput vs pipeline depth, n=3 (closed loop):");
  for (int inflight : {1, 2, 4, 8, 16}) {
    auto r = Measure(3, 500 * host::kMicrosecond, inflight);
    bench::Row("     inflight %2d : %8.0f txn/s (simulated), %5.1f msgs/txn",
               inflight, r.txn_per_sim_sec, r.msgs_per_txn);
  }
  bench::Row("\n  Expect: decision latency ~flat in n (sub-majority!), fewer");
  bench::Row("  messages with batching at the cost of latency, and throughput");
  bench::Row("  scaling with pipeline depth until the primary serializes.");
  return 0;
}
