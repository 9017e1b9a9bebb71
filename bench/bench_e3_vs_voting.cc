// E3 — §5: "Our method is faster than voting for write operations since we
// require fewer messages. Also, we avoid the deadlocks that can arise if
// messages for concurrent updates arrive at the cohorts in different orders.
// Our method will also be faster for read operations if these take place at
// several cohorts."
//
// Measured: per-operation latency and critical-path message counts for VR
// (call to the primary) versus quorum voting (lock round + write round at a
// write quorum; reads at a read quorum), plus the failure rate of concurrent
// writers — voting's lock conflicts versus VR's serialized execution at the
// primary.
#include "baseline/models.h"
#include "baseline/voting.h"
#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct VotingWorld {
  VotingWorld(std::uint64_t seed, std::size_t n) : simulation(seed), network(simulation, {}) {
    for (std::size_t i = 0; i < n; ++i) {
      replicas.push_back(std::make_unique<baseline::VotingReplica>(
          simulation, network, static_cast<net::NodeId>(100 + i)));
      ids.push_back(static_cast<net::NodeId>(100 + i));
    }
  }
  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<baseline::VotingReplica>> replicas;
  std::vector<net::NodeId> ids;
};

void CompareAtN(std::size_t n) {
  // ---- VR: measured call latency + message counts ----
  double vr_call_us = 0;
  double vr_msgs_critical = 2.0;  // call + reply (structural)
  double vr_msgs_total = 0;
  {
    ClusterOptions opts;
    opts.seed = 3000 + n;
    Cluster cluster(opts);
    auto server = cluster.AddGroup("kv", n);
    auto client_g = cluster.AddGroup("client", 3);
    test::RegisterKvProcs(cluster, server);
    cluster.Start();
    if (!cluster.RunUntilStable()) return;
    cluster.network().ResetStats();
    const int kOps = 150;
    auto phases = bench::MeasureTxnPhases(cluster, client_g, server, kOps);
    cluster.RunFor(1 * host::kSecond);
    vr_call_us = phases.call.Mean();
    // Count data-plane traffic only (exclude pings).
    const auto& st = cluster.network().stats();
    std::uint64_t total = 0;
    for (const auto& [type, count] : st.sent_by_type) {
      if (type != static_cast<std::uint16_t>(vr::MsgType::kPing)) {
        total += count;
      }
    }
    vr_msgs_total = static_cast<double>(total) / kOps;
  }

  // ---- Voting: measured write/read latency + messages ----
  // Read-one/write-all, plus the majority-quorum read variant (the paper's
  // "if reads take place at several cohorts" case).
  double vote_write_us = 0, vote_read_us = 0, vote_msgs = 0,
         vote_qread_us = 0;
  {
    VotingWorld wq(3150 + n, n);
    baseline::VotingOptions qopts;
    qopts.read_quorum = n / 2 + 1;
    qopts.write_quorum = n / 2 + 1;
    baseline::VotingClient qclient(wq.simulation, wq.network, 1, wq.ids,
                                   qopts);
    workload::LatencyRecorder qreads;
    for (int i = 0; i < 100; ++i) {
      bool done = false;
      qclient.Write("k", "v", [&](bool) { done = true; });
      wq.simulation.scheduler().RunToQuiescence();
      const host::Time start = wq.simulation.Now();
      done = false;
      qclient.Read("k",
                   [&](std::optional<baseline::VersionedValue>) { done = true; });
      wq.simulation.scheduler().RunToQuiescence();
      if (done) qreads.Add(wq.simulation.Now() - start);
    }
    vote_qread_us = qreads.Mean();
  }
  {
    VotingWorld w(3100 + n, n);
    baseline::VotingClient client(w.simulation, w.network, 1, w.ids, {});
    workload::LatencyRecorder writes, reads;
    const int kOps = 150;
    w.network.ResetStats();
    for (int i = 0; i < kOps; ++i) {
      host::Time start = w.simulation.Now();
      bool done = false;
      client.Write("k" + std::to_string(i % 16), "v", [&](bool) { done = true; });
      w.simulation.scheduler().RunToQuiescence();
      if (done) writes.Add(w.simulation.Now() - start);
      start = w.simulation.Now();
      done = false;
      client.Read("k" + std::to_string(i % 16),
                  [&](std::optional<baseline::VersionedValue>) { done = true; });
      w.simulation.scheduler().RunToQuiescence();
      if (done) reads.Add(w.simulation.Now() - start);
    }
    vote_write_us = writes.Mean();
    vote_read_us = reads.Mean();
    vote_msgs = static_cast<double>(w.network.stats().frames_sent) / (2 * kOps);
  }

  const auto model_vr = baseline::VrCall(n, 300);
  const auto model_vote = baseline::VotingWrite(n, 300);
  bench::Row("  n=%zu | VR call %6.0fus (%d crit msgs, %4.1f total/op) | "
             "voting write %6.0fus read-1 %6.0fus read-maj %6.0fus (%4.1f msgs/op) | model: VR %llu vs voting %llu msgs",
             n, vr_call_us, static_cast<int>(vr_msgs_critical), vr_msgs_total,
             vote_write_us, vote_read_us, vote_qread_us, vote_msgs,
             static_cast<unsigned long long>(model_vr.messages),
             static_cast<unsigned long long>(model_vote.messages));
}

void DeadlockComparison() {
  bench::Row("\n  Concurrent-writer behaviour (20 rounds of 2 clients hitting one key):");
  // Voting: two clients lock replicas concurrently.
  {
    VotingWorld w(3200, 3);
    baseline::VotingClient c1(w.simulation, w.network, 1, w.ids, {});
    baseline::VotingClient c2(w.simulation, w.network, 2, w.ids, {});
    for (int i = 0; i < 20; ++i) {
      c1.Write("hot", "a", nullptr);
      c2.Write("hot", "b", nullptr);
      w.simulation.scheduler().RunToQuiescence();
    }
    bench::Row("    voting : %llu ok, %llu failed (lock conflicts/deadlock backoff)",
               static_cast<unsigned long long>(c1.stats().writes_ok +
                                               c2.stats().writes_ok),
               static_cast<unsigned long long>(c1.stats().writes_failed +
                                               c2.stats().writes_failed));
  }
  // VR: the primary serializes; concurrent writers queue briefly and all
  // commit.
  {
    ClusterOptions opts;
    opts.seed = 3201;
    Cluster cluster(opts);
    auto server = cluster.AddGroup("kv", 3);
    auto client_g = cluster.AddGroup("client", 3);
    test::RegisterKvProcs(cluster, server);
    cluster.Start();
    cluster.RunUntilStable();
    workload::ClosedLoopDriver driver(
        cluster, client_g,
        [&](std::uint64_t) {
          return [&](core::TxnHandle& h) -> host::Task<bool> {
            co_await h.Call(server, "put", std::string("hot=v"));
            co_return true;
          };
        },
        workload::DriverOptions{.total_txns = 40, .max_inflight = 2});
    driver.Run();
    bench::Row("    VR     : %llu ok, %llu failed",
               static_cast<unsigned long long>(driver.accounting().committed),
               static_cast<unsigned long long>(driver.accounting().aborted));
  }
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E3: VR vs quorum voting (§5)",
      "fewer messages per write than voting; no concurrent-update deadlocks; "
      "reads faster whenever quorum reads touch several cohorts");
  for (std::size_t n : {3u, 5u, 7u}) CompareAtN(n);
  DeadlockComparison();
  bench::Row("\n  Expect: VR's critical path is 2 messages regardless of n;");
  bench::Row("  voting pays 4w messages (lock+write rounds). Voting's");
  bench::Row("  read-one is cheap; quorum reads (r>1) are not. Concurrent");
  bench::Row("  voting writers conflict; VR writers all commit.");
  return 0;
}
