// E1 — §3.7: "Remote calls in our system run only at the primary and need
// not involve the backups and therefore their performance is the same as in
// a non-replicated system."
//
// Measured: remote-call latency in a VR group of n = 1, 3, 5, 7 cohorts
// versus a plain non-replicated server, plus the count of background
// (off-critical-path) buffer messages per call. The call latency must be flat
// in n and match the non-replicated round trip.
#include "baseline/nonreplicated.h"
#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

void RunVrRow(std::size_t replicas) {
  ClusterOptions opts;
  opts.seed = 1000 + replicas;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", replicas);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  if (!cluster.RunUntilStable()) {
    bench::Row("  VR n=%zu: failed to stabilize", replicas);
    return;
  }
  cluster.network().ResetStats();
  const int kTxns = 200;
  auto phases = bench::MeasureTxnPhases(cluster, client_g, server, kTxns);
  cluster.RunFor(1 * host::kSecond);  // drain background traffic

  const auto& net = cluster.network().stats();
  const double batches =
      static_cast<double>(net.sent_by_type.count(
                              static_cast<std::uint16_t>(vr::MsgType::kBufferBatch))
                              ? net.sent_by_type.at(static_cast<std::uint16_t>(
                                    vr::MsgType::kBufferBatch))
                              : 0) /
      kTxns;
  bench::Row("  VR n=%zu          | call %8.0fus  p99 %8lluus | background buffer msgs/txn %5.1f",
             replicas, phases.call.Mean(),
             static_cast<unsigned long long>(phases.call.Percentile(99)),
             batches);
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E1: remote call latency — VR vs non-replicated (§3.7)",
      "calls run entirely at the primary; latency equals the non-replicated "
      "system and is independent of the number of backups");

  // Non-replicated reference: one server, no replication, no stable-storage
  // force on the call path.
  {
    sim::Simulation simulation(999);
    net::Network network(simulation, {});
    storage::StableStore stable(simulation, {});
    baseline::StableServer server(simulation, network, 50, stable);
    baseline::StableClient client(simulation, network, 51, 50);
    workload::LatencyRecorder calls;
    for (int i = 0; i < 200; ++i) {
      bool done = false;
      client.RunTxn(1, [&](baseline::StableClient::TxnTiming t) {
        done = true;
        if (t.ok) calls.Add(t.call_latency);
      });
      simulation.scheduler().RunToQuiescence();
      if (!done) break;
    }
    bench::Row("  non-replicated   | call %8.0fus  p99 %8lluus |", calls.Mean(),
               static_cast<unsigned long long>(calls.Percentile(99)));
  }

  for (std::size_t n : {1u, 3u, 5u, 7u}) RunVrRow(n);

  bench::Row("\n  Expect: VR call latency ~= non-replicated and flat in n;");
  bench::Row("  only the background buffer-message count grows with n.");
  return 0;
}
