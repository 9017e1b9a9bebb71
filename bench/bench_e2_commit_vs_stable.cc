// E2 — §3.7: "For both preparing and committing, our method will be faster
// than using non-replicated clients and servers if communication is faster
// than writing to stable storage, which is often the case provided that the
// number of backups is small."  Also: "We expect that prepare messages are
// usually processed entirely at the primary because the needed
// 'completed-call' event records ... will already be stored at a
// sub-majority of cohorts."
//
// Measured: the commit-decision latency (prepare + committing-record force)
// of a VR transaction versus the equivalent non-replicated transaction, as
// the stable-storage force latency sweeps from paper-era disk (10ms) down to
// NVRAM (10us), and the fraction of forces satisfied with no waiting.
#include "baseline/nonreplicated.h"
#include "baseline/nonreplicated_viewstamped.h"
#include "bench/bench_common.h"
#include "client/shard_router.h"
#include "workload/sharded_bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

double VrDecisionLatency(std::size_t replicas, host::Duration think_time,
                         std::uint64_t* immediate_pct) {
  ClusterOptions opts;
  opts.seed = 2000 + replicas + think_time;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", replicas);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  if (!cluster.RunUntilStable()) return -1;
  auto phases =
      bench::MeasureTxnPhases(cluster, client_g, server, 150, think_time);
  if (immediate_pct != nullptr) {
    std::uint64_t forces = 0, immediate = 0;
    for (auto* c : cluster.Cohorts(server)) {
      forces += c->buffer().stats().forces;
      immediate += c->buffer().stats().forces_immediate;
    }
    for (auto* c : cluster.Cohorts(client_g)) {
      forces += c->buffer().stats().forces;
      immediate += c->buffer().stats().forces_immediate;
    }
    *immediate_pct = forces == 0 ? 0 : 100 * immediate / forces;
  }
  return phases.decision.Mean();
}

// §5's own proposal: viewstamped non-replicated server (write-behind log,
// prepare forces only the unwritten suffix).
double ViewstampedStableDecisionLatency(host::Duration force_latency,
                                        host::Duration think,
                                        std::uint64_t* immediate_pct) {
  sim::Simulation simulation(2998);
  net::Network network(simulation, {});
  storage::StableStoreOptions sopts;
  sopts.force_latency = force_latency;
  storage::StableStore stable(simulation, sopts);
  baseline::ViewstampedStableServer server(simulation, network, 50, stable);
  baseline::StableClient client(simulation, network, 51, 50);
  workload::LatencyRecorder decision;
  for (int i = 0; i < 150; ++i) {
    bool done = false;
    client.RunTxn(
        1,
        [&](baseline::StableClient::TxnTiming t) {
          done = true;
          if (t.ok) decision.Add(t.prepare_latency + t.commit_latency);
        },
        think);  // user computation before prepare: the log drains behind it
    simulation.scheduler().RunToQuiescence();
    if (!done) break;
  }
  if (immediate_pct != nullptr) {
    const auto& s = server.stats();
    const std::uint64_t total = s.prepares_immediate + s.prepares_waited;
    *immediate_pct = total == 0 ? 0 : 100 * s.prepares_immediate / total;
  }
  return decision.Mean();
}

// Windowed-replication efficiency in a 5-cohort steady state: how many
// record transmissions the backups cost per committed transaction, and how
// many of those were retransmissions (deadline expiry or gap fill) rather
// than first sends.
void ReplicationEfficiency(std::size_t replicas) {
  ClusterOptions opts;
  opts.seed = 2100 + replicas;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", replicas);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  if (!cluster.RunUntilStable()) return;
  std::uint64_t committed = 0;
  for (int i = 0; i < 200; ++i) {
    if (test::RunOneCall(cluster, client_g, server, "add", "x=1") ==
        vr::TxnOutcome::kCommitted) {
      ++committed;
    }
  }
  cluster.RunFor(1 * host::kSecond);
  vr::CommBuffer::Stats agg;
  std::uint64_t commits_applied = 0;
  for (auto* c : cluster.Cohorts(server)) {
    const auto& s = c->buffer().stats();
    agg.records_sent += s.records_sent;
    agg.records_retransmitted += s.records_retransmitted;
    agg.retransmit_timeouts += s.retransmit_timeouts;
    agg.gap_requests += s.gap_requests;
    agg.window_stalls += s.window_stalls;
    agg.records_gced += s.records_gced;
    agg.buffer_high_water = std::max(agg.buffer_high_water, s.buffer_high_water);
    commits_applied += c->stats().commits_applied;
  }
  if (committed == 0) return;
  bench::Row("    committed txns             : %8llu (%llu applied server-side)",
             static_cast<unsigned long long>(committed),
             static_cast<unsigned long long>(commits_applied));
  bench::Row("    records sent to backups    : %8llu (%.2f per committed txn)",
             static_cast<unsigned long long>(agg.records_sent),
             static_cast<double>(agg.records_sent) / committed);
  bench::Row("    records retransmitted      : %8llu (%.2f per committed txn)",
             static_cast<unsigned long long>(agg.records_retransmitted),
             static_cast<double>(agg.records_retransmitted) / committed);
  bench::Row("    retransmit deadline expiry : %8llu", static_cast<unsigned long long>(agg.retransmit_timeouts));
  bench::Row("    gap requests honored       : %8llu", static_cast<unsigned long long>(agg.gap_requests));
  bench::Row("    window stalls              : %8llu", static_cast<unsigned long long>(agg.window_stalls));
  bench::Row("    records GC'd below watermark %7llu (buffer high-water %llu)",
             static_cast<unsigned long long>(agg.records_gced),
             static_cast<unsigned long long>(agg.buffer_high_water));
}

// Commit-fusion ablation (DESIGN.md §13): identical cross-shard transfer
// workloads with commit_fusion on and off. The fused path reports the
// decision at committing-buffer time and overlaps the decision force with
// the commit fan-out, so the client-visible path contains one fewer force
// and one fewer sequential round; total message count stays ~equal (the
// same frames are sent, just off the latency path).
struct FusionResult {
  double decision_us = -1;
  double frames_per_commit = 0;
  double client_path_forces_per_commit = 0;
  std::uint64_t committed = 0;
};

FusionResult FusionAblation(bool fusion) {
  FusionResult out;
  ClusterOptions opts;
  opts.seed = 2200;  // identical worlds; only the fusion flag differs
  opts.cohort.commit_fusion = fusion;
  Cluster cluster(opts);
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 12);
  cluster.Start();
  if (!cluster.RunUntilStable()) return out;
  if (workload::FundShardedAccounts(cluster, bank, 1000) != 12) return out;
  cluster.RunFor(1 * host::kSecond);

  // Snapshot after funding so the single-shard funding txns don't pollute
  // the per-commit arithmetic.
  const std::uint64_t frames_before = cluster.network().stats().frames_sent;
  std::uint64_t coord_committed_before = 0, fused_before = 0;
  for (auto* c : cluster.Cohorts(bank.client_group)) {
    coord_committed_before += c->stats().txns_committed;
    fused_before += c->stats().fused_commits;
  }

  client::ShardRouter router(cluster.directory());
  sim::Rng rng(5);
  const int txns = bench::Scaled(150);
  workload::LatencyRecorder decision;
  for (int i = 0; i < txns; ++i) {
    core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
    if (coord == nullptr) break;
    const int from = static_cast<int>(rng.Index(6));
    const int to = 6 + static_cast<int>(rng.Index(6));
    bool done = false;
    const host::Time start = cluster.sim().Now();
    coord->SpawnTransaction(
        workload::MakeShardedTransferTxn(
            router, workload::ShardAccountName(from),
            workload::ShardAccountName(to), 1),
        [&](vr::TxnOutcome o) {
          done = true;
          if (o == vr::TxnOutcome::kCommitted) {
            ++out.committed;
            decision.Add(cluster.sim().Now() - start);
          }
        });
    const host::Time deadline = cluster.sim().Now() + 10 * host::kSecond;
    while (!done && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * host::kMillisecond);
    }
  }
  cluster.RunFor(2 * host::kSecond);  // let background fan-outs finish

  if (out.committed == 0) return out;
  out.decision_us = decision.Mean();
  out.frames_per_commit =
      static_cast<double>(cluster.network().stats().frames_sent -
                          frames_before) /
      static_cast<double>(out.committed);
  std::uint64_t coord_committed = 0, fused = 0;
  for (auto* c : cluster.Cohorts(bank.client_group)) {
    coord_committed += c->stats().txns_committed;
    fused += c->stats().fused_commits;
  }
  // A commit whose decision was NOT fused awaited the committing-record
  // force inside the client-visible path.
  out.client_path_forces_per_commit =
      static_cast<double>((coord_committed - coord_committed_before) -
                          (fused - fused_before)) /
      static_cast<double>(out.committed);
  return out;
}

double StableDecisionLatency(host::Duration force_latency) {
  sim::Simulation simulation(2999);
  net::Network network(simulation, {});
  storage::StableStoreOptions sopts;
  sopts.force_latency = force_latency;
  storage::StableStore stable(simulation, sopts);
  baseline::StableServer server(simulation, network, 50, stable);
  baseline::StableClient client(simulation, network, 51, 50);
  workload::LatencyRecorder decision;
  for (int i = 0; i < 150; ++i) {
    bool done = false;
    client.RunTxn(1, [&](baseline::StableClient::TxnTiming t) {
      done = true;
      if (t.ok) decision.Add(t.prepare_latency + t.commit_latency);
    });
    simulation.scheduler().RunToQuiescence();
    if (!done) break;
  }
  return decision.Mean();
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E2: prepare+commit latency — force-to-backups vs stable storage (§3.7)",
      "VR beats a conventional system whenever communication is faster than "
      "a stable-storage write; prepares usually wait on nothing");

  std::uint64_t immediate = 0;
  const double vr3 = VrDecisionLatency(3, 0, &immediate);
  std::uint64_t immediate_think = 0;
  const double vr3_think =
      VrDecisionLatency(3, 5 * host::kMillisecond, &immediate_think);
  const double vr5 = VrDecisionLatency(5, 0, nullptr);
  const double vr7 = VrDecisionLatency(7, 0, nullptr);
  bench::Row("  VR (n=3)  decision latency: %8.0fus   (forces immediate: %llu%%)",
             vr3, static_cast<unsigned long long>(immediate));
  bench::Row("  VR (n=3, 5ms think time) :  %8.0fus   (forces immediate: %llu%%)",
             vr3_think, static_cast<unsigned long long>(immediate_think));
  bench::Row("  VR (n=5)  decision latency: %8.0fus", vr5);
  bench::Row("  VR (n=7)  decision latency: %8.0fus", vr7);

  bench::Row("\n  Windowed replication efficiency (n=5 steady state):");
  ReplicationEfficiency(5);

  bench::Row("\n  Non-replicated decision latency vs stable-storage force time:");
  struct SweepPoint {
    const char* label;
    host::Duration force;
  };
  const SweepPoint sweep[] = {
      {"1988 disk        (25ms)", 25 * host::kMillisecond},
      {"disk             (10ms)", 10 * host::kMillisecond},
      {"fast disk         (3ms)", 3 * host::kMillisecond},
      {"battery RAM     (300us)", 300 * host::kMicrosecond},
      {"SSD             (100us)", 100 * host::kMicrosecond},
      {"NVRAM            (10us)", 10 * host::kMicrosecond},
  };
  for (const auto& p : sweep) {
    const double lat = StableDecisionLatency(p.force);
    const char* winner = lat > vr3 ? "VR wins" : "stable storage wins";
    bench::Row("    %-26s : %8.0fus   -> %s (vs VR n=3 %0.0fus)", p.label,
               lat, winner, vr3);
  }

  bench::Row("\n  The paper's §5 proposal for NON-replicated systems — write call");
  bench::Row("  records to stable storage in background, force only at prepare:");
  {
    std::uint64_t imm = 0;
    const double vs_disk = ViewstampedStableDecisionLatency(
        10 * host::kMillisecond, 20 * host::kMillisecond, &imm);
    const double plain_disk = StableDecisionLatency(10 * host::kMillisecond);
    bench::Row("    disk (10ms), viewstamped : %8.0fus (prepares immediate: %llu%%)",
               vs_disk, static_cast<unsigned long long>(imm));
    bench::Row("    disk (10ms), conventional: %8.0fus  ->  %.1fx faster at",
               plain_disk, vs_disk > 0 ? plain_disk / vs_disk : 0.0);
    bench::Row("    prepare+commit, exactly the paper's 'faster at prepare time'");
  }

  bench::Row("\n  Commit fusion ablation (DESIGN.md §13) — cross-shard transfers,");
  bench::Row("  2 shards x 3 replicas, identical worlds, fused vs serial 2PC:");
  {
    const FusionResult fused = FusionAblation(true);
    const FusionResult serial = FusionAblation(false);
    bench::Row("    fused  : decision %8.0fus  %.1f frames/commit  %.2f client-path forces/commit (%llu txns)",
               fused.decision_us, fused.frames_per_commit,
               fused.client_path_forces_per_commit,
               static_cast<unsigned long long>(fused.committed));
    bench::Row("    serial : decision %8.0fus  %.1f frames/commit  %.2f client-path forces/commit (%llu txns)",
               serial.decision_us, serial.frames_per_commit,
               serial.client_path_forces_per_commit,
               static_cast<unsigned long long>(serial.committed));
    if (fused.decision_us > 0 && serial.decision_us > 0) {
      bench::Row("    -> fusion removes %.0fus (%.1f%%) from the client-visible",
                 serial.decision_us - fused.decision_us,
                 100.0 * (serial.decision_us - fused.decision_us) /
                     serial.decision_us);
      bench::Row("    decision path: the committing force and the commit fan-out");
      bench::Row("    ride behind the reply instead of ahead of it.");
    }
    bench::Metric("fused_decision_us", fused.decision_us);
    bench::Metric("serial_decision_us", serial.decision_us);
    bench::Metric("fused_frames_per_commit", fused.frames_per_commit);
    bench::Metric("serial_frames_per_commit", serial.frames_per_commit);
    bench::Metric("fused_client_path_forces_per_commit",
                  fused.client_path_forces_per_commit);
    bench::Metric("serial_client_path_forces_per_commit",
                  serial.client_path_forces_per_commit);
    bench::Metric("fusion_committed", static_cast<double>(fused.committed));
    bench::Metric("serial_committed", static_cast<double>(serial.committed));
  }

  bench::Row("\n  Expect: VR's decision latency is a couple of network round");
  bench::Row("  trips; the conventional system pays 2 forced writes. The");
  bench::Row("  crossover falls where a force ~= a round trip (sub-ms).");
  bench::Row("  Note: each transaction issues ~3 forces (participant prepare,");
  bench::Row("  coordinator committing, participant committed). Only the");
  bench::Row("  prepare force can be pre-satisfied by background flushing —");
  bench::Row("  33%% immediate with think time means ~all prepare forces");
  bench::Row("  waited on nothing, exactly the paper's claim.");
  return 0;
}
