// E7 — §1/§2: availability is the paper's raison d'être: "By having more
// than one copy of important information, the service continues to be usable
// even when some copies are inaccessible."  A module group masks failures as
// long as a majority of the configuration can communicate; a single copy is
// down whenever its node is down; a Tandem-style co-located pair (§5) is
// hostage to correlated faults.
//
// Measured: fraction of time the group has an active primary (able to serve
// and commit) under random crash/recover schedules, for replication factors
// 1/3/5, swept over MTTF; compared against the analytic k-of-n model and
// the Tandem pair model.
#include "baseline/models.h"
#include "bench/bench_common.h"
#include <memory>
#include <set>

#include "workload/failures.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

double MeasureAvailability(std::uint64_t seed, std::size_t replicas,
                           double mttf_s, double mttr_s,
                           host::Duration horizon) {
  // A single copy has no peers to be partitioned from: its failure IS node
  // downtime. Measure its availability directly from the failure schedule
  // (the conventional non-replicated-server semantics).
  if (replicas == 1) {
    sim::Rng rng1(seed * 31 + 7);
    auto sched1 =
        workload::RandomCrashSchedule(rng1, 1, 1, horizon, mttf_s, mttr_s);
    host::Duration down = 0;
    host::Time down_since = 0;
    bool up = true;
    for (const auto& e : sched1) {
      if (e.kind == workload::FailureEvent::Kind::kCrash && up) {
        up = false;
        down_since = e.at;
      } else if (e.kind == workload::FailureEvent::Kind::kRecover && !up) {
        up = true;
        down += e.at - down_since;
      }
    }
    if (!up) down += horizon - down_since;
    return 1.0 - static_cast<double>(down) / static_cast<double>(horizon);
  }

  ClusterOptions opts;
  opts.seed = seed;
  Cluster cluster(opts);
  auto g = cluster.AddGroup("kv", replicas);
  cluster.Start();
  if (!cluster.RunUntilStable()) return 0;

  // Failures are modelled as node ISOLATION (network partition) rather than
  // crashes: state survives, which isolates the paper's availability claim
  // (service up iff a majority communicates) from §4.2's volatile-state
  // catastrophes, which bench E9 measures separately.
  sim::Rng rng(seed * 31 + 7);
  auto schedule = workload::RandomCrashSchedule(
      rng, g, replicas, cluster.sim().Now() + horizon, mttf_s, mttr_s);
  auto cohorts = cluster.Cohorts(g);
  auto isolated = std::make_shared<std::set<std::size_t>>();
  auto apply_partition = [&cluster, cohorts, isolated] {
    std::vector<std::vector<net::NodeId>> sides;
    std::vector<net::NodeId> connected;
    for (std::size_t i = 0; i < cohorts.size(); ++i) {
      if (isolated->count(i) != 0) {
        sides.push_back({cohorts[i]->mid()});
      } else {
        connected.push_back(cohorts[i]->mid());
      }
    }
    if (sides.empty()) {
      cluster.network().Heal();
      return;
    }
    sides.push_back(connected);
    cluster.network().Partition(sides);
  };
  for (const auto& e : schedule) {
    const std::size_t idx = e.index;
    const bool isolate = e.kind == workload::FailureEvent::Kind::kCrash;
    cluster.sim().scheduler().At(
        cluster.sim().Now() + e.at, [isolate, idx, isolated, apply_partition] {
          if (isolate) {
            isolated->insert(idx);
          } else {
            isolated->erase(idx);
          }
          apply_partition();
        });
  }

  const host::Duration sample_every = 20 * host::kMillisecond;
  std::uint64_t samples = 0, available = 0;
  const host::Time end = cluster.sim().Now() + horizon;
  while (cluster.sim().Now() < end) {
    cluster.RunFor(sample_every);
    ++samples;
    // Available = an active primary exists AND a majority of cohorts are
    // active in its view (so forces — hence commits — can complete).
    core::Cohort* primary = cluster.AnyPrimary(g);
    if (primary == nullptr) continue;
    std::size_t in_view = 0;
    for (auto* c : cluster.Cohorts(g)) {
      if (c->status() == core::Status::kActive &&
          c->cur_viewid() == primary->cur_viewid()) {
        ++in_view;
      }
    }
    if (in_view >= vr::MajorityOf(replicas)) ++available;
  }
  return samples == 0 ? 0 : static_cast<double>(available) / samples;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E7: availability under crashes (§1, §2; Tandem comparison §5)",
      "a VR group is available while a majority communicates; replication "
      "masks failures a single copy cannot");
  bench::Row("  failures = node isolation (partitions); state survives, so this");
  bench::Row("  isolates the majority-communication claim from E9's catastrophes");

  const double mttr = 2.0;  // seconds to recover
  const host::Duration horizon = 300 * host::kSecond;
  bench::Row("  MTTR = %.0fs, horizon = %s; availability = fraction of time a",
             mttr, host::FormatDuration(horizon).c_str());
  bench::Row("  commit-capable primary exists (includes view-change downtime)");
  bench::Row("");
  bench::Row("  %-12s | n=1 meas (model) | n=3 meas (model) | n=5 meas (model) | tandem pair model (10%% corr)",
             "MTTF");
  for (double mttf : {10.0, 30.0, 100.0}) {
    const double a_replica = mttf / (mttf + mttr);
    const double m1 = MeasureAvailability(7100, 1, mttf, mttr, horizon);
    const double m3 = MeasureAvailability(7200, 3, mttf, mttr, horizon);
    const double m5 = MeasureAvailability(7300, 5, mttf, mttr, horizon);
    bench::Row("  %6.0fs      | %6.2f%% (%5.2f%%) | %6.2f%% (%5.2f%%) | %6.2f%% (%5.2f%%) | %5.2f%%",
               mttf, 100 * m1, 100 * a_replica, 100 * m3,
               100 * baseline::VrAvailability(3, a_replica), 100 * m5,
               100 * baseline::VrAvailability(5, a_replica),
               100 * baseline::TandemPairAvailability(a_replica, 0.10));
  }

  bench::Row("\n  Expect: measured availability tracks the k-of-n model minus");
  bench::Row("  view-change downtime (the model assumes instant failover).");
  bench::Row("  n=3 dominates a single copy. Note n=5 can measure BELOW n=3");
  bench::Row("  under frequent failures: every membership event triggers a");
  bench::Row("  view change, and 5 cohorts fail ~1.7x as often as 3 — the");
  bench::Row("  churn cost the paper's 'three or five cohorts' sizing (§2)");
  bench::Row("  implicitly balances. The co-located Tandem pair is capped by");
  bench::Row("  its correlated-failure exposure.");
  return 0;
}
