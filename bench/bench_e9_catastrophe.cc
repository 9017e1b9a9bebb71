// E9 — §4.2: "if a majority of cohorts are crashed 'simultaneously', we may
// lose information about the module group's state. ... Note that a
// catastrophe does not cause a group to enter a new view missing some needed
// information. Rather, it causes the algorithm to never again form a new
// view. ... The probability of a catastrophe depends on the configuration."
//
// Measured: probability that the group never re-forms a view after a random
// crash storm, versus replication factor and storm width, plus the
// cur_viewid-durability ablation. Safety is also asserted: a catastrophe is
// always *unavailability*, never a wrong view.
#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct CatastropheResult {
  int trials = 0;
  int catastrophes = 0;   // never stabilized again
  int wrong_views = 0;    // stabilized but lost committed state (must be 0!)
};

// Crash `width` cohorts within a tight window (some recover with empty
// state), then recover everyone and see whether a view forms and whether the
// committed state survived.
CatastropheResult RunTrials(std::size_t replicas, std::size_t width,
                            bool durable_viewid, int trials,
                            bool durable_log = false) {
  CatastropheResult out;
  for (int t = 0; t < trials; ++t) {
    ClusterOptions opts;
    opts.seed = 9000 + t * 131 + replicas * 7 + width + (durable_viewid ? 1 : 0);
    opts.cohort.write_viewid_durably = durable_viewid;
    opts.cohort.event_log.enabled = durable_log;
    Cluster cluster(opts);
    auto g = cluster.AddGroup("kv", replicas);
    auto client_g = cluster.AddGroup("client", 3);
    test::RegisterKvProcs(cluster, g);
    cluster.Start();
    if (!cluster.RunUntilStable()) continue;
    if (test::RunOneCall(cluster, client_g, g, "put", "vital=data") !=
        vr::TxnOutcome::kCommitted) {
      continue;
    }
    cluster.RunFor(200 * host::kMillisecond);
    ++out.trials;

    // The storm: crash `width` distinct cohorts in a 20ms window.
    sim::Rng rng(opts.seed * 3 + 1);
    std::vector<std::size_t> order(replicas);
    for (std::size_t i = 0; i < replicas; ++i) order[i] = i;
    rng.Shuffle(order);
    for (std::size_t i = 0; i < width && i < replicas; ++i) {
      cluster.Crash(g, order[i]);
      cluster.RunFor(rng.UniformInt(1, 20) * host::kMillisecond);
    }
    cluster.RunFor(100 * host::kMillisecond);
    for (std::size_t i = 0; i < width && i < replicas; ++i) {
      cluster.Recover(g, order[i]);
    }

    const bool stable = cluster.RunUntilStable(15 * host::kSecond);
    if (!stable) {
      ++out.catastrophes;
      continue;
    }
    // Safety: if a view formed, the committed write must have survived.
    if (test::CommittedValue(cluster, g, "vital") != "data") {
      ++out.wrong_views;
    }
  }
  return out;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E9: catastrophe probability without stable storage (§4.2)",
      "a 'simultaneous' majority crash can make the group never form a view "
      "again — but never form a WRONG view; replication lowers the odds");

  const int kTrials = 25;
  bench::Row("  %d trials per cell; storm = crash k cohorts within ~20ms and",
             kTrials);
  bench::Row("  recover them (volatile state lost); 'wrong views' must be 0");
  bench::Row("");
  bench::Row("  %-36s | catastrophes | wrong views", "configuration");
  for (std::size_t n : {3u, 5u}) {
    for (std::size_t width = 1; width <= n; ++width) {
      auto r = RunTrials(n, width, /*durable_viewid=*/true, kTrials);
      char label[64];
      std::snprintf(label, sizeof(label), "n=%zu, storm width %zu", n, width);
      bench::Row("  %-36s | %4d / %-4d  | %d", label, r.catastrophes, r.trials,
                 r.wrong_views);
    }
  }
  bench::Row("\n  Ablation: cur_viewid NOT written durably (recovered cohorts");
  bench::Row("  report viewid 0 in crash-acceptances):");
  for (std::size_t width : {2u, 3u}) {
    auto r = RunTrials(3, width, /*durable_viewid=*/false, kTrials);
    char label[64];
    std::snprintf(label, sizeof(label), "n=3, storm width %zu, no durable vid",
                  width);
    bench::Row("  %-36s | %4d / %-4d  | %d", label, r.catastrophes, r.trials,
               r.wrong_views);
  }

  bench::Row("\n  Ablation: write-behind durable event log ON (cohorts replay");
  bench::Row("  their disks and re-form via formation condition 4):");
  for (std::size_t n : {3u, 5u}) {
    for (std::size_t width = (n + 1) / 2; width <= n; ++width) {
      auto r = RunTrials(n, width, /*durable_viewid=*/true, kTrials,
                         /*durable_log=*/true);
      char label[64];
      std::snprintf(label, sizeof(label), "n=%zu, storm width %zu, durable log",
                    n, width);
      bench::Row("  %-36s | %4d / %-4d  | %d", label, r.catastrophes, r.trials,
                 r.wrong_views);
    }
  }

  bench::Row("\n  Expect: width < majority -> no catastrophe; width >= majority");
  bench::Row("  -> catastrophe whenever every member that knew the latest");
  bench::Row("  forced events was wiped (probability rises with width).");
  bench::Row("  'Wrong views' stays 0 in every cell: the algorithm prefers");
  bench::Row("  unavailability to inconsistency (§4.2).");
  return 0;
}
