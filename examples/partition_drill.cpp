// Partition drill: a guided tour of the view change algorithm (§4).
//
// Watches a 5-cohort group live through the paper's failure scenarios and
// narrates what the protocol does at each step:
//   1. a backup is partitioned away        -> view shrinks, service continues
//   2. the PRIMARY is partitioned away     -> new primary elected; the old
//      one keeps "serving" but cannot commit (it cannot force to a
//      sub-majority) — §4.1's several-active-primaries case
//   3. the partition heals                 -> one view again, nothing lost
//   4. a majority is partitioned away      -> the minority side stalls
//      (safety over availability), then recovers on heal
//
//   $ ./partition_drill
#include <cstdio>

#include "client/cluster.h"
#include "tests/test_util.h"

using namespace vsr;

namespace {

client::Cluster* g_cluster = nullptr;

void Show(vr::GroupId g, const char* note) {
  std::printf("[%8s] %s\n",
              host::FormatDuration(g_cluster->sim().Now()).c_str(), note);
  for (auto* c : g_cluster->Cohorts(g)) {
    std::printf("    cohort %u: %-12s view %-8s %s\n", c->mid(),
                core::StatusName(c->status()),
                c->cur_viewid().ToString().c_str(),
                c->IsActivePrimary() ? "<- active primary" : "");
  }
}

bool Put(vr::GroupId agents, vr::GroupId kv, const std::string& kvpair) {
  auto outcome =
      test::RunOneCallWithRetry(*g_cluster, agents, kv, "put", kvpair);
  std::printf("    put %-12s -> %s\n", kvpair.c_str(),
              outcome == vr::TxnOutcome::kCommitted ? "committed" : "ABORTED");
  return outcome == vr::TxnOutcome::kCommitted;
}

}  // namespace

int main() {
  client::Cluster cluster(client::ClusterOptions{.seed = 7});
  g_cluster = &cluster;
  auto kv = cluster.AddGroup("kv", 5);
  auto agents = cluster.AddGroup("agents", 3);
  test::RegisterKvProcs(cluster, kv);
  cluster.Start();
  cluster.RunUntilStable();
  Show(kv, "boot: first view formed");
  Put(agents, kv, "epoch=1");

  auto cohorts = cluster.Cohorts(kv);
  auto mid = [&](int i) { return cohorts[static_cast<std::size_t>(i)]->mid(); };
  auto primary_mid = [&]() {
    for (auto* c : cohorts) {
      if (c->IsActivePrimary()) return c->mid();
    }
    return vr::Mid{0};
  };

  // --- scene 1: lose a backup -------------------------------------------
  vr::Mid p = primary_mid();
  vr::Mid backup = 0;
  for (auto* c : cohorts) {
    if (c->mid() != p) {
      backup = c->mid();
      break;
    }
  }
  std::vector<net::NodeId> rest1;
  for (auto* c : cohorts) {
    if (c->mid() != backup) rest1.push_back(c->mid());
  }
  for (auto* c : cluster.Cohorts(agents)) rest1.push_back(c->mid());
  cluster.network().Partition({{backup}, rest1});
  cluster.RunUntilStable();
  cluster.RunFor(1 * host::kSecond);
  Show(kv, "scene 1: one backup partitioned away — majority re-forms");
  Put(agents, kv, "epoch=2");

  // --- scene 2: lose the primary ----------------------------------------
  cluster.network().Heal();
  cluster.RunUntilStable();
  cluster.RunFor(1 * host::kSecond);
  p = primary_mid();
  std::vector<net::NodeId> rest2;
  for (auto* c : cohorts) {
    if (c->mid() != p) rest2.push_back(c->mid());
  }
  for (auto* c : cluster.Cohorts(agents)) rest2.push_back(c->mid());
  cluster.network().Partition({{p}, rest2});
  cluster.RunUntilStable();
  cluster.RunFor(1 * host::kSecond);
  Show(kv, "scene 2: the PRIMARY partitioned away — note the stale primary");
  std::printf("    (the old primary still thinks it leads its old view, but\n"
              "     cannot commit: force-to cannot reach a sub-majority)\n");
  Put(agents, kv, "epoch=3");

  // --- scene 3: heal ------------------------------------------------------
  cluster.network().Heal();
  cluster.RunUntilStable();
  cluster.RunFor(2 * host::kSecond);
  Show(kv, "scene 3: healed — one view, stale primary demoted");
  Put(agents, kv, "epoch=4");

  // --- scene 4: minority island ------------------------------------------
  std::vector<net::NodeId> island{mid(0), mid(1)};
  std::vector<net::NodeId> mainland{mid(2), mid(3), mid(4)};
  for (auto* c : cluster.Cohorts(agents)) mainland.push_back(c->mid());
  cluster.network().Partition({island, mainland});
  cluster.RunFor(3 * host::kSecond);
  Show(kv, "scene 4: two cohorts islanded — the island cannot form a view");
  Put(agents, kv, "epoch=5");
  cluster.network().Heal();
  cluster.RunUntilStable();
  cluster.RunFor(2 * host::kSecond);
  Show(kv, "scene 4b: healed again");

  core::Cohort* primary = cluster.AnyPrimary(kv);
  std::printf("\nfinal committed epoch = %s (expect 5)\n",
              primary->objects().ReadCommitted("epoch").value_or("?").c_str());
  return 0;
}
