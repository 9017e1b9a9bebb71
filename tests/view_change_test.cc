// View-change integration tests (§4): crashes, partitions, recoveries, and
// the survival guarantees of committed state.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using test::RegisterKvProcs;
using test::RunOneCall;

std::size_t IndexOfPrimary(Cluster& cluster, vr::GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

TEST(ViewChange, PrimaryCrashElectsNewPrimary) {
  Cluster cluster(ClusterOptions{.seed = 11});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(old_primary, 3u);
  const vr::ViewId old_viewid = cluster.CohortAt(g, old_primary).cur_viewid();

  cluster.Crash(g, old_primary);
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t new_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(new_primary, 3u);
  EXPECT_NE(new_primary, old_primary);
  // Viewids are totally ordered and only grow.
  EXPECT_GT(cluster.CohortAt(g, new_primary).cur_viewid(), old_viewid);
}

TEST(ViewChange, CommittedStateSurvivesPrimaryCrash) {
  Cluster cluster(ClusterOptions{.seed = 12});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  ASSERT_EQ(RunOneCall(cluster, client_g, g, "put", "k=committed"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * host::kMillisecond);

  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  cluster.Crash(g, old_primary);
  ASSERT_TRUE(cluster.RunUntilStable());

  // "events of committed transactions will survive view changes."
  EXPECT_EQ(test::CommittedValue(cluster, g, "k"), "committed");
  // And the group keeps serving transactions. (The first attempt may abort:
  // Fig. 2's no-reply rule; applications simply retry.)
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "put", "k2=after"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "k2"), "after");
}

TEST(ViewChange, BackupCrashKeepsGroupAvailable) {
  Cluster cluster(ClusterOptions{.seed = 13});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t primary = IndexOfPrimary(cluster, g);
  const std::size_t backup = (primary + 1) % 3;
  cluster.Crash(g, backup);
  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_EQ(RunOneCall(cluster, client_g, g, "put", "a=1"),
            vr::TxnOutcome::kCommitted);
}

TEST(ViewChange, CrashedCohortRecoversAndRejoins) {
  Cluster cluster(ClusterOptions{.seed = 14});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  ASSERT_EQ(RunOneCall(cluster, client_g, g, "put", "x=1"),
            vr::TxnOutcome::kCommitted);

  const std::size_t victim = IndexOfPrimary(cluster, g);
  cluster.Crash(g, victim);
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "put", "x=2"),
            vr::TxnOutcome::kCommitted);

  cluster.Recover(g, victim);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * host::kSecond);

  // The recovered cohort re-initializes from a newview record (it sent a
  // "crashed" acceptance) and ends up with the committed state.
  auto& recovered = cluster.CohortAt(g, victim);
  EXPECT_EQ(recovered.status(), core::Status::kActive);
  EXPECT_TRUE(recovered.up_to_date());
  EXPECT_EQ(recovered.objects().ReadCommitted("x").value_or(""), "2");
}

TEST(ViewChange, MinorityPartitionCannotFormView) {
  Cluster cluster(ClusterOptions{.seed = 15});
  auto g = cluster.AddGroup("kv", 5);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  auto cohorts = cluster.Cohorts(g);
  // Partition mids {0,1} away from {2,3,4}.
  std::vector<net::NodeId> minority{cohorts[0]->mid(), cohorts[1]->mid()};
  std::vector<net::NodeId> majority{cohorts[2]->mid(), cohorts[3]->mid(),
                                    cohorts[4]->mid()};
  cluster.network().Partition({minority, majority});
  cluster.RunFor(5 * host::kSecond);

  // The majority side has an active primary; the minority side has none.
  int active_in_minority = 0;
  int primaries_in_majority = 0;
  for (auto* c : {cohorts[0], cohorts[1]}) {
    if (c->IsActivePrimary()) ++active_in_minority;
  }
  for (auto* c : {cohorts[2], cohorts[3], cohorts[4]}) {
    if (c->IsActivePrimary()) ++primaries_in_majority;
  }
  EXPECT_EQ(active_in_minority, 0);
  EXPECT_EQ(primaries_in_majority, 1);

  // Healing reunites the group into a single active view.
  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * host::kSecond);
  int actives = 0;
  for (auto* c : cohorts) {
    if (c->IsActivePrimary()) ++actives;
  }
  EXPECT_EQ(actives, 1);
}

TEST(ViewChange, WorkContinuesAcrossPartitionOfPrimary) {
  Cluster cluster(ClusterOptions{.seed = 16});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCall(cluster, client_g, g, "put", "p=before"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * host::kMillisecond);

  // Isolate the server primary from everyone (server backups + clients).
  auto cohorts = cluster.Cohorts(g);
  const std::size_t primary = IndexOfPrimary(cluster, g);
  std::vector<net::NodeId> isolated{cohorts[primary]->mid()};
  std::vector<net::NodeId> rest;
  for (auto* c : cohorts) {
    if (c->mid() != cohorts[primary]->mid()) rest.push_back(c->mid());
  }
  for (auto* c : cluster.Cohorts(client_g)) rest.push_back(c->mid());
  cluster.network().Partition({isolated, rest});

  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "put", "p=after"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "p"), "after");

  // The stale primary cannot commit anything: §4.1 "The old primary will not
  // be able to prepare and commit user transactions, however, since it
  // cannot force their effects to the backups."
  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * host::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "p"), "after");
}

TEST(ViewChange, MajorityCrashIsCatastrophicUntilRecovery) {
  // §4.2: if a majority crash "simultaneously", the group state may be lost;
  // the algorithm then never forms a view again (it does NOT form a wrong
  // view). Here both backups crash and recover with empty gstate while the
  // primary also crashes: 3 crash-acceptances, no normal one — no view.
  Cluster cluster(ClusterOptions{.seed = 17});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  for (std::size_t i = 0; i < 3; ++i) cluster.Crash(g, i);
  for (std::size_t i = 0; i < 3; ++i) cluster.Recover(g, i);
  EXPECT_FALSE(cluster.RunUntilStable(5 * host::kSecond));
  for (auto* c : cluster.Cohorts(g)) {
    EXPECT_NE(c->status(), core::Status::kActive);
  }
}

TEST(ViewChange, BothBackupsCrashAndRecover) {
  // The surviving PRIMARY accepts normally, so condition (3) holds:
  // "crash-viewid = normal-viewid and the primary of view normal-viewid has
  //  done a normal acceptance" — the primary always knows at least as much
  // as any backup, so the crashed backups' lost state is irrelevant.
  Cluster cluster(ClusterOptions{.seed = 18});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(primary, 3u);

  for (std::size_t i = 0; i < 3; ++i) {
    if (i != primary) cluster.Crash(g, i);
  }
  cluster.RunFor(500 * host::kMillisecond);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != primary) cluster.Recover(g, i);
  }
  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_NE(cluster.AnyPrimary(g), nullptr);
}

TEST(ViewChange, PaperSection4SafetyExample) {
  // The paper's own example (§4): "suppose there are three cohorts, A, B and
  // C ... A committed a transaction, forcing its event records to B but not
  // C, then A crashed and recovered ... we cannot form a new view [without
  // B] because A has lost information and there are forced events that C
  // does not know." With the primary A recovered-from-crash and backup B
  // down, A+C alone must NOT form a view: none of conditions (1)-(3) hold.
  Cluster cluster(ClusterOptions{.seed = 181});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t a = IndexOfPrimary(cluster, g);
  ASSERT_LT(a, 3u);
  const std::size_t b = (a + 1) % 3;

  cluster.Crash(g, a);  // primary loses its volatile state
  // B keeps its state but is unreachable (partitioned away), exactly the
  // paper's "a partition occurred that separated B from A and C".
  auto cohorts = cluster.Cohorts(g);
  cluster.network().Partition(
      {{cohorts[b]->mid()},
       {cohorts[a]->mid(), cohorts[3 - a - b]->mid()}});
  cluster.RunFor(200 * host::kMillisecond);
  cluster.Recover(g, a);  // A returns with a crash-acceptance only

  // A (crashed accept, viewid v) + C (normal accept, viewid v): condition 3
  // fails because the primary of view v did not accept normally.
  EXPECT_FALSE(cluster.RunUntilStable(5 * host::kSecond));
  for (auto* c : cluster.Cohorts(g)) {
    EXPECT_FALSE(c->IsActivePrimary());
  }

  // "the partition is repaired": B's normal acceptance carries the forced
  // events and the view forms again with nothing lost.
  cluster.network().Heal();
  EXPECT_TRUE(cluster.RunUntilStable());
}

TEST(ViewChange, RepeatedPrimaryCrashes) {
  Cluster cluster(ClusterOptions{.seed = 19});
  auto g = cluster.AddGroup("kv", 5);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  int expected = 0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "add", "ctr=1"),
              vr::TxnOutcome::kCommitted)
        << "round " << round;
    ++expected;
    cluster.RunFor(300 * host::kMillisecond);
    const std::size_t primary = IndexOfPrimary(cluster, g);
    ASSERT_LT(primary, 5u);
    cluster.Crash(g, primary);
    ASSERT_TRUE(cluster.RunUntilStable()) << "round " << round;
  }
  ASSERT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "add", "ctr=1"),
            vr::TxnOutcome::kCommitted);
  ++expected;
  cluster.RunFor(300 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "ctr"),
            std::to_string(expected));
}

}  // namespace
}  // namespace vsr
