// End-to-end integration tests of the happy path: group formation, remote
// calls, two-phase commit, replication to backups.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using test::Bytes;
using test::RegisterKvProcs;
using test::RunOneCall;
using test::Str;

TEST(Bootstrap, SingleGroupElectsPrimary) {
  Cluster cluster(ClusterOptions{.seed = 1});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  core::Cohort* primary = cluster.AnyPrimary(g);
  ASSERT_NE(primary, nullptr);
  // The view must hold a majority of the configuration.
  EXPECT_GE(primary->cur_view().Size(), vr::MajorityOf(3));
  // Exactly one active primary.
  int actives = 0;
  for (auto* c : cluster.Cohorts(g)) {
    if (c->IsActivePrimary()) ++actives;
  }
  EXPECT_EQ(actives, 1);
}

TEST(Bootstrap, ManyGroupSizes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u}) {
    Cluster cluster(ClusterOptions{.seed = 7 + n});
    auto g = cluster.AddGroup("kv", n);
    cluster.Start();
    ASSERT_TRUE(cluster.RunUntilStable()) << "n=" << n;
    EXPECT_NE(cluster.AnyPrimary(g), nullptr) << "n=" << n;
  }
}

TEST(Commit, SingleCallTransactionCommits) {
  Cluster cluster(ClusterOptions{.seed = 2});
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, server);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  auto outcome = RunOneCall(cluster, client_g, server, "put", "x=42");
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);

  cluster.RunFor(500 * host::kMillisecond);  // let phase two + buffer settle
  // Committed value installed at the primary...
  EXPECT_EQ(test::CommittedValue(cluster, server, "x"), "42");
  // ...and replicated to every active backup.
  for (auto* c : cluster.Cohorts(server)) {
    if (c->status() != core::Status::kActive) continue;
    EXPECT_EQ(c->objects().ReadCommitted("x").value_or(""), "42")
        << "cohort " << c->mid();
  }
}

TEST(Commit, MultiGroupTransactionCommitsAtomically) {
  Cluster cluster(ClusterOptions{.seed = 3});
  auto a = cluster.AddGroup("a", 3);
  auto b = cluster.AddGroup("b", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, a);
  RegisterKvProcs(cluster, b);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  core::Cohort* primary = cluster.AnyPrimary(client_g);
  ASSERT_NE(primary, nullptr);
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      [a, b](core::TxnHandle& h) -> host::Task<bool> {
        co_await h.Call(a, "put", std::string("src=100"));
        co_await h.Call(b, "put", std::string("dst=200"));
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  while (!done) cluster.RunFor(10 * host::kMillisecond);
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, a, "src"), "100");
  EXPECT_EQ(test::CommittedValue(cluster, b, "dst"), "200");
}

TEST(Commit, ReadModifyWriteSequence) {
  Cluster cluster(ClusterOptions{.seed = 4});
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, server);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  for (int i = 0; i < 10; ++i) {
    auto outcome = RunOneCall(cluster, client_g, server, "add", "ctr=1");
    ASSERT_EQ(outcome, vr::TxnOutcome::kCommitted) << "iteration " << i;
  }
  cluster.RunFor(500 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, server, "ctr"), "10");
}

TEST(Abort, BodyFalseAbortsAndDiscardsTentativeState) {
  Cluster cluster(ClusterOptions{.seed = 5});
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, server);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  core::Cohort* primary = cluster.AnyPrimary(client_g);
  ASSERT_NE(primary, nullptr);
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      [server](core::TxnHandle& h) -> host::Task<bool> {
        co_await h.Call(server, "put", std::string("y=13"));
        co_return false;  // application decides to abort
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  while (!done) cluster.RunFor(10 * host::kMillisecond);
  EXPECT_EQ(outcome, vr::TxnOutcome::kAborted);
  cluster.RunFor(500 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, server, "y"), "");
  // Locks must be gone so later transactions proceed.
  auto again = RunOneCall(cluster, client_g, server, "put", "y=7");
  EXPECT_EQ(again, vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * host::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, server, "y"), "7");
}

TEST(Commit, ReadOnlyTransaction) {
  Cluster cluster(ClusterOptions{.seed = 6});
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, server);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  ASSERT_EQ(RunOneCall(cluster, client_g, server, "put", "z=9"),
            vr::TxnOutcome::kCommitted);

  core::Cohort* primary = cluster.AnyPrimary(client_g);
  ASSERT_NE(primary, nullptr);
  std::string read_value;
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      [server, &read_value](core::TxnHandle& h) -> host::Task<bool> {
        auto v = co_await h.Call(server, "get", std::string("z"));
        read_value = Str(v);
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  while (!done) cluster.RunFor(10 * host::kMillisecond);
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(read_value, "9");
}

TEST(Commit, NestedServerCall) {
  Cluster cluster(ClusterOptions{.seed = 7});
  auto front = cluster.AddGroup("front", 3);
  auto back = cluster.AddGroup("back", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, back);
  // front.relay forwards "k=v" to back.put and records an audit entry.
  cluster.RegisterProc(
      front, "relay",
      [back](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto r = co_await ctx.Call(back, "put", Bytes(ctx.ArgsAsString()));
        co_await ctx.Write("audit", ctx.ArgsAsString());
        co_return r;
      });
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  auto outcome = RunOneCall(cluster, client_g, front, "relay", "k=5");
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * host::kMillisecond);
  // Both the nested write at `back` and the local write at `front` landed.
  EXPECT_EQ(test::CommittedValue(cluster, back, "k"), "5");
  EXPECT_EQ(test::CommittedValue(cluster, front, "audit"), "k=5");
}

}  // namespace
}  // namespace vsr
