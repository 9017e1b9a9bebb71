// Tests for §3.6 (nested transactions / subactions) and the design-choice
// ablations DESIGN.md calls out.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using test::RegisterKvProcs;

std::size_t PrimaryIndex(Cluster& cluster, vr::GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

// Crash the server primary while a transaction's call is executing there
// (the procedure takes ~50ms of simulated work, so the crash interrupts it:
// no reply, no replicated completed-call event). Returns the outcome.
vr::TxnOutcome CrashServerMidCall(std::uint64_t seed, bool nested_retry) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.cohort.nested_call_retry = nested_retry;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  sim::Scheduler* sched = &cluster.sim().scheduler();
  cluster.RegisterProc(
      server, "slow_put",
      [sched](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        co_await host::Sleep(*sched, 50 * host::kMillisecond);  // "work"
        std::string a = ctx.ArgsAsString();
        auto eq = a.find('=');
        co_await ctx.Write(a.substr(0, eq), a.substr(eq + 1));
        co_return test::Bytes("ok");
      });
  cluster.Start();
  if (!cluster.RunUntilStable()) return vr::TxnOutcome::kUnknown;

  core::Cohort* primary = cluster.AnyPrimary(client_g);
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      [server](core::TxnHandle& h) -> host::Task<bool> {
        co_await h.Call(server, "slow_put", std::string("s=alpha"));
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  // Let the call reach the server primary, then kill it mid-execution.
  cluster.RunFor(10 * host::kMillisecond);
  const std::size_t p = PrimaryIndex(cluster, server);
  if (p < 3) cluster.Crash(server, p);

  const host::Time deadline = cluster.sim().Now() + 30 * host::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(10 * host::kMillisecond);
  }
  return outcome;
}

TEST(Subactions, WithoutRetryMidCallCrashAbortsTxn) {
  // Fig. 2 step 3: "If there is no reply, abort the transaction" — the whole
  // transaction is lost (§3.6's motivating problem).
  EXPECT_EQ(CrashServerMidCall(61, /*nested_retry=*/false),
            vr::TxnOutcome::kAborted);
}

TEST(Subactions, WithRetryMidCallCrashCommits) {
  // §3.6: "we can abort just the subaction, and then do the call again as a
  // new subaction" — after the view change the retry lands at the new
  // primary and the transaction commits.
  EXPECT_EQ(CrashServerMidCall(61, /*nested_retry=*/true),
            vr::TxnOutcome::kCommitted);
}

TEST(Subactions, DeadAttemptEffectsNeverCommit) {
  // An executed-but-unacknowledged attempt must not leak its tentative
  // write into the committed state when the retry commits.
  ClusterOptions opts;
  opts.seed = 62;
  opts.cohort.nested_call_retry = true;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  // Proc writes "<arg>#<unique-per-execution>" so the two executions are
  // distinguishable.
  int executions = 0;
  sim::Scheduler* sched = &cluster.sim().scheduler();
  cluster.RegisterProc(
      server, "stamp",
      [&executions, sched](core::ProcContext& ctx)
          -> host::Task<std::vector<std::uint8_t>> {
        ++executions;
        std::string v = ctx.ArgsAsString() + "#" + std::to_string(executions);
        co_await ctx.Write("obj", v);
        co_await host::Sleep(*sched, 30 * host::kMillisecond);  // "work"
        co_return test::Bytes(v);
      });
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  core::Cohort* primary = cluster.AnyPrimary(client_g);
  std::string returned;
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      [&](core::TxnHandle& h) -> host::Task<bool> {
        auto r = co_await h.Call(server, "stamp", std::string("x"));
        returned = test::Str(r);
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  // Crash the server primary mid-call, forcing a subaction retry at the new
  // primary; the first attempt wrote its tentative but never replied.
  cluster.RunFor(10 * host::kMillisecond);
  const std::size_t p = PrimaryIndex(cluster, server);
  ASSERT_LT(p, 3u);
  cluster.Crash(server, p);
  while (!done) cluster.RunFor(10 * host::kMillisecond);

  ASSERT_EQ(outcome, vr::TxnOutcome::kCommitted);
  cluster.RunFor(3 * host::kSecond);
  // Whatever committed must be exactly the value whose reply the client saw.
  core::Cohort* sp = cluster.AnyPrimary(server);
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->objects().ReadCommitted("obj").value_or(""), returned);
}

TEST(Subactions, DifferentSeedAlsoCommits) {
  ASSERT_EQ(CrashServerMidCall(63, true), vr::TxnOutcome::kCommitted);
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

TEST(Ablation, ForcedCallsSurviveEvenTheTightestCrashWindow) {
  // §6: forcing completed-call records before replying removes view-change
  // aborts entirely — any call whose reply the client saw is majority-known.
  ClusterOptions opts;
  opts.seed = 67;
  opts.cohort.force_calls_before_reply = true;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, server);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  // The transaction thinks past the crash before committing; with forced
  // calls the crash can land at ANY point after the reply and the commit
  // still succeeds.
  sim::Scheduler* sched = &cluster.sim().scheduler();
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  cluster.AnyPrimary(client_g)->SpawnTransaction(
      [server, sched](core::TxnHandle& h) -> host::Task<bool> {
        co_await h.Call(server, "put", std::string("f=1"));
        co_await host::Sleep(*sched, 2 * host::kSecond);
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  // Crash the primary the instant the reply could have been sent.
  cluster.RunFor(2 * host::kMillisecond);
  auto cohorts = cluster.Cohorts(server);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) {
      cluster.Crash(server, i);
      break;
    }
  }
  const host::Time deadline = cluster.sim().Now() + 30 * host::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(10 * host::kMillisecond);
  }
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  cluster.RunFor(2 * host::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, server, "f"), "1");
}

TEST(Ablation, LazyBackupApplyBehavesLikeEagerAfterPromotion) {
  for (bool eager : {true, false}) {
    ClusterOptions opts;
    opts.seed = 64;
    opts.cohort.eager_backup_apply = eager;
    Cluster cluster(opts);
    auto server = cluster.AddGroup("kv", 3);
    auto client_g = cluster.AddGroup("client", 3);
    RegisterKvProcs(cluster, server);
    cluster.Start();
    ASSERT_TRUE(cluster.RunUntilStable());

    ASSERT_EQ(test::RunOneCall(cluster, client_g, server, "put", "a=1"),
              vr::TxnOutcome::kCommitted);
    cluster.RunFor(300 * host::kMillisecond);
    cluster.Crash(server, PrimaryIndex(cluster, server));
    ASSERT_TRUE(cluster.RunUntilStable());
    // The promoted backup folded its stored records (lazy) or already had
    // them applied (eager); committed state is identical either way.
    EXPECT_EQ(test::CommittedValue(cluster, server, "a"), "1")
        << "eager=" << eager;
    EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, server, "put",
                                        "b=2"),
              vr::TxnOutcome::kCommitted)
        << "eager=" << eager;
  }
}

TEST(Ablation, UnilateralTweakAvoidsFullViewChange) {
  ClusterOptions opts;
  opts.seed = 65;
  opts.cohort.unilateral_view_tweaks = true;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", 5);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, server);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t primary = PrimaryIndex(cluster, server);
  const std::size_t backup = (primary + 1) % 5;
  auto& p = cluster.CohortAt(server, primary);
  const std::uint64_t formations_before = p.stats().views_formed_as_manager;

  // §4.1: "an active primary notices that it cannot communicate with a
  // backup, but it still has a sub-majority of other backups. In this case,
  // the primary can unilaterally exclude the inaccessible backup."
  cluster.Crash(server, backup);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(1 * host::kSecond);

  EXPECT_TRUE(p.IsActivePrimary());  // same primary, no handoff
  EXPECT_GE(p.stats().unilateral_tweaks, 1u);
  EXPECT_FALSE(p.cur_view().Contains(cluster.CohortAt(server, backup).mid()));
  // No full invitation round was run by the primary.
  EXPECT_EQ(p.stats().views_formed_as_manager, formations_before);

  // And the recovered backup is re-added unilaterally.
  cluster.Recover(server, backup);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * host::kSecond);
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, server, "put", "k=1"),
            vr::TxnOutcome::kCommitted);
}

TEST(Ablation, ViewidDurabilityGatesRecoveryHonesty) {
  // With write_viewid_durably=false a recovered cohort reports viewid 0 in
  // its crash-acceptance. The view still forms here (the survivor is the old
  // primary — condition 3), but E9 shows the catastrophe-probability cost.
  ClusterOptions opts;
  opts.seed = 66;
  opts.cohort.write_viewid_durably = false;
  Cluster cluster(opts);
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t primary = PrimaryIndex(cluster, g);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != primary) cluster.Crash(g, i);
  }
  cluster.RunFor(300 * host::kMillisecond);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != primary) cluster.Recover(g, i);
  }
  EXPECT_TRUE(cluster.RunUntilStable());
}

}  // namespace
}  // namespace vsr
