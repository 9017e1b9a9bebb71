// Tests for the comparison baselines: quorum voting, the non-replicated
// stable-storage server, and the analytic cost models.
#include <gtest/gtest.h>

#include "baseline/models.h"
#include "baseline/nonreplicated.h"
#include "baseline/nonreplicated_viewstamped.h"
#include "baseline/voting.h"
#include "sim/simulation.h"

namespace vsr::baseline {
namespace {

struct VotingWorld {
  explicit VotingWorld(std::uint64_t seed, std::size_t replicas = 3)
      : simulation(seed), network(simulation, {}) {
    for (std::size_t i = 0; i < replicas; ++i) {
      replica_objs.push_back(
          std::make_unique<VotingReplica>(simulation, network, 100 + i));
      replica_ids.push_back(static_cast<net::NodeId>(100 + i));
    }
  }
  sim::Simulation simulation;
  net::Network network;
  std::vector<std::unique_ptr<VotingReplica>> replica_objs;
  std::vector<net::NodeId> replica_ids;
};

TEST(Voting, WriteAllReadOneRoundTrips) {
  VotingWorld w(71);
  VotingClient client(w.simulation, w.network, 1, w.replica_ids, {});
  bool wrote = false;
  client.Write("k", "v1", [&](bool ok) { wrote = ok; });
  w.simulation.scheduler().RunToQuiescence();
  EXPECT_TRUE(wrote);

  std::optional<VersionedValue> read;
  client.Read("k", [&](std::optional<VersionedValue> v) { read = v; });
  w.simulation.scheduler().RunToQuiescence();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->value, "v1");
  // Write-all installed at every replica.
  for (auto& r : w.replica_objs) {
    ASSERT_TRUE(r->Get("k").has_value());
    EXPECT_EQ(r->Get("k")->value, "v1");
  }
}

TEST(Voting, MajorityQuorumsIntersect) {
  VotingWorld w(72, 5);
  VotingOptions opts;
  opts.read_quorum = 3;
  opts.write_quorum = 3;
  VotingClient client(w.simulation, w.network, 1, w.replica_ids, opts);
  bool wrote = false;
  client.Write("k", "v2", [&](bool ok) { wrote = ok; });
  w.simulation.scheduler().RunToQuiescence();
  ASSERT_TRUE(wrote);
  std::optional<VersionedValue> read;
  client.Read("k", [&](std::optional<VersionedValue> v) { read = v; });
  w.simulation.scheduler().RunToQuiescence();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->value, "v2");  // r+w > n guarantees intersection
}

TEST(Voting, ConcurrentWritersConflict) {
  // §5: "we avoid the deadlocks that can arise if messages for concurrent
  // updates arrive at the cohorts in different orders" — here the voting
  // baseline exhibits the conflict: two clients lock replicas concurrently
  // and at least one backs out.
  VotingWorld w(73);
  VotingClient c1(w.simulation, w.network, 1, w.replica_ids, {});
  VotingClient c2(w.simulation, w.network, 2, w.replica_ids, {});
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    c1.Write("hot", "a" + std::to_string(i), [&](bool ok) { if (!ok) ++failures; });
    c2.Write("hot", "b" + std::to_string(i), [&](bool ok) { if (!ok) ++failures; });
    w.simulation.scheduler().RunToQuiescence();
  }
  EXPECT_GT(failures, 0);
}

TEST(NonReplicated, TxnPhasesPayStableStorageLatency) {
  sim::Simulation simulation(74);
  net::Network network(simulation, {});
  storage::StableStoreOptions sopts;
  sopts.force_latency = 10 * host::kMillisecond;
  storage::StableStore stable(simulation, sopts);
  StableServer server(simulation, network, 50, stable);
  StableClient client(simulation, network, 51, 50);

  StableClient::TxnTiming timing;
  bool done = false;
  client.RunTxn(3, [&](StableClient::TxnTiming t) {
    timing = t;
    done = true;
  });
  simulation.scheduler().RunToQuiescence();
  ASSERT_TRUE(done);
  ASSERT_TRUE(timing.ok);
  // Calls are fast (no force); prepare and commit each pay >= one force.
  EXPECT_LT(timing.call_latency, 2 * host::kMillisecond);
  EXPECT_GE(timing.prepare_latency, sopts.force_latency);
  EXPECT_GE(timing.commit_latency, sopts.force_latency);
  EXPECT_EQ(server.forced_writes(), 2u);  // data+prepare, commit
}

TEST(NonReplicated, ViewstampedVariantPreparesFasterWithThinkTime) {
  // §5: "no delay would be encountered if the records had already been
  // written" — with think time before prepare, the background log drains
  // and prepare is nearly instant; the conventional server always pays the
  // full force.
  sim::Simulation simulation(75);
  net::Network network(simulation, {});
  storage::StableStoreOptions sopts;
  sopts.force_latency = 10 * host::kMillisecond;
  storage::StableStore stable(simulation, sopts);
  baseline::ViewstampedStableServer server(simulation, network, 50, stable);
  baseline::StableClient client(simulation, network, 51, 50);

  // With user computation between the calls and the prepare, the write-
  // behind log drains and prepare waits on nothing ("no delay would be
  // encountered if the records had already been written").
  baseline::StableClient::TxnTiming timing;
  bool done = false;
  client.RunTxn(
      3,
      [&](baseline::StableClient::TxnTiming t) {
        timing = t;
        done = true;
      },
      /*think=*/40 * host::kMillisecond);
  simulation.scheduler().RunToQuiescence();
  ASSERT_TRUE(done);
  ASSERT_TRUE(timing.ok);
  EXPECT_LT(timing.prepare_latency, host::kMillisecond);
  EXPECT_GE(server.stats().prepares_immediate, 1u);
  // Commit still pays its force, exactly like the conventional design.
  EXPECT_GE(timing.commit_latency, sopts.force_latency);
  EXPECT_GT(server.stats().background_writes, 0u);
}

TEST(Models, ViewChangeCostsMatchPaperStructure) {
  const host::Duration d = 1 * host::kMillisecond;
  // §4.1: one round when the manager is the new primary; +1 message else.
  auto vr_best = VrViewChange(3, true, d);
  auto vr_other = VrViewChange(3, false, d);
  EXPECT_EQ(vr_best.rounds, 1u);
  EXPECT_EQ(vr_other.messages, vr_best.messages + 1);
  // §5: virtual partitions takes three phases and strictly more messages.
  auto vp = VirtualPartitionsViewChange(3, d);
  EXPECT_EQ(vp.rounds, 3u);
  EXPECT_GT(vp.messages, vr_other.messages);
  EXPECT_GT(vp.latency, vr_other.latency);
}

TEST(Models, VotingWritesCostMoreThanVrCalls) {
  const host::Duration d = 1 * host::kMillisecond;
  for (std::size_t n : {3u, 5u, 7u}) {
    auto vr = VrCall(n, d);
    auto voting = VotingWrite(n, d);  // write-all
    EXPECT_GT(voting.latency, vr.latency) << "n=" << n;
    // Critical-path messages: VR = 2 regardless of n; voting grows with n.
    EXPECT_GT(voting.messages, 2u + 2 * (n - 1)) << "n=" << n;
  }
}

TEST(Models, IsisPiggybackGrowsVrPsetDoesNot) {
  // §5: Isis "piggybacked information ... cannot be discarded when
  // transactions commit"; the VR pset is bounded by the live transaction.
  const std::uint64_t effect = 64;  // bytes per op
  EXPECT_GT(IsisPiggybackBytes(1000, effect, 0),
            IsisPiggybackBytes(100, effect, 0));
  EXPECT_EQ(VrPsetBytes(3), VrPsetBytes(3));  // depends only on live calls
  EXPECT_LT(VrPsetBytes(3), IsisPiggybackBytes(1000, effect, 0));
}

TEST(Models, AvailabilityOrdering) {
  const double a = 0.99;
  // More replicas → higher availability for majority systems.
  EXPECT_GT(VrAvailability(5, a), VrAvailability(3, a));
  EXPECT_GT(VrAvailability(3, a), a);  // beats a single copy
  // A perfectly independent pair beats one copy; correlation erodes it.
  EXPECT_GT(TandemPairAvailability(a, 0.0), a);
  EXPECT_LT(TandemPairAvailability(a, 0.5), TandemPairAvailability(a, 0.0));
  // k-of-n sanity.
  EXPECT_NEAR(KOfNAvailability(1, 1, a), a, 1e-12);
  EXPECT_NEAR(KOfNAvailability(2, 1, a), 1 - (1 - a) * (1 - a), 1e-12);
}

}  // namespace
}  // namespace vsr::baseline
