// Snapshot state transfer (DESIGN.md §9): unit tests for the chunked
// transfer protocol (SnapshotServer / SnapshotSink) and cluster integration
// tests for backup catch-up once the communication buffer has
// garbage-collected past a laggard's ack.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"
#include "tests/test_util.h"
#include "vr/snapshot.h"
#include "wire/buffer.h"

namespace vsr::vr {
namespace {

// ---------------------------------------------------------------------------
// Unit tests: server/sink driven directly, with the test as the "network".
// ---------------------------------------------------------------------------

constexpr GroupId kGroup = 7;
constexpr Mid kSelf = 1;
constexpr Mid kBackup = 2;
constexpr ViewId kView{3, 1};

class SnapshotUnitTest : public ::testing::Test {
 protected:
  SnapshotUnitTest()
      : sim_(1),
        server_(sim_, Options(),
                [this](Mid to, const SnapshotChunkMsg& m) {
                  outbox_.push_back({to, m});
                }) {
    server_.StartView(kView, kGroup, kSelf);
    std::vector<std::uint8_t> bytes(45);
    std::iota(bytes.begin(), bytes.end(), std::uint8_t{1});
    payload_ = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(bytes));
    vs_ = Viewstamp{kView, 40};
  }

  static SnapshotTransferOptions Options() {
    return {.chunk_size = 10,
            .window = 2,
            .retransmit_interval = 20 * host::kMillisecond};
  }

  void Ack(std::uint64_t offset, Viewstamp vs) {
    SnapshotAckMsg a;
    a.group = kGroup;
    a.viewid = kView;
    a.from = kBackup;
    a.vs = vs;
    a.offset = offset;
    server_.OnAck(a);
  }

  // Delivers the front outbound chunk into the sink and acks whatever the
  // sink says; returns false when the outbox is empty.
  bool DeliverOne() {
    if (outbox_.empty()) return false;
    auto [to, m] = outbox_.front();
    outbox_.pop_front();
    EXPECT_EQ(to, kBackup);
    if (sink_.OnChunk(m)) Ack(sink_.offset(), sink_.vs());
    return true;
  }

  void DeliverAll() {
    while (DeliverOne()) {
    }
  }

  sim::Simulation sim_;
  SnapshotServer server_;
  SnapshotSink sink_;
  std::deque<std::pair<Mid, SnapshotChunkMsg>> outbox_;
  std::shared_ptr<const std::vector<std::uint8_t>> payload_;
  Viewstamp vs_;
};

TEST_F(SnapshotUnitTest, ServerPipelinesWithinWindow) {
  server_.Serve(kBackup, vs_, payload_);
  // 45 bytes / chunk 10 = 5 chunks total, but only `window` (2) may be in
  // flight past the acked offset.
  ASSERT_EQ(outbox_.size(), 2u);
  EXPECT_EQ(outbox_[0].second.offset, 0u);
  EXPECT_EQ(outbox_[1].second.offset, 10u);
  EXPECT_EQ(outbox_[0].second.total_size, 45u);

  // Acking the first chunk slides the window by exactly one chunk.
  Ack(10, vs_);
  ASSERT_EQ(outbox_.size(), 3u);
  EXPECT_EQ(outbox_[2].second.offset, 20u);
}

TEST_F(SnapshotUnitTest, TransferCompletesInOrder) {
  server_.Serve(kBackup, vs_, payload_);
  DeliverAll();

  EXPECT_TRUE(sink_.complete());
  EXPECT_EQ(sink_.payload(), *payload_);
  EXPECT_EQ(sink_.vs(), vs_);
  EXPECT_FALSE(server_.Serving(kBackup));
  EXPECT_EQ(server_.stats().transfers_started, 1u);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
  EXPECT_EQ(server_.stats().chunks_sent, 5u);
  EXPECT_EQ(server_.stats().chunk_retransmits, 0u);
  EXPECT_EQ(server_.stats().bytes_sent, 45u);
  EXPECT_EQ(sink_.corrupt_payloads(), 0u);
}

TEST_F(SnapshotUnitTest, DeadlineResendsFromAckedOffset) {
  server_.Serve(kBackup, vs_, payload_);
  outbox_.clear();  // the whole first window is lost

  sim_.scheduler().RunUntil(sim_.Now() + Options().retransmit_interval + 1);
  // Go-back-N from the acked offset (0): both window chunks again.
  ASSERT_EQ(outbox_.size(), 2u);
  EXPECT_EQ(outbox_[0].second.offset, 0u);
  EXPECT_GE(server_.stats().chunk_retransmits, 2u);

  DeliverAll();
  EXPECT_TRUE(sink_.complete());
  EXPECT_EQ(sink_.payload(), *payload_);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
}

TEST_F(SnapshotUnitTest, MidTransferLossRealignsViaCumulativeAck) {
  server_.Serve(kBackup, vs_, payload_);
  ASSERT_EQ(outbox_.size(), 2u);
  ASSERT_TRUE(DeliverOne());  // chunk at offset 0 arrives
  outbox_.pop_front();        // chunk at offset 10 is lost

  // The ack for offset 10 pumped one more chunk (offset 20). It arrives out
  // of order: the sink keeps its contiguous prefix and re-acks offset 10,
  // which does not advance the server.
  ASSERT_FALSE(outbox_.empty());
  EXPECT_EQ(outbox_.front().second.offset, 20u);
  ASSERT_TRUE(DeliverOne());
  EXPECT_EQ(sink_.offset(), 10u);

  // The deadline rewinds the send cursor to the acked offset and the
  // transfer finishes.
  sim_.scheduler().RunUntil(sim_.Now() + Options().retransmit_interval + 1);
  DeliverAll();
  EXPECT_TRUE(sink_.complete());
  EXPECT_EQ(sink_.payload(), *payload_);
  EXPECT_GE(server_.stats().chunk_retransmits, 1u);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
}

TEST_F(SnapshotUnitTest, ChecksumRejectRestartsTransferFromZero) {
  server_.Serve(kBackup, vs_, payload_);
  // Corrupt one payload byte of the second chunk in flight, leaving the
  // framing (total/checksum) intact: assembly succeeds, verification fails.
  ASSERT_EQ(outbox_.size(), 2u);
  outbox_[1].second.data[3] ^= 0xff;
  // Deliver chunk by chunk until the fully-assembled payload fails
  // verification. (The offset-0 ack immediately rewinds the server and
  // refills the outbox, so stop right at the reject to observe it.)
  while (sink_.corrupt_payloads() == 0) {
    ASSERT_TRUE(DeliverOne());
  }

  EXPECT_EQ(sink_.corrupt_payloads(), 1u);
  EXPECT_FALSE(sink_.complete());
  EXPECT_TRUE(sink_.active());  // restarted, same snapshot
  EXPECT_EQ(sink_.offset(), 0u);

  // The offset-0 ack rewound the server; the clean redelivery completes.
  ASSERT_FALSE(outbox_.empty());
  EXPECT_EQ(outbox_.front().second.offset, 0u);
  DeliverAll();
  EXPECT_TRUE(sink_.complete());
  EXPECT_EQ(sink_.payload(), *payload_);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
}

TEST_F(SnapshotUnitTest, SinkAdoptsNewerSnapshotMidTransfer) {
  server_.Serve(kBackup, vs_, payload_);
  ASSERT_TRUE(DeliverOne());
  EXPECT_EQ(sink_.offset(), 10u);

  // The primary moved on: a fresher snapshot supersedes the partial one.
  const Viewstamp newer{kView, 50};
  std::vector<std::uint8_t> fresh(12, 0xab);
  SnapshotChunkMsg m;
  m.group = kGroup;
  m.viewid = kView;
  m.from = kSelf;
  m.vs = newer;
  m.total_size = fresh.size();
  m.checksum = wire::Crc32(std::span<const std::uint8_t>(fresh));
  m.offset = 0;
  m.data = fresh;
  ASSERT_TRUE(sink_.OnChunk(m));
  EXPECT_EQ(sink_.vs(), newer);
  EXPECT_TRUE(sink_.complete());
  EXPECT_EQ(sink_.payload(), fresh);

  // A stray chunk of the superseded snapshot is ignored outright.
  SnapshotChunkMsg stale = outbox_.front().second;
  EXPECT_LT(stale.vs, newer);
  EXPECT_FALSE(sink_.OnChunk(stale));
}

TEST_F(SnapshotUnitTest, ServeSameVsKeepsProgressNewerReplaces) {
  server_.Serve(kBackup, vs_, payload_);
  ASSERT_TRUE(DeliverOne());
  EXPECT_EQ(server_.stats().transfers_started, 1u);

  // Re-serving the same snapshot must not restart the transfer.
  const std::uint64_t sent_before = server_.stats().chunks_sent;
  server_.Serve(kBackup, vs_, payload_);
  EXPECT_EQ(server_.stats().transfers_started, 1u);
  EXPECT_EQ(server_.stats().chunks_sent, sent_before);

  // A newer snapshot replaces it and starts over from offset 0.
  auto fresh = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>(25, 0xcd));
  outbox_.clear();
  server_.Serve(kBackup, Viewstamp{kView, 60}, fresh);
  EXPECT_EQ(server_.stats().transfers_started, 2u);
  ASSERT_FALSE(outbox_.empty());
  EXPECT_EQ(outbox_.front().second.offset, 0u);
  EXPECT_EQ(outbox_.front().second.total_size, 25u);
}

TEST_F(SnapshotUnitTest, AckValidationRejectsForeignOrStale) {
  server_.Serve(kBackup, vs_, payload_);

  SnapshotAckMsg a;
  a.group = kGroup;
  a.viewid = kView;
  a.from = kBackup;
  a.vs = vs_;

  a.viewid = ViewId{4, 1};  // wrong view
  a.offset = 10;
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 1u);

  a.viewid = kView;
  a.group = kGroup + 1;  // wrong group
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 2u);

  a.group = kGroup;
  a.vs = Viewstamp{kView, 99};  // not the snapshot being served
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 3u);

  a.vs = vs_;
  a.offset = payload_->size() + 1;  // beyond the payload
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 4u);

  // None of those moved the transfer: the next honest ack still works.
  a.offset = 10;
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 4u);
  EXPECT_TRUE(server_.Serving(kBackup));

  // Stop() cancels the transfer wholesale (view change, crash).
  server_.Stop();
  EXPECT_FALSE(server_.Serving(kBackup));
  const std::size_t sent = outbox_.size();
  sim_.scheduler().RunUntil(sim_.Now() + 10 * Options().retransmit_interval);
  EXPECT_EQ(outbox_.size(), sent);  // no zombie retransmits
}

// ---------------------------------------------------------------------------
// Integration: a real cluster where the buffer GCs past a laggard.
// ---------------------------------------------------------------------------

using client::Cluster;
using client::ClusterOptions;
using test::RegisterKvProcs;
using test::RunOneCallWithRetry;

std::size_t IndexOfPrimary(Cluster& cluster, GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

core::CohortOptions LaggardFriendlyOptions() {
  core::CohortOptions o;
  // Suppress failure-detection view changes while a backup is cut off: this
  // test is about state transfer, not elections.
  o.liveness_timeout = 60 * host::kSecond;
  // A small buffer window so a modest workload outruns the laggard...
  o.buffer.window = 8;
  // ...and small chunks so a transfer takes several round trips.
  o.snapshot.chunk_size = 256;
  o.snapshot.window = 4;
  return o;
}

TEST(SnapshotIntegration, PartitionedBackupCatchesUpViaStateTransfer) {
  core::CohortOptions opts = LaggardFriendlyOptions();
  Cluster cluster(ClusterOptions{.seed = 91});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& laggard = cluster.CohortAt(kv, (pi + 1) % 3);
  ASSERT_EQ(laggard.status(), core::Status::kActive);

  // Cut the laggard off from the primary and commit far more than the
  // buffer window of work (~5 records per txn >> window 8).
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              TxnOutcome::kCommitted)
        << "txn " << i;
  }
  cluster.RunFor(500 * host::kMillisecond);

  // The dead backup no longer pins the buffer: resident records stay
  // O(window) and the laggard was routed through state transfer.
  EXPECT_LE(primary.buffer().records().size(),
            opts.buffer.window + opts.buffer.max_batch);
  EXPECT_GE(primary.buffer().stats().snapshots_served, 1u);
  EXPECT_LT(laggard.applied_ts(), primary.buffer().base_ts());

  // Heal. The deadline-driven chunk retransmits reach the laggard, which
  // installs the snapshot and rejoins the record stream.
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  cluster.RunFor(2 * host::kSecond);

  EXPECT_GE(laggard.stats().snapshots_installed, 1u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  EXPECT_FALSE(laggard.installing_snapshot());
  EXPECT_EQ(laggard.applied_ts(), primary.buffer().last_ts());
  EXPECT_GE(primary.snapshot_server().stats().transfers_completed, 1u);
  for (int i : {0, 17, 39}) {
    EXPECT_EQ(laggard.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i))
        << "key k" << i;
  }

  // The group still commits new work, and the caught-up backup sees it.
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            TxnOutcome::kCommitted);
  cluster.RunFor(500 * host::kMillisecond);
  EXPECT_EQ(laggard.objects().ReadCommitted("post").value_or(""), "1");
}

TEST(SnapshotIntegration, TransferSurvivesTwentyPercentLoss) {
  core::CohortOptions opts = LaggardFriendlyOptions();
  Cluster cluster(ClusterOptions{.seed = 92});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& laggard = cluster.CohortAt(kv, (pi + 1) % 3);

  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              TxnOutcome::kCommitted);
  }
  cluster.RunFor(500 * host::kMillisecond);
  ASSERT_GE(primary.buffer().stats().snapshots_served, 1u);

  // Heal the link but drop 20% of every frame: chunks and acks both. The
  // cumulative-offset protocol must still converge.
  net::NetworkOptions lossy = cluster.network().options();
  lossy.loss_probability = 0.2;
  cluster.network().set_options(lossy);
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  cluster.RunFor(5 * host::kSecond);

  lossy.loss_probability = 0.0;
  cluster.network().set_options(lossy);
  cluster.RunFor(1 * host::kSecond);

  EXPECT_GE(laggard.stats().snapshots_installed, 1u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  EXPECT_EQ(laggard.applied_ts(), primary.buffer().last_ts());
  for (int i : {0, 17, 39}) {
    EXPECT_EQ(laggard.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i));
  }
}

// Shared setup for the mid-transfer interruption tests: returns once the
// laggard (index pi+1 mod 3) is mid-install — at least one chunk landed,
// the transfer incomplete — with `pad`-sized values at keys k0..k29.
struct MidTransferRig {
  std::size_t pi = 0;  // primary index
  std::size_t li = 0;  // laggard index
  std::string pad = std::string(48, 'x');
};

MidTransferRig SetUpMidTransfer(Cluster& cluster, GroupId kv,
                                GroupId client_g) {
  MidTransferRig rig;
  EXPECT_TRUE(cluster.RunUntilStable());
  rig.pi = IndexOfPrimary(cluster, kv);
  EXPECT_LT(rig.pi, 3u);
  rig.li = (rig.pi + 1) % 3;
  core::Cohort& primary = cluster.CohortAt(kv, rig.pi);
  core::Cohort& laggard = cluster.CohortAt(kv, rig.li);

  // Fatten the snapshot payload so it spans dozens of chunks.
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=" + rig.pad +
                                      std::to_string(i)),
              TxnOutcome::kCommitted);
  }
  cluster.RunFor(200 * host::kMillisecond);
  EXPECT_GE(primary.buffer().stats().snapshots_served, 1u);

  // Heal and step in fine increments until the first chunk lands: the
  // laggard is now mid-install and must answer view changes as crashed.
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  for (int i = 0; i < 20000 && !laggard.installing_snapshot(); ++i) {
    cluster.RunFor(100 * host::kMicrosecond);
  }
  EXPECT_TRUE(laggard.installing_snapshot());
  return rig;
}

core::CohortOptions MidTransferOptions() {
  core::CohortOptions o;
  // Moderate liveness: long enough to keep the lag phase election-free,
  // short enough that failures below are detected promptly.
  o.liveness_timeout = 3 * host::kSecond;
  o.buffer.window = 8;
  // One tiny chunk in flight at a time: the transfer takes many round
  // trips, giving the interruptions below a wide mid-transfer target.
  o.snapshot.chunk_size = 64;
  o.snapshot.window = 1;
  return o;
}

TEST(SnapshotIntegration, MidTransferViewChangeSupersedesInstall) {
  core::CohortOptions opts = MidTransferOptions();
  // Keep the sink mid-install across the whole episode so the view change —
  // not the idle-abandon timer — is what resolves it.
  opts.snapshot.install_abandon_timeout = 60 * host::kSecond;
  Cluster cluster(ClusterOptions{.seed = 93});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  MidTransferRig rig = SetUpMidTransfer(cluster, kv, client_g);
  if (::testing::Test::HasFailure()) return;
  core::Cohort& primary = cluster.CohortAt(kv, rig.pi);
  core::Cohort& laggard = cluster.CohortAt(kv, rig.li);
  const ViewId old_viewid = primary.cur_viewid();

  // Isolate the old primary from everyone: the transfer stalls with the
  // laggard mid-install, and the healthy backup's failure detector starts a
  // view change. It cannot form while the old primary is unreachable — the
  // mid-install laggard answers crashed-equivalent with the same viewid as
  // the one normal (never-primary) backup, failing §4's conditions (1)-(3).
  std::vector<net::NodeId> isolated{primary.mid()};
  std::vector<net::NodeId> rest;
  for (core::Cohort* c : cluster.Cohorts(kv)) {
    if (c->mid() != primary.mid()) rest.push_back(c->mid());
  }
  for (core::Cohort* c : cluster.Cohorts(client_g)) rest.push_back(c->mid());
  cluster.network().Partition({isolated, rest});
  cluster.RunFor(opts.liveness_timeout + 2 * host::kSecond);
  EXPECT_TRUE(laggard.installing_snapshot());  // invitations left it intact
  EXPECT_EQ(laggard.stats().snapshots_installed, 0u);

  // Heal: the old primary rejoins the next formation round as a normal
  // acceptance (it led the crash-viewid view, satisfying condition (3)),
  // so a view forms and its newview gstate supersedes the partial install.
  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable(30 * host::kSecond));
  core::Cohort* np = cluster.AnyPrimary(kv);
  ASSERT_NE(np, nullptr);
  EXPECT_GT(np->cur_viewid(), old_viewid);
  cluster.RunFor(1 * host::kSecond);

  EXPECT_EQ(laggard.stats().snapshots_installed, 0u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  EXPECT_FALSE(laggard.installing_snapshot());
  for (int i : {0, 13, 29}) {
    const std::string want = rig.pad + std::to_string(i);
    for (core::Cohort* c : cluster.Cohorts(kv)) {
      if (c->status() != core::Status::kActive) continue;
      EXPECT_EQ(c->objects()
                    .ReadCommitted("k" + std::to_string(i))
                    .value_or(""),
                want)
          << "cohort " << c->mid() << " key k" << i;
    }
  }
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            TxnOutcome::kCommitted);
}

TEST(SnapshotIntegration, MidTransferPrimaryCrashInstallsNothing) {
  core::CohortOptions opts = MidTransferOptions();
  // Long abandon timeout: first observe the crashed-equivalence window,
  // then the timer's escape from it.
  opts.snapshot.install_abandon_timeout = 15 * host::kSecond;
  Cluster cluster(ClusterOptions{.seed = 94});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  MidTransferRig rig = SetUpMidTransfer(cluster, kv, client_g);
  if (::testing::Test::HasFailure()) return;
  core::Cohort& laggard = cluster.CohortAt(kv, rig.li);
  const std::size_t hi = 3 - rig.pi - rig.li;  // the up-to-date backup

  // Crash the primary with the transfer incomplete. No sim time passes
  // between the observation above and the crash, so nothing was installed.
  cluster.Crash(kv, rig.pi);

  // While the laggard still answers crashed-equivalent, no view can form:
  // the old primary is crashed and the surviving normal backup never led
  // the crash-viewid view, so §4's conditions (1)-(3) all fail — exactly
  // the paper's A/B/C example. Safety: a half-transferred snapshot must
  // never seed a new view.
  EXPECT_FALSE(cluster.RunUntilStable(8 * host::kSecond));
  EXPECT_EQ(cluster.AnyPrimary(kv), nullptr);
  EXPECT_TRUE(laggard.installing_snapshot());

  // All-or-nothing: none of the transferred bytes became state. The laggard
  // still serves its (consistent) pre-transfer prefix — every lagged key is
  // wholly absent, never torn.
  EXPECT_EQ(laggard.stats().snapshots_installed, 0u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  for (int i : {0, 13, 29}) {
    EXPECT_EQ(laggard.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "")
        << "key k" << i;
  }
  // The up-to-date backup, by contrast, has everything.
  for (int i : {0, 13, 29}) {
    EXPECT_EQ(cluster.CohortAt(kv, hi)
                  .objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              rig.pad + std::to_string(i));
  }

  // Once the chunk stream has been idle past install_abandon_timeout the
  // laggard abandons the dead transfer wholesale and resumes normal
  // acceptances with its intact pre-transfer state: two normal acceptances
  // are a majority (condition (1)), so availability returns — led by the
  // up-to-date backup, which holds the largest viewstamp.
  ASSERT_TRUE(cluster.RunUntilStable(60 * host::kSecond));
  EXPECT_GE(laggard.stats().snapshot_installs_abandoned, 1u);
  EXPECT_FALSE(laggard.installing_snapshot());
  const std::size_t np = IndexOfPrimary(cluster, kv);
  EXPECT_EQ(np, hi);
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            TxnOutcome::kCommitted);
  cluster.RunFor(500 * host::kMillisecond);
  // The newview gstate caught the laggard all the way up.
  EXPECT_EQ(laggard.objects().ReadCommitted("k13").value_or(""),
            rig.pad + "13");
}

}  // namespace
}  // namespace vsr::vr
