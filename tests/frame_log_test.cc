// Tests for the network observation tap and the FrameLog renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/frame_log.h"
#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

TEST(FrameLog, CapturesTheViewChangeSequence) {
  Cluster cluster(ClusterOptions{.seed = 301});
  auto g = cluster.AddGroup("kv", 3);
  net::FrameLog log(cluster.sim(), cluster.network());
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  // Boot = one view change: invitations and acceptances must appear, and in
  // cause-before-effect order.
  EXPECT_GE(log.CountType(vr::MsgType::kInvite), 2u);
  EXPECT_GE(log.CountType(vr::MsgType::kAccept), 2u);
  EXPECT_GE(log.CountType(vr::MsgType::kBufferBatch), 1u);
  host::Time first_invite = 0, first_batch = 0;
  for (const auto& e : log.entries()) {
    if (e.type == static_cast<std::uint16_t>(vr::MsgType::kInvite) &&
        first_invite == 0) {
      first_invite = e.at;
    }
    if (e.type == static_cast<std::uint16_t>(vr::MsgType::kBufferBatch) &&
        first_batch == 0) {
      first_batch = e.at;
    }
  }
  EXPECT_LT(first_invite, first_batch);

  // Rendering produces one line per entry with names resolved.
  auto lines = log.Render(static_cast<std::uint16_t>(vr::MsgType::kInvite));
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("invite"), std::string::npos);
  (void)g;
}

TEST(FrameLog, CapacityBoundsMemory) {
  Cluster cluster(ClusterOptions{.seed = 302});
  cluster.AddGroup("kv", 3);
  net::FrameLog log(cluster.sim(), cluster.network(), /*capacity=*/16);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * host::kSecond);  // plenty of pings
  EXPECT_LE(log.entries().size(), 16u);
  EXPECT_GT(log.dropped(), 0u);
}

TEST(FrameLog, TransactionMessageFlow) {
  Cluster cluster(ClusterOptions{.seed = 303});
  auto g = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  test::RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  net::FrameLog log(cluster.sim(), cluster.network());
  ASSERT_EQ(test::RunOneCall(cluster, agents, g, "put", "k=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * host::kMillisecond);

  // One transaction = exactly one executed call/reply, one prepare/reply,
  // one commit/done at the data plane (no retransmissions on the clean
  // network).
  EXPECT_EQ(log.CountType(vr::MsgType::kCall), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kReply), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kPrepare), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kPrepareReply), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kCommit), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kCommitDone), 1u);
}

// Every message type renders by name, including the ones numbered after the
// core protocol (shard pulls, leases, backup reads); a type no message uses
// renders as "?".
TEST(FrameLog, RendersEveryMessageTypeByName) {
  Cluster cluster(ClusterOptions{.seed = 304});
  struct Sink : net::FrameHandler {
    void OnFrame(const net::Frame&) override {}
  } sink;
  const net::NodeId a = cluster.AllocateMid();
  const net::NodeId b = cluster.AllocateMid();
  cluster.network().Register(b, &sink);
  net::FrameLog log(cluster.sim(), cluster.network());
  const std::uint16_t types[] = {
      static_cast<std::uint16_t>(vr::MsgType::kShardPull),
      static_cast<std::uint16_t>(vr::MsgType::kBackupReadReply), 999};
  for (std::uint16_t t : types) cluster.network().Send(a, b, t, {});
  cluster.RunFor(100 * host::kMillisecond);

  // Delivery order follows the simulated delays, so match lines as a set.
  const auto lines = log.Render();
  ASSERT_EQ(lines.size(), 3u);
  for (const char* name : {" shard-pull ", " backup-read-reply ", " ? "}) {
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                            [&](const std::string& l) {
                              return l.find(name) != std::string::npos;
                            }))
        << "no line renders" << name;
  }
}

}  // namespace
}  // namespace vsr
