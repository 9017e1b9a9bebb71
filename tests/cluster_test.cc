// Tests for the client-harness layer: Cluster, Directory, debug dumps, and
// the Tracer capture machinery.
#include <gtest/gtest.h>

#include "client/debug.h"
#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

TEST(Directory, LookupAndRegistration) {
  core::Directory d;
  EXPECT_EQ(d.Lookup(1), nullptr);
  d.RegisterGroup(1, {10, 11, 12});
  ASSERT_NE(d.Lookup(1), nullptr);
  EXPECT_EQ(*d.Lookup(1), (std::vector<vr::Mid>{10, 11, 12}));
  EXPECT_EQ(d.group_count(), 1u);
}

TEST(Cluster, GroupNamesResolve) {
  Cluster cluster(ClusterOptions{.seed = 201});
  auto g = cluster.AddGroup("alpha", 3);
  EXPECT_EQ(cluster.GroupByName("alpha"), g);
  EXPECT_EQ(cluster.GroupName(g), "alpha");
  EXPECT_THROW(cluster.GroupByName("nope"), std::out_of_range);
}

TEST(Cluster, MidsAreUniqueAcrossGroupsAndClients) {
  Cluster cluster(ClusterOptions{.seed = 202});
  auto a = cluster.AddGroup("a", 3);
  auto b = cluster.AddGroup("b", 5);
  std::set<vr::Mid> mids;
  for (auto* c : cluster.Cohorts(a)) mids.insert(c->mid());
  for (auto* c : cluster.Cohorts(b)) mids.insert(c->mid());
  mids.insert(cluster.AllocateMid());
  EXPECT_EQ(mids.size(), 9u);
}

TEST(Cluster, RunUntilStableFailsWhenNoMajorityPossible) {
  Cluster cluster(ClusterOptions{.seed = 203});
  auto g = cluster.AddGroup("g", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.Crash(g, 0);
  cluster.Crash(g, 1);
  EXPECT_FALSE(cluster.RunUntilStable(3 * host::kSecond));
}

TEST(Cluster, PerGroupOptionOverride) {
  Cluster cluster(ClusterOptions{.seed = 204});
  core::CohortOptions special;
  special.nested_call_retry = true;
  auto g1 = cluster.AddGroup("default", 3);
  auto g2 = cluster.AddGroup("special", 3, &special);
  EXPECT_FALSE(cluster.CohortAt(g1, 0).options().nested_call_retry);
  EXPECT_TRUE(cluster.CohortAt(g2, 0).options().nested_call_retry);
}

TEST(Cluster, DeterministicAcrossIdenticalRuns) {
  auto digest = [](std::uint64_t seed) {
    Cluster cluster(ClusterOptions{.seed = seed});
    auto g = cluster.AddGroup("kv", 3);
    auto client_g = cluster.AddGroup("c", 3);
    test::RegisterKvProcs(cluster, g);
    // FNV-1a over every delivered frame's (time, endpoints, type, size):
    // sensitive to the exact schedule, not just aggregate counters (windowed
    // replication makes frame counts nearly seed-independent in calm runs).
    std::uint64_t schedule_hash = 14695981039346656037ull;
    cluster.network().set_observer([&](const net::Frame& f) {
      auto mix = [&](std::uint64_t v) {
        schedule_hash = (schedule_hash ^ v) * 1099511628211ull;
      };
      mix(cluster.sim().Now());
      mix(f.from);
      mix(f.to);
      mix(f.type);
      mix(f.payload.size());
    });
    cluster.Start();
    cluster.RunUntilStable();
    for (int i = 0; i < 5; ++i) {
      test::RunOneCall(cluster, client_g, g, "add", "x=1");
    }
    cluster.RunFor(1 * host::kSecond);
    // Digest: final time + network counters + schedule hash + committed value.
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu/%llu/%llx/%s",
                  static_cast<unsigned long long>(cluster.sim().Now()),
                  static_cast<unsigned long long>(
                      cluster.network().stats().frames_sent),
                  static_cast<unsigned long long>(schedule_hash),
                  test::CommittedValue(cluster, g, "x").c_str());
    return std::string(buf);
  };
  EXPECT_EQ(digest(42), digest(42));
  EXPECT_NE(digest(42), digest(43));
}

TEST(Debug, DumpsAreInformative) {
  Cluster cluster(ClusterOptions{.seed = 205});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::string dump = client::GroupDebugString(cluster, g);
  EXPECT_NE(dump.find("group"), std::string::npos);
  EXPECT_NE(dump.find("*PRIMARY*"), std::string::npos);
  EXPECT_NE(dump.find("active"), std::string::npos);
  // One line per cohort plus the header.
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 4);
}

TEST(Tracer, CapturesProtocolEvents) {
  Cluster cluster(ClusterOptions{.seed = 206});
  cluster.AddGroup("kv", 3);
  std::vector<std::string> lines;
  cluster.sim().tracer().set_level(host::TraceLevel::kDebug);
  cluster.sim().tracer().set_sink(
      [&](host::Time, host::TraceLevel, const std::string& tag,
          const std::string& line) { lines.push_back(tag + ": " + line); });
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  bool saw_manager = false, saw_formed = false, saw_active = false;
  for (const auto& l : lines) {
    if (l.find("becoming view manager") != std::string::npos) saw_manager = true;
    if (l.find("formed view") != std::string::npos) saw_formed = true;
    if (l.find("active in view") != std::string::npos) saw_active = true;
  }
  EXPECT_TRUE(saw_manager);
  EXPECT_TRUE(saw_formed);
  EXPECT_TRUE(saw_active);
  // Disabling tracing stops the stream.
  cluster.sim().tracer().set_level(host::TraceLevel::kOff);
  const std::size_t count = lines.size();
  cluster.RunFor(1 * host::kSecond);
  EXPECT_EQ(lines.size(), count);
}

}  // namespace
}  // namespace vsr
