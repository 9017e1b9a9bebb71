// Unit tests for the simulated stable storage.
#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "storage/stable_store.h"

namespace vsr::storage {
namespace {

TEST(StableStore, ForceCompletesAfterConfiguredLatency) {
  sim::Simulation simulation(1);
  StableStoreOptions opts;
  opts.force_latency = 5 * host::kMillisecond;
  StableStore store(simulation, opts);

  bool durable = false;
  store.ForceWrite("k", {1, 2, 3}, [&] { durable = true; });
  EXPECT_EQ(store.pending_writes(), 1);
  simulation.scheduler().RunUntil(4 * host::kMillisecond);
  EXPECT_FALSE(durable);
  // Not yet visible either: durability precedes visibility.
  EXPECT_FALSE(store.Read("k").has_value());
  simulation.scheduler().RunUntil(6 * host::kMillisecond);
  EXPECT_TRUE(durable);
  EXPECT_EQ(store.pending_writes(), 0);
  ASSERT_TRUE(store.Read("k").has_value());
  EXPECT_EQ(*store.Read("k"), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(StableStore, NullCallbackIsAllowed) {
  sim::Simulation simulation(2);
  StableStore store(simulation, {});
  store.ForceWrite("k", {9}, nullptr);
  simulation.scheduler().RunToQuiescence();
  EXPECT_TRUE(store.Contains("k"));
}

TEST(StableStore, OverwriteKeepsLatestValue) {
  sim::Simulation simulation(3);
  StableStore store(simulation, {});
  store.ForceWrite("k", {1}, nullptr);
  store.ForceWrite("k", {2}, nullptr);
  simulation.scheduler().RunToQuiescence();
  EXPECT_EQ(*store.Read("k"), (std::vector<std::uint8_t>{2}));
}

TEST(StableStore, StatsCountForcesAndBytes) {
  sim::Simulation simulation(4);
  StableStore store(simulation, {});
  store.ForceWrite("a", std::vector<std::uint8_t>(10), nullptr);
  store.ForceWrite("b", std::vector<std::uint8_t>(20), nullptr);
  simulation.scheduler().RunToQuiescence();
  EXPECT_EQ(store.stats().forced_writes, 2u);
  EXPECT_EQ(store.stats().bytes_written, 30u);
}

TEST(StableStore, InFlightWriteIsLostIfSimulationStops) {
  // Models a crash between issuing a force and its completion: the value
  // must not be visible (the cohort's start-view path relies on this —
  // viewid durability gates entering the view).
  sim::Simulation simulation(5);
  StableStoreOptions opts;
  opts.force_latency = 10 * host::kMillisecond;
  StableStore store(simulation, opts);
  store.ForceWrite("k", {7}, nullptr);
  simulation.scheduler().RunUntil(1 * host::kMillisecond);
  EXPECT_FALSE(store.Contains("k"));  // "crash" here -> nothing persisted
}

TEST(StableStore, ZeroLatencyStillAsynchronous) {
  // Even with zero latency the callback must not run re-entrantly inside
  // ForceWrite (handlers must never nest).
  sim::Simulation simulation(6);
  StableStoreOptions opts;
  opts.force_latency = 0;
  StableStore store(simulation, opts);
  bool durable = false;
  store.ForceWrite("k", {}, [&] { durable = true; });
  EXPECT_FALSE(durable);
  simulation.scheduler().RunToQuiescence();
  EXPECT_TRUE(durable);
}

TEST(StableStore, DropPendingCancelsExactlyThatOwnersWrites) {
  sim::Simulation simulation(7);
  StableStoreOptions opts;
  opts.force_latency = 10 * host::kMillisecond;
  StableStore store(simulation, opts);

  bool mine = false, theirs = false, unowned = false;
  store.ForceWrite("mine", {1}, [&] { mine = true; }, /*owner=*/1);
  store.ForceWrite("theirs", {2}, [&] { theirs = true; }, /*owner=*/2);
  store.ForceWrite("unowned", {3}, [&] { unowned = true; });
  store.DropPending(1);

  simulation.scheduler().RunToQuiescence();
  // The crashed owner's write vanished — value absent, callback never ran.
  EXPECT_FALSE(mine);
  EXPECT_FALSE(store.Contains("mine"));
  // Everyone else's writes landed normally.
  EXPECT_TRUE(theirs);
  EXPECT_TRUE(unowned);
  EXPECT_TRUE(store.Contains("theirs"));
  EXPECT_TRUE(store.Contains("unowned"));
  EXPECT_EQ(store.stats().writes_dropped, 1u);
}

TEST(StableStore, DropPendingOwnerZeroIsNoop) {
  // Owner 0 means "unowned"; DropPending(0) must not cancel anything.
  sim::Simulation simulation(8);
  StableStore store(simulation, {});
  store.ForceWrite("a", {1}, nullptr);
  store.DropPending(0);
  simulation.scheduler().RunToQuiescence();
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_EQ(store.stats().writes_dropped, 0u);
}

TEST(StableStore, TornModeTruncatesOldestPendingWrite) {
  // The write physically mid-flight at crash time is the OLDEST pending one
  // (completions are FIFO); torn mode persists its first half so recovery
  // code sees a torn sector instead of a clean absence.
  sim::Simulation simulation(9);
  StableStoreOptions opts;
  opts.force_latency = 10 * host::kMillisecond;
  opts.torn_writes = true;
  StableStore store(simulation, opts);

  store.ForceWrite("first", {1, 2, 3, 4, 5, 6}, nullptr, /*owner=*/1);
  store.ForceWrite("second", {7, 8, 9}, nullptr, /*owner=*/1);
  store.DropPending(1);
  simulation.scheduler().RunToQuiescence();

  ASSERT_TRUE(store.Contains("first"));
  EXPECT_EQ(*store.Read("first"), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(store.Contains("second"));  // later writes vanish entirely
  EXPECT_EQ(store.stats().torn_writes, 1u);
  EXPECT_EQ(store.stats().writes_dropped, 2u);
}

TEST(StableStore, EraseByPrefixRemovesOnlyMatchingKeys) {
  sim::Simulation simulation(10);
  StableStore store(simulation, {});
  store.ForceWrite("elog/3/head", {1}, nullptr);
  store.ForceWrite("elog/3/1", {2}, nullptr);
  store.ForceWrite("elog/31/head", {3}, nullptr);  // different prefix
  store.ForceWrite("viewid/3", {4}, nullptr);
  simulation.scheduler().RunToQuiescence();

  EXPECT_EQ(store.EraseByPrefix("elog/3/"), 2u);
  EXPECT_FALSE(store.Contains("elog/3/head"));
  EXPECT_FALSE(store.Contains("elog/3/1"));
  EXPECT_TRUE(store.Contains("elog/31/head"));
  EXPECT_TRUE(store.Contains("viewid/3"));
}

TEST(StableStore, PokeBypassesLatency) {
  sim::Simulation simulation(11);
  StableStore store(simulation, {});
  store.Poke("k", {0xaa});
  EXPECT_TRUE(store.Contains("k"));  // immediate: models media corruption
  EXPECT_EQ(*store.Read("k"), (std::vector<std::uint8_t>{0xaa}));
}

}  // namespace
}  // namespace vsr::storage
